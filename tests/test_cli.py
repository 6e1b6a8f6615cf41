import contextlib
import csv
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoseq import mf, rnn
from genoseq.cli import main
from genoseq.data import (genotype_to_csv, parse_genotype_csv, parse_phenotype_csv,
                          synth_lowrank_genotypes)
from genoseq.pipeline import CONFIG_KEYS
from genoseq.rnn import load_checkpoint, predict, rnn_init, save_checkpoint


def _run(*argv):
    return main(list(argv))


def _synth(tmp_path, seed="7", samples="30", snps="40", extra=()):
    out = tmp_path / "data"
    rc = _run("synth", "--samples", samples, "--snps", snps, "--rank", "3",
              "--missing-frac", "0.1", "--seed", seed, "--out", str(out), *extra)
    assert rc == 0
    return out


def _hash_dir(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def _non_utf8(path, tmp_path):
    """A copy of ``path`` whose last row starts with the byte 0xff."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = b"\xff" + lines[-1]
    bad = tmp_path / f"non_utf8_{path.name}"
    bad.write_bytes(b"".join(lines))
    return bad


def _one_line_exit_1(rc, capsys, bad, out):
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"genoseq: {bad} is not UTF-8 text: invalid start byte"]
    assert not out.exists()


class TestSynth:
    def test_writes_dataset_with_sidecar(self, tmp_path):
        out = _synth(tmp_path)
        names = {p.name for p in out.iterdir()}
        assert names == {"geno_holed.csv", "geno_truth.csv", "pheno.csv", "synth_meta.json"}
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["seed"] == 7
        g = parse_genotype_csv(out / "geno_holed.csv")
        assert g.samples == 30 and g.snps == 40

    def test_no_missing_means_equal_files(self, tmp_path):
        out = tmp_path / "d"
        rc = _run("synth", "--samples", "10", "--snps", "12", "--rank", "2",
                  "--missing-frac", "0", "--seed", "3", "--out", str(out))
        assert rc == 0
        holed = parse_genotype_csv(out / "geno_holed.csv")
        truth = parse_genotype_csv(out / "geno_truth.csv")
        assert holed.codes.tobytes() == truth.codes.tobytes()

    def test_population_generator(self, tmp_path):
        out = tmp_path / "d"
        rc = _run("synth", "--generator", "population", "--samples", "20",
                  "--snps", "30", "--rank", "4", "--missing-frac", "0.1",
                  "--seed", "5", "--out", str(out))
        assert rc == 0
        assert json.loads((out / "synth_meta.json").read_text())["generator"] == "population"

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a = _synth(tmp_path / "a")
        b = _synth(tmp_path / "b")
        assert _hash_dir(a) == _hash_dir(b)

    @pytest.mark.parametrize("flags,named", [
        (("--trait-missing", "-1"), "missing_per_trait"),
        (("--samples", "0"), "samples"),
        (("--snps", "0", "--generator", "population"), "snps"),
    ], ids=["negative_trait_missing", "no_samples", "no_snps"])
    def test_bad_size_exits_1_with_one_line(self, tmp_path, capsys, flags, named):
        out = tmp_path / "d"
        assert _run("synth", *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and named in err[0]
        assert not out.exists()


class TestImpute:
    def test_happy_path(self, tmp_path):
        data = _synth(tmp_path)
        out = tmp_path / "imp"
        rc = _run("impute", "--geno", str(data / "geno_holed.csv"),
                  "--features", "4", "--epochs", "150", "--seed", "7",
                  "--out", str(out))
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {"imputed.csv", "mf_cost.csv",
                                                   "fit_report.json"}
        imputed = parse_genotype_csv(out / "imputed.csv")
        assert imputed.observed.all()

    def test_missing_input_exits_1_without_outputs(self, tmp_path):
        out = tmp_path / "imp"
        rc = _run("impute", "--geno", str(tmp_path / "nope.csv"), "--out", str(out))
        assert rc == 1
        assert not out.exists() or not any(out.iterdir())

    def test_truth_adds_accuracy_pair(self, tmp_path):
        data = _synth(tmp_path)
        out = tmp_path / "imp"
        rc = _run("impute", "--geno", str(data / "geno_holed.csv"),
                  "--truth", str(data / "geno_truth.csv"),
                  "--features", "4", "--epochs", "150", "--seed", "7",
                  "--out", str(out))
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert set(report["accuracy"]) == {"missing_pct", "full_pct"}
        assert 0 <= report["accuracy"]["missing_pct"] <= 100

    def test_no_genotype_given_exits_1(self, tmp_path, capsys):
        assert _run("impute", "--out", str(tmp_path / "imp")) == 1
        assert capsys.readouterr().err == "genoseq: no genotype file given\n"

    def test_non_utf8_genotype_exits_1_with_one_line(self, tmp_path, capsys):
        bad = _non_utf8(_synth(tmp_path) / "geno_holed.csv", tmp_path)
        capsys.readouterr()
        out = tmp_path / "imp"
        rc = _run("impute", "--geno", str(bad), "--epochs", "2", "--out", str(out))
        _one_line_exit_1(rc, capsys, bad, out)

    def test_init_range_wider_than_a_float_exits_1_before_reading_input(self, tmp_path, capsys):
        # each bound is finite, but b - a overflows: no step is taken, so it is no divergence
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"mf": {"init_range": [-1e308, 1e308]}}))
        out = tmp_path / "imp"
        rc = _run("impute", "--config", str(config), "--geno", str(tmp_path / "nope.csv"),
                  "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "genoseq: init_range requires a finite width b - a, got [-1e+308, 1e+308]"]
        assert not out.exists()

    def test_per_entry_divergence_is_one_line(self, tmp_path, capsys):
        # the numpy overflow warnings of the diverging sweep must not leak
        data = _synth(tmp_path)
        config = tmp_path / "per_entry.json"
        config.write_text(json.dumps({"mf": {"mode": "per_entry"}}))
        capsys.readouterr()
        rc = _run("impute", "--config", str(config), "--geno", str(data / "geno_holed.csv"),
                  "--alpha", "5", "--features", "4", "--epochs", "20",
                  "--out", str(tmp_path / "imp"))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: divergence: ")

    @pytest.mark.parametrize("truth", ["other_shape", "holed"])
    def test_bad_truth_exits_1_before_the_fit(self, tmp_path, capsys, monkeypatch, truth):
        data = _synth(tmp_path)
        truth_path = data / "geno_holed.csv"
        if truth == "other_shape":
            truth_path = _synth(tmp_path / "other", snps="41") / "geno_truth.csv"

        def no_epoch(*args, **kwargs):
            raise AssertionError("the fit ran before the truth was checked")

        monkeypatch.setattr("genoseq.mf.mf_epoch", no_epoch)
        capsys.readouterr()
        out = tmp_path / "imp"
        rc = _run("impute", "--geno", str(data / "geno_holed.csv"), "--truth", str(truth_path),
                  "--features", "4", "--epochs", "5", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")
        assert not out.exists()

    def test_seeded_rerun_identical(self, tmp_path):
        data = _synth(tmp_path)
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = _run("impute", "--geno", str(data / "geno_holed.csv"),
                      "--features", "3", "--epochs", "80", "--seed", "5",
                      "--out", str(out))
            assert rc == 0
            outs.append(_hash_dir(out))
        assert outs[0] == outs[1]


def _imputed(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "imp"
    _run("impute", "--geno", str(data / "geno_holed.csv"), "--features", "4",
         "--epochs", "150", "--seed", "7", "--out", str(out))
    return data, out / "imputed.csv"


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The README walkthrough's phenotypes and imputed genotypes (seed 42, 100x200, F=8)."""
    root = tmp_path_factory.mktemp("walkthrough")
    data = _synth(root, seed="42", samples="100", snps="200")
    assert _run("impute", "--geno", str(data / "geno_holed.csv"), "--features", "8",
                "--epochs", "1500", "--seed", "42", "--out", str(root / "run")) == 0
    return data / "pheno.csv", root / "run" / "imputed.csv"


class TestTrain:
    def test_happy_path(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
                  "--trait", "0", "--cell", "relu_identity", "--epochs", "10",
                  "--chunk-width", "8", "--seed", "7", "--out", str(out))
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {"checkpoint.json", "train_curve.csv",
                                                   "train_report.json"}
        report = json.loads((out / "train_report.json").read_text())
        assert "correlation" in report["metrics"]["train"]

    def test_zero_epochs_relu_checkpoint_has_identity_recurrence(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
                  "--cell", "relu_identity", "--epochs", "0", "--hidden", "6",
                  "--chunk-width", "8", "--seed", "7", "--out", str(out))
        assert rc == 0
        params = load_checkpoint(out / "checkpoint.json")
        np.testing.assert_array_equal(params.w_hh, np.eye(6))
        np.testing.assert_array_equal(params.b_h, np.zeros(6))

    def test_unknown_cell_exits_1(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        rc = _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
                  "--cell", "gru")
        assert rc == 1

    def test_bad_rnn_setting_fails_before_reading_inputs(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rnn": {"learning_rate": -1}}))
        capsys.readouterr()
        rc = _run("train", "--config", str(config), "--geno", str(tmp_path / "nope.csv"),
                  "--pheno", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "model"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")
        assert "learning_rate" in err[0] and "not found" not in err[0]

    def test_non_finite_phenotype_exits_1(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        pheno = tmp_path / "pheno_nan.csv"
        lines = (data / "pheno.csv").read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        pheno.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = _run("train", "--geno", str(imputed), "--pheno", str(pheno), "--epochs", "5",
                  "--out", str(tmp_path / "model"))
        assert rc == 1
        assert capsys.readouterr().err.startswith("genoseq: non-finite phenotype cell 'nan' (row 3")

    def test_more_than_one_trait_exits_1(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        config = tmp_path / "two_traits.json"
        config.write_text(json.dumps({"traits": [0, 1]}))
        capsys.readouterr()
        out = tmp_path / "model"
        rc = _run("train", "--config", str(config), "--geno", str(imputed),
                  "--pheno", str(data / "pheno.csv"), "--epochs", "2", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "traits" in err[0]
        assert not out.exists()

    def test_ragged_genotype_exits_1_without_creating_out(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        ragged = tmp_path / "ragged.csv"
        lines = imputed.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        ragged.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(ragged), "--pheno", str(data / "pheno.csv"),
                  "--epochs", "2", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "ragged" in err[0]
        assert not out.exists()

    def test_non_utf8_phenotype_exits_1_with_one_line(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        bad = _non_utf8(data / "pheno.csv", tmp_path)
        capsys.readouterr()
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(imputed), "--pheno", str(bad), "--epochs", "2",
                  "--out", str(out))
        _one_line_exit_1(rc, capsys, bad, out)

    def test_non_finite_loss_exits_2_with_one_line(self, tmp_path, capsys, walkthrough):
        pheno, imputed = walkthrough
        capsys.readouterr()
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(imputed), "--pheno", str(pheno), "--lr", "1e308",
                  "--seed", "42", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "genoseq: divergence: training loss became non-finite (epoch 0)"]
        assert not out.exists()

    def test_trait_with_no_observed_value_exits_1(self, tmp_path, capsys, walkthrough):
        pheno, imputed = walkthrough
        lines = pheno.read_text().splitlines()
        unlabelled = tmp_path / "pheno_na.csv"
        unlabelled.write_text("\n".join([lines[0]] + ["NA," + line.split(",", 1)[1]
                                                      for line in lines[1:]]) + "\n")
        capsys.readouterr()
        out = tmp_path / "model"
        rc = _run("train", "--geno", str(imputed), "--pheno", str(unlabelled), "--seed", "42",
                  "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "genoseq: no training samples with an observed trait value"]
        assert not out.exists()

    def test_holed_genotype_rejected(self, tmp_path, capsys):
        data = _synth(tmp_path)
        capsys.readouterr()
        rc = _run("train", "--geno", str(data / "geno_holed.csv"),
                  "--pheno", str(data / "pheno.csv"), "--epochs", "5")
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "genoseq: genotype matrix has unobserved cells; impute before building sequences"]


def _pheno_labelled(data, tmp_path, labelled):
    """The phenotype file with trait 0 observed on its first ``labelled`` samples only."""
    header, *rows = (data / "pheno.csv").read_text().splitlines()
    rows = [row if i < labelled else "NA," + row.split(",", 1)[1] for i, row in enumerate(rows)]
    path = tmp_path / f"pheno_{labelled}.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def _with_nan_w_ho(doc):
    doc["tensors"]["w_ho"]["data"][0] = "nan"
    return json.dumps(doc)


def _with_huge_int_w_ho(doc):
    doc["tensors"]["w_ho"]["data"][0] = 10 ** 400  # past the float range
    return json.dumps(doc)


def _with_outputs(n_out):
    """A mangler that gives the readout n_out rows, each a copy of the trained one."""
    def mangle(doc):
        w_ho, b_o = doc["tensors"]["w_ho"], doc["tensors"]["b_o"]
        doc["n_out"] = n_out
        w_ho["shape"][0], w_ho["data"] = n_out, w_ho["data"] * n_out
        b_o["shape"][0], b_o["data"] = n_out, b_o["data"] * n_out
        return json.dumps(doc)
    return mangle


class TestPredict:
    def test_round_trip_predictions_bit_match(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--cell", "simple_tanh", "--epochs", "15", "--chunk-width", "8",
             "--seed", "7", "--out", str(model_dir))
        out = tmp_path / "preds"
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
                  "--trait", "0", "--out", str(out))
        assert rc == 0
        # recompute with the loaded checkpoint; decimal strings round-trip exactly
        from genoseq.data import build_sequences
        params = load_checkpoint(model_dir / "checkpoint.json")
        g = parse_genotype_csv(imputed)
        p = parse_phenotype_csv(data / "pheno.csv")
        batch = build_sequences(g, p, 0, params.n_in)
        expected = predict(params, batch.inputs)
        lines = (out / "predictions.csv").read_text().strip().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert got.tobytes() == expected[:, 0].tobytes()
        metrics = json.loads((out / "predict_metrics.json").read_text())
        assert "correlation" in metrics and "mse" in metrics

    def test_non_utf8_genotype_exits_1_with_one_line(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        bad = _non_utf8(imputed, tmp_path)
        capsys.readouterr()
        out = tmp_path / "preds"
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(bad), "--out", str(out))
        _one_line_exit_1(rc, capsys, bad, out)

    def test_snp_count_mismatch_exits_1_with_one_line(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)  # 40 SNPs
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        assert json.loads((model_dir / "checkpoint.json").read_text())["snps"] == 40
        wide = _synth(tmp_path / "wide", snps="60") / "geno_truth.csv"
        capsys.readouterr()
        out = tmp_path / "preds"
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(wide), "--pheno", str(data / "pheno.csv"), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"genoseq: the checkpoint was trained on 40 SNPs, {wide} has 60"]
        assert not out.exists()

    def test_missing_checkpoint_exits_1(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        rc = _run("predict", "--checkpoint", str(tmp_path / "none.json"),
                  "--geno", str(imputed))
        assert rc == 1

    @pytest.mark.parametrize("mangle", [
        lambda doc: "{not json",
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "tensors"}),
        lambda doc: json.dumps({**doc, "tensors": {k: v for k, v in doc["tensors"].items()
                                                   if k != "w_hh"}}),
        _with_nan_w_ho,
        _with_huge_int_w_ho,
        _with_outputs(0),
        _with_outputs(2),
    ], ids=["not_json", "no_tensors", "no_w_hh", "nan_w_ho", "huge_int_w_ho", "zero_outputs",
            "two_outputs"])
    def test_malformed_checkpoint_exits_1(self, tmp_path, capsys, mangle):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        ckpt = model_dir / "checkpoint.json"
        ckpt.write_text(mangle(json.loads(ckpt.read_text())))
        capsys.readouterr()
        rc = _run("predict", "--checkpoint", str(ckpt), "--geno", str(imputed),
                  "--out", str(tmp_path / "preds"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")
        assert not (tmp_path / "preds").exists()

    @pytest.mark.parametrize("huge, with_pheno", [
        (("w_ho", "b_h"), True), (("w_ho", "b_h"), False), (("w_ho",), True)],
        ids=["inf_predictions", "inf_predictions_without_pheno", "inf_mse"])
    def test_overflow_exits_1_without_outputs(self, tmp_path, capsys, huge, with_pheno):
        # every weight is finite, so the checkpoint loads; with w_ho alone the
        # predictions stay below 1e308 but their squared errors overflow
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--cell", "relu_identity", "--epochs", "2", "--chunk-width", "8",
             "--out", str(model_dir))
        ckpt = model_dir / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        for name in huge:
            doc["tensors"][name]["data"] = ["1e308"] * len(doc["tensors"][name]["data"])
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "preds"
        pheno = ("--pheno", str(data / "pheno.csv")) if with_pheno else ()
        rc = _run("predict", "--checkpoint", str(ckpt), "--geno", str(imputed), *pheno,
                  "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"genoseq: the checkpoint {ckpt} gives non-finite predictions or mse"]
        assert not out.exists()

    def test_more_than_one_trait_exits_1(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        config = tmp_path / "two_traits.json"
        config.write_text(json.dumps({"traits": [0, 1]}))
        capsys.readouterr()
        rc = _run("predict", "--config", str(config),
                  "--checkpoint", str(model_dir / "checkpoint.json"), "--geno", str(imputed),
                  "--pheno", str(data / "pheno.csv"), "--out", str(tmp_path / "preds"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "traits" in err[0]

    def test_trait_out_of_range_exits_1(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
                  "--trait", "9", "--out", str(tmp_path / "preds"))
        assert rc == 1

    def test_no_labelled_sample_exits_1_with_one_line(self, tmp_path, capsys):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        capsys.readouterr()
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(imputed), "--pheno", str(_pheno_labelled(data, tmp_path, 0)),
                  "--out", str(tmp_path / "preds"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "empty batch" in err[0]

    def test_one_labelled_sample_reports_null_correlation(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "2", "--chunk-width", "8", "--out", str(model_dir))
        out = tmp_path / "preds"
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(imputed), "--pheno", str(_pheno_labelled(data, tmp_path, 1)),
                  "--out", str(out))
        assert rc == 0
        assert len((out / "predictions.csv").read_text().splitlines()) == 2
        metrics = json.loads((out / "predict_metrics.json").read_text())
        assert metrics["correlation"] is None and metrics["n"] == 1
        assert np.isfinite(metrics["mse"])

    def test_predict_without_targets(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        model_dir = tmp_path / "model"
        _run("train", "--geno", str(imputed), "--pheno", str(data / "pheno.csv"),
             "--epochs", "5", "--chunk-width", "8", "--seed", "7",
             "--out", str(model_dir))
        out = tmp_path / "preds"
        rc = _run("predict", "--checkpoint", str(model_dir / "checkpoint.json"),
                  "--geno", str(imputed), "--out", str(out))
        assert rc == 0
        assert (out / "predictions.csv").exists()
        assert not (out / "predict_metrics.json").exists()


class TestBenchmark:
    def test_three_cells_three_curves(self, tmp_path):
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "lag", "--length", "30", "--sequences", "8",
                  "--epochs", "10", "--seed", "3", "--out", str(out))
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"simple_tanh_curve.csv", "lstm_curve.csv", "relu_identity_curve.csv",
                "benchmark.json"} == names
        doc = json.loads((out / "benchmark.json").read_text())
        assert set(doc["final_losses"]) == {"simple_tanh", "lstm", "relu_identity"}
        assert len(doc["ordering"]) == 3
        assert "cell" not in doc["config"]["rnn"]

    def test_seeded_rerun_identical(self, tmp_path):
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = _run("benchmark", "--task", "adding", "--length", "20",
                      "--sequences", "6", "--epochs", "8", "--seed", "11",
                      "--out", str(out))
            assert rc == 0
            hashes.append(_hash_dir(out))
        assert hashes[0] == hashes[1]

    def test_diverged_cell_exports_null_loss_in_valid_json(self, tmp_path):
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "deep", "--length", "20", "--sequences", "8",
                  "--lr", "1e12", "--epochs", "5", "--seed", "3", "--out", str(out))
        assert rc == 0

        def reject(name):
            raise ValueError(f"benchmark.json holds the non-JSON constant {name}")

        doc = json.loads((out / "benchmark.json").read_text(), parse_constant=reject)
        assert doc["diverged"]
        for cell in doc["diverged"]:
            assert doc["final_losses"][cell] is None
        n_finite = len(doc["ordering"]) - len(doc["diverged"])
        assert set(doc["ordering"][n_finite:]) == set(doc["diverged"])

    def test_unknown_cell_exits_1(self, tmp_path):
        rc = _run("benchmark", "--cells", "gru", "--epochs", "2",
                  "--out", str(tmp_path / "x"))
        assert rc == 1

    @pytest.mark.parametrize("cells", [["lstm", "lstm"], ["lstm"]], ids=["repeated", "single"])
    def test_bad_cell_list_exits_1_without_outputs(self, tmp_path, capsys, cells):
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "lag", "--length", "10", "--sequences", "4",
                  "--epochs", "2", "--cells", *cells, "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")
        assert not out.exists()

    def test_zero_epochs_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "lag", "--length", "10", "--sequences", "4",
                  "--epochs", "0", "--out", str(out))
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "epoch" in err[0]
        assert captured.out == "" and not out.exists()

    def test_rnn_cell_in_config_exits_1_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rnn": {"cell": "lstm"}}))
        capsys.readouterr()
        out = tmp_path / "bench"
        rc = _run("benchmark", "--config", str(config), "--epochs", "2", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "--cells" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("config_lr, flags, expected", [
        (None, (), 0.1), (0.02, (), 0.02), (0.02, ("--lr", "0.03"), 0.03)],
        ids=["default", "config", "config_and_flag"])
    def test_learning_rate_default_yields_to_config_and_flag(self, tmp_path, config_lr, flags,
                                                             expected):
        # the comparison's own default is 0.1; a config file beats it and --lr beats both
        if config_lr is not None:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"rnn": {"learning_rate": config_lr}}))
            flags = ("--config", str(config), *flags)
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "lag", "--length", "5", "--sequences", "2",
                  "--epochs", "1", "--cells", "lstm", "relu_identity", *flags, "--out", str(out))
        assert rc == 0
        doc = json.loads((out / "benchmark.json").read_text())
        assert doc["config"]["rnn"]["learning_rate"] == expected

    def test_relu_beats_tanh_on_deep_memory_task(self, tmp_path):
        # frozen ordering from a pinned run: 5.09 vs 8.10 final loss
        out = tmp_path / "bench"
        rc = _run("benchmark", "--task", "deep", "--length", "100",
                  "--sequences", "32", "--lr", "0.01", "--epochs", "300",
                  "--seed", "3", "--cells", "simple_tanh", "relu_identity",
                  "--out", str(out))
        assert rc == 0
        doc = json.loads((out / "benchmark.json").read_text())
        assert doc["final_losses"]["relu_identity"] < doc["final_losses"]["simple_tanh"]
        assert doc["ordering"][0] == "relu_identity"


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        rc = _run("gradcheck", "--trials", "5", "--seed", "1")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # mf + three cells
        # a healthy gradient reads its own small error, not zero
        assert all(0 < float(line.split("max_rel_err=")[1].split()[0]) < 1e-5 for line in lines)

    def test_cells_flag_restricts_scope(self, capsys):
        rc = _run("gradcheck", "--trials", "3", "--cells", "lstm", "--seed", "1")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lstm")

    def test_zero_trials_exits_1(self):
        assert _run("gradcheck", "--trials", "0") == 1

    def test_unknown_scope_exits_1(self):
        assert _run("gradcheck", "--trials", "2", "--cells", "gru") == 1

    def test_repeated_scope_exits_1_with_one_line(self, capsys):
        rc = _run("gradcheck", "--trials", "1", "--cells", "mf", "mf")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "genoseq: gradient check names a scope more than once: ['mf', 'mf']"]
        assert captured.out == ""

    @pytest.mark.parametrize("scope", ["mf", "simple_tanh", "lstm", "relu_identity"])
    @pytest.mark.parametrize("skew,fails", [(1 + 2e-5, True), (1 + 5e-6, False)])
    def test_scaled_gradient_fails_only_past_the_threshold(self, capsys, monkeypatch, scope,
                                                           skew, fails):
        # a gradient off by 1 + r reads about r, so 2e-5 fails the default 1e-5 and 5e-6 passes
        exact_mf, exact_rnn = mf.mf_gradients, rnn.bptt_gradients
        monkeypatch.setattr(mf, "mf_gradients",
                            lambda *args: tuple(g * skew for g in exact_mf(*args)))
        monkeypatch.setattr(rnn, "bptt_gradients",
                            lambda *args: {k: g * skew for k, g in exact_rnn(*args).items()})
        rc = _run("gradcheck", "--trials", "3", "--cells", scope, "--seed", "1")
        captured = capsys.readouterr()
        value = float(captured.out.split("max_rel_err=")[1].split()[0])
        assert value == pytest.approx(skew - 1, rel=0.05)
        if fails:
            assert rc == 1 and captured.out.rstrip().endswith("FAIL")
            assert captured.err.splitlines() == ["gradient check failed at threshold 1e-05"]
        else:
            assert rc == 0 and captured.out.rstrip().endswith("ok") and captured.err == ""

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_threshold_outside_finite_positive_exits_1_with_one_line(self, capsys, threshold):
        rc = _run("gradcheck", "--trials", "1", "--threshold", threshold)
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ") and "threshold" in err[0]
        assert captured.out == ""


class TestSharedBehavior:
    @pytest.mark.parametrize("cmd", ["impute", "train", "predict", "benchmark",
                                     "synth", "gradcheck"])
    def test_help_exits_0(self, cmd, capsys):
        assert _run(cmd, "--help") == 0
        assert "--seed" in capsys.readouterr().out

    def test_invalid_flag_exits_1(self):
        assert _run("synth", "--bogus") == 1

    @pytest.mark.parametrize("cmd", [("train",), ("predict", "--checkpoint", "model.json")])
    def test_normalization_flag_is_unrecognized(self, cmd, capsys):
        assert _run(*cmd, "--normalization", "scaled") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unrecognized arguments: --normalization" in err[0]

    def test_no_command_exits_1(self):
        assert _run() == 1

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "warp_drive": true}')
        rc = _run("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "mf": {"features": 3, "epochs": 60}}))
        data = _synth(tmp_path, seed="3")
        out = tmp_path / "imp"
        rc = _run("impute", "--config", str(cfg), "--geno", str(data / "geno_holed.csv"),
                  "--epochs", "40", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["config"]["mf"]["features"] == 3   # from config
        assert report["config"]["mf"]["epochs"] == 40    # flag wins
        assert len(report["curve"]) == 40

    @pytest.mark.parametrize("doc", [
        {"mf": {"features": "8"}}, {"rnn": {"hidden": "16"}}, {"data": {"ratios": 5}},
        {"mf": {"init_range": 3}}, {"traits": 7}, {"mf": {"epochs": True}},
        {"rnn": {"clip_norm": "off"}}, {"threads": 2}, {"mf": {"seed": 3}},
        {"data": {"normalization": "scaled"}}, {"genotype_mode": "imputed"},
        {"rnn": {"batch_mode": "full_batch"}}, {"mf": {"cost_tolerance": 0.5}},
    ], ids=["features_str", "hidden_str", "ratios_int", "init_range_int", "traits_int",
            "epochs_bool", "clip_norm_str", "threads", "mf_seed", "normalization",
            "genotype_mode", "batch_mode", "cost_tolerance"])
    def test_bad_config_value_exits_1_with_one_line(self, tmp_path, capsys, doc):
        data, imputed = _imputed(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = _run("train", "--config", str(cfg), "--geno", str(imputed),
                  "--pheno", str(data / "pheno.csv"), "--epochs", "2",
                  "--out", str(tmp_path / "model"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")

    @pytest.mark.parametrize("command", ["impute", "train", "benchmark"])
    def test_exported_config_reruns_to_equal_exports(self, tmp_path, command):
        # every setting below is off its default, so a config that lost one changes an export
        data = _synth(tmp_path)
        inputs = {"impute": ["--geno", str(data / "geno_holed.csv"),
                             "--truth", str(data / "geno_truth.csv")],
                  "train": ["--geno", str(data / "geno_truth.csv"),
                            "--pheno", str(data / "pheno.csv")],
                  "benchmark": ["--task", "adding", "--length", "12", "--sequences", "6"]}
        flags = {"impute": ["--features", "4", "--alpha", "0.002", "--epochs", "40"],
                 "train": ["--trait", "1", "--cell", "lstm", "--hidden", "5", "--lr", "0.02",
                           "--epochs", "6", "--chunk-width", "7", "--success-tolerance", "0.3"],
                 "benchmark": ["--hidden", "5", "--lr", "0.03", "--epochs", "6"]}
        report = {"impute": "fit_report.json", "train": "train_report.json",
                  "benchmark": "benchmark.json"}[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert _run(command, *inputs[command], *flags[command], "--seed", "9",
                    "--out", str(first)) == 0
        config = json.loads((first / report).read_text(encoding="utf-8"))["config"]
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        assert _run(command, *inputs[command], "--config", str(tmp_path / "cfg.json"),
                    "--out", str(again)) == 0
        assert _hash_dir(again) == _hash_dir(first)

    def test_config_ints_fit_float_keys(self, tmp_path):
        data, imputed = _imputed(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"success_tolerance": 1, "mf": {"init_range": [0, 1]},
                                   "rnn": {"clip_norm": None}, "traits": [1]}))
        out = tmp_path / "model"
        rc = _run("train", "--config", str(cfg), "--geno", str(imputed),
                  "--pheno", str(data / "pheno.csv"), "--epochs", "2", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["config"]["success_tolerance"] == 1 and report["trait"] == 1
        assert report["config"]["rnn"]["clip_norm"] is None

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{не json")
        assert _run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("config", ["not_utf8", "directory"])
    def test_unreadable_config_exits_1_with_one_line(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        if config == "not_utf8":
            path.write_bytes(b'{"seed": "\xff"}')
        else:
            path.mkdir()
        rc = _run("synth", "--config", str(path), "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: ")

    @pytest.mark.parametrize("command, doc, flags, key", [
        ("impute", '{"mf": {"beta": NaN}}', (), "mf.beta"),
        ("impute", '{"mf": {"alpha": Infinity}}', (), "mf.alpha"),
        ("impute", '{"mf": {"init_range": [0, Infinity]}}', (), "mf.init_range"),
        ("impute", '{"mf": {"alpha": 1%s}}' % ("0" * 400), (), "mf.alpha"),
        ("impute", None, ("--beta", "nan"), "mf.beta"),
        ("impute", None, ("--alpha", "inf"), "mf.alpha"),
        ("train", '{"success_tolerance": NaN}', (), "success_tolerance"),
        ("train", '{"rnn": {"clip_norm": Infinity}}', (), "rnn.clip_norm"),
        ("train", '{"data": {"ratios": [NaN, 0.5, 0.5]}}', (), "data.ratios"),
        ("train", None, ("--success-tolerance", "nan"), "success_tolerance"),
        ("train", None, ("--lr", "inf"), "rnn.learning_rate"),
    ], ids=["beta_nan", "alpha_inf", "init_range_inf", "alpha_int_past_float", "beta_flag_nan",
            "alpha_flag_inf", "tolerance_nan", "clip_norm_inf", "ratios_nan",
            "tolerance_flag_nan", "lr_flag_inf"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                 command, doc, flags, key):
        data = _synth(tmp_path)
        argv = [command, *flags, "--epochs", "2", "--out", str(tmp_path / "out")]
        if command == "impute":
            argv += ["--geno", str(data / "geno_holed.csv")]
        else:
            argv += ["--geno", str(data / "geno_truth.csv"), "--pheno", str(data / "pheno.csv")]
        if doc is not None:
            (tmp_path / "cfg.json").write_text(doc)
            argv += ["--config", str(tmp_path / "cfg.json")]

        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the config was checked")

        monkeypatch.setattr("genoseq.cli.parse_genotype_csv", no_read)
        capsys.readouterr()
        assert _run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"genoseq: config key '{key}' must be ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratios", [[0.5, 0.5, 0.5], [1.2, -0.1, -0.1]],
                             ids=["sum_not_1", "non_positive"])
    def test_bad_ratios_fail_before_reading_inputs(self, tmp_path, capsys, monkeypatch, ratios):
        data = _synth(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"data": {"ratios": ratios}}))

        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the config was checked")

        monkeypatch.setattr("genoseq.cli.parse_genotype_csv", no_read)
        capsys.readouterr()
        rc = _run("train", "--config", str(tmp_path / "cfg.json"), "--geno",
                  str(data / "geno_truth.csv"), "--pheno", str(data / "pheno.csv"),
                  "--epochs", "2", "--out", str(tmp_path / "out"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"genoseq: ratios must be three positive numbers summing to 1, "
                       f"got {tuple(ratios)}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [("impute", "mf.features"), ("train", "rnn.hidden"),
                                              ("train", "data.chunk_width"),
                                              ("benchmark", "rnn.hidden")])
    @pytest.mark.parametrize("size", [np.iinfo(np.intp).max + 1, 10 ** 30],
                             ids=["intp_max_plus_1", "1e30"])
    def test_size_too_large_for_any_array_exits_1_with_one_line(self, tmp_path, capsys,
                                                                command, key, size):
        # only sizes past what numpy can index, so that nothing is allocated
        data = _synth(tmp_path)
        section, name = key.split(".")
        (tmp_path / "cfg.json").write_text(json.dumps({section: {name: size}}))
        argv = [command, "--config", str(tmp_path / "cfg.json"), "--epochs", "1",
                "--out", str(tmp_path / "out")]
        if command == "impute":
            argv += ["--geno", str(data / "geno_holed.csv")]
        elif command == "train":
            argv += ["--geno", str(data / "geno_truth.csv"), "--pheno", str(data / "pheno.csv")]
        capsys.readouterr()
        assert _run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: cannot allocate ")

    @pytest.mark.parametrize("argv", [["benchmark", "--task", "deep", "--length"],
                                      ["benchmark", "--task", "lag", "--length"],
                                      ["synth", "--traits"]],
                             ids=["deep_length", "lag_length", "synth_traits"])
    @pytest.mark.parametrize("size", [np.iinfo(np.intp).max + 1, 10 ** 30],
                             ids=["intp_max_plus_1", "1e30"])
    def test_size_flag_too_large_for_any_array_exits_1_with_one_line(self, tmp_path, capsys,
                                                                     argv, size):
        # only sizes past what numpy can index, so that nothing is allocated
        capsys.readouterr()
        assert _run(*argv, str(size), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genoseq: cannot allocate ")

    @pytest.mark.parametrize("what", ["config file", "checkpoint"])
    def test_deeply_nested_json_exits_1_with_one_line(self, tmp_path, capsys, what):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        data = _synth(tmp_path)
        capsys.readouterr()
        if what == "config file":
            rc = _run("synth", "--config", str(deep), "--out", str(tmp_path / "o"))
        else:
            rc = _run("predict", "--checkpoint", str(deep), "--geno", str(data / "geno_truth.csv"),
                      "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"genoseq: {what} is not valid JSON: maximum recursion depth exceeded "
                       "while decoding a JSON array from a unicode string"]
        assert not (tmp_path / "o").exists()

    def test_output_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        rc = _run("synth", "--samples", "5", "--snps", "6", "--rank", "2",
                  "--missing-frac", "0", "--out", str(blocker))
        assert rc == 3


GOOD_CELLS = ["0", "1", "2", "5"]
FUZZ_CELLS = GOOD_CELLS + ["AA", "ab", " BB ", "Null", "", "3", "x", "-1", "0.5", '"1"', "é", "\x00"]


def _csv_bytes(draw, lines):
    """``lines`` joined by a drawn line end, maybe with up to four raw bytes spliced in."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    source = (eol.join(lines) + draw(st.sampled_from(["", eol]))).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.binary(max_size=4)) + source[at:]
    return source


@st.composite
def _genotype_bytes(draw):
    """Genotype CSV bytes: rows of good and bad cells, ragged rows, odd line ends, raw bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    cols = draw(st.integers(1, 6))
    row = (st.lists(st.sampled_from(GOOD_CELLS), min_size=cols, max_size=cols)
           | st.lists(st.sampled_from(FUZZ_CELLS), max_size=7))
    lines = [",".join(f"s{j}" for j in range(cols))] + draw(st.lists(row.map(",".join), max_size=8))
    if draw(st.integers(0, 9)) == 0:  # one cell past the csv module's field size limit
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += draw(st.sampled_from(GOOD_CELLS)) * (csv.field_size_limit() + 1)
    return _csv_bytes(draw, lines)


PHENO_CELLS = ["0.5", "-1.25", "3", "1e-3", "NA", "na", "", " 2.0 "]
FUZZ_PHENO_CELLS = PHENO_CELLS + ["nan", "inf", "-Infinity", "1e400", "1e-400", "1e308",
                                  "-1.7e308", "1_0", "0x1", "abc", '"1"', "1,2", "\u22121",
                                  "\u0661", " ", "\x00", "\u00e9"]


@st.composite
def _phenotype_bytes(draw, samples):
    """Phenotype CSV bytes: named traits over about ``samples`` rows of numbers, gaps and junk."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    traits = draw(st.integers(1, 3))
    names = st.sampled_from(["t0", "t1", "", " height ", "t0", "\u00e9", '"a,b"'])
    header = ",".join(draw(st.lists(names, min_size=traits, max_size=traits)))
    row = (st.lists(st.sampled_from(PHENO_CELLS), min_size=traits, max_size=traits)
           | st.lists(st.sampled_from(FUZZ_PHENO_CELLS), min_size=traits, max_size=traits)
           | st.lists(st.sampled_from(FUZZ_PHENO_CELLS), max_size=4))
    n_rows = draw(st.sampled_from([samples, samples, samples - 1, samples + 1, 0]))
    lines = [header] + draw(st.lists(row.map(",".join), min_size=n_rows, max_size=n_rows))
    return _csv_bytes(draw, lines)


# Integers stay small: an int key such as mf.features sizes arrays, so a large one asks
# for that much memory.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 64) | st.floats()
                 | st.text(max_size=6) | st.sampled_from(["default", "per_entry", "lstm", "nan"]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)
# finite floats at the ends of the range, alone or as a pair such as mf.init_range
_EXTREME_FLOATS = st.sampled_from([1e308, -1e308, 1e-320])
_SECTION_VALUES = (_JSON_VALUES | _EXTREME_FLOATS
                   | st.lists(_EXTREME_FLOATS | st.floats(-1.0, 1.0), min_size=2, max_size=2))
_TOP_NAMES = sorted({key.split(".")[0] for key in CONFIG_KEYS})
_SECTION_NAMES = sorted({key.split(".", 1)[1] for key in CONFIG_KEYS if "." in key})


def _json_text(draw, doc):
    """``doc`` as JSON text (NaN and Infinity as Python writes them), maybe cut short or nested."""
    text = json.dumps(doc)
    shape = draw(st.sampled_from(["whole", "whole", "truncated", "nested"]))
    if shape == "truncated":
        return text[:draw(st.integers(0, len(text)))]
    if shape == "nested":
        depth = draw(st.integers(1, 3000))
        return "[" * depth + text + "]" * draw(st.sampled_from([0, depth]))
    return text


@st.composite
def _config_text(draw):
    """A config document: known and unknown keys and sections holding values of any JSON type."""
    name = st.sampled_from(_TOP_NAMES) | st.text(max_size=5)
    section = st.dictionaries(st.sampled_from(_SECTION_NAMES) | st.text(max_size=5),
                              _SECTION_VALUES, max_size=3)
    doc = draw(st.dictionaries(name, section | _JSON_VALUES, max_size=4) | _JSON_VALUES)
    return _json_text(draw, doc)


_CHECKPOINT_PATHS = (st.sampled_from(["version", "cell", "n_in", "n_hidden", "n_out", "snps",
                                      "tensors", "extra"]).map(lambda key: (key,))
                     | st.tuples(st.sampled_from(["w_ih", "w_hh", "w_ho", "b_h", "b_o"]),
                                 st.sampled_from([(), ("shape",), ("shape", 0), ("data",),
                                                  ("data", 0)]))
                     .map(lambda edit: ("tensors", edit[0], *edit[1])))


@st.composite
def _checkpoint_text(draw, valid):
    """A valid checkpoint document with up to three entries deleted or replaced by any JSON value."""
    doc = json.loads(valid)
    value = _JSON_VALUES | st.integers() | st.sampled_from(["nan", "-inf", "1e400", 10 ** 400])
    for path, delete, new in draw(st.lists(st.tuples(_CHECKPOINT_PATHS, st.booleans(), value),
                                           max_size=3)):
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if delete:
                del node[path[-1]]
            else:
                node[path[-1]] = new
        except (KeyError, IndexError, TypeError):  # an earlier edit removed or replaced the parent
            pass
    return _json_text(draw, doc)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Holed and complete 6x16 genotype files, and the text of a checkpoint made for 16 SNPs."""
    root = tmp_path_factory.mktemp("fuzz")
    holed, truth = synth_lowrank_genotypes(6, 16, rank=2, missing_frac=0.1, seed=3)
    genotype_to_csv(holed, root / "holed.csv")
    genotype_to_csv(truth, root / "truth.csv")
    save_checkpoint(replace(rnn_init("simple_tanh", 8, 3, 1, seed=4), snps=16), root / "ckpt.json")
    return root / "holed.csv", root / "truth.csv", (root / "ckpt.json").read_text()


def _run_by_the_contract(argv, out):
    """``main(argv)``'s exit code, once its stderr and ``out`` keep the exit-code contract.

    On a nonzero exit stderr is one ``genoseq: `` line, exit 2 comes only with a
    divergence line, and a run that exits 1 or 2 leaves no file in ``out``.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):  # hypothesis rejects the function-scoped capsys
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2, 3)
    if rc != 0:
        assert len(lines) == 1 and lines[0].startswith("genoseq: "), lines
    assert (rc == 2) == (rc != 0 and lines[0].startswith("genoseq: divergence: ")), lines
    if rc in (1, 2):
        assert list(out.glob("*")) == []
    return rc


class TestFuzz:
    @given(_genotype_bytes())
    @settings(max_examples=150, deadline=None)
    def test_impute_on_any_genotype_bytes_exits_with_a_documented_code(self, source):
        with tempfile.TemporaryDirectory() as tmp:
            geno, out = Path(tmp) / "geno.csv", Path(tmp) / "out"
            geno.write_bytes(source)
            _run_by_the_contract(["impute", "--geno", str(geno), "--out", str(out),
                                  "--epochs", "1"], out)

    @given(_phenotype_bytes(6))
    @settings(max_examples=100, deadline=None)
    def test_train_on_any_phenotype_bytes_exits_with_a_documented_code(self, fuzz_inputs, source):
        with tempfile.TemporaryDirectory() as tmp:
            pheno, out = Path(tmp) / "pheno.csv", Path(tmp) / "out"
            pheno.write_bytes(source)
            _run_by_the_contract(["train", "--geno", str(fuzz_inputs[1]), "--pheno", str(pheno),
                                  "--out", str(out), "--epochs", "1"], out)

    @given(_config_text())
    @settings(max_examples=120, deadline=None)
    def test_impute_on_any_config_exits_with_a_documented_code(self, fuzz_inputs, text):
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            config.write_text(text)
            _run_by_the_contract(["impute", "--config", str(config), "--geno", str(fuzz_inputs[0]),
                                  "--out", str(out), "--epochs", "1"], out)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_predict_on_any_checkpoint_exits_with_a_documented_code(self, fuzz_inputs, data):
        _, geno, valid = fuzz_inputs
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint, out = Path(tmp) / "ckpt.json", Path(tmp) / "out"
            checkpoint.write_text(data.draw(_checkpoint_text(valid)))
            _run_by_the_contract(["predict", "--checkpoint", str(checkpoint), "--geno", str(geno),
                                  "--out", str(out)], out)
