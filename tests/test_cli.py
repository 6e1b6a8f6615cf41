import hashlib
import json

import numpy as np
import pytest

from genoseq.cli import main
from genoseq.data import parse_genotype_csv, parse_phenotype_csv
from genoseq.rnn import load_checkpoint, predict


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
        assert not out.exists() or not any(out.iterdir())


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

    def test_holed_genotype_rejected(self, tmp_path):
        data = _synth(tmp_path)
        rc = _run("train", "--geno", str(data / "geno_holed.csv"),
                  "--pheno", str(data / "pheno.csv"), "--epochs", "5")
        assert rc == 1


def _with_nan_w_ho(doc):
    doc["tensors"]["w_ho"]["data"][0] = "nan"
    return json.dumps(doc)


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
    ], ids=["not_json", "no_tensors", "no_w_hh", "nan_w_ho"])
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
        assert all("max_rel_err" in line for line in lines)

    def test_cells_flag_restricts_scope(self, capsys):
        rc = _run("gradcheck", "--trials", "3", "--cells", "lstm", "--seed", "1")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lstm")

    def test_zero_trials_exits_1(self):
        assert _run("gradcheck", "--trials", "0") == 1

    def test_unknown_scope_exits_1(self):
        assert _run("gradcheck", "--trials", "2", "--cells", "gru") == 1


class TestSharedBehavior:
    @pytest.mark.parametrize("cmd", ["impute", "train", "predict", "benchmark",
                                     "synth", "gradcheck"])
    def test_help_exits_0(self, cmd, capsys):
        assert _run(cmd, "--help") == 0
        assert "--seed" in capsys.readouterr().out

    def test_invalid_flag_exits_1(self):
        assert _run("synth", "--bogus") == 1

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
        assert report["config"]["features"] == 3   # from config
        assert report["config"]["epochs"] == 40    # flag wins
        assert len(report["curve"]) == 40

    @pytest.mark.parametrize("doc", [
        {"mf": {"features": "8"}}, {"rnn": {"hidden": "16"}}, {"data": {"ratios": 5}},
        {"mf": {"init_range": 3}}, {"traits": 7}, {"mf": {"epochs": True}},
        {"rnn": {"clip_norm": "off"}}, {"threads": 2}, {"mf": {"seed": 3}},
    ], ids=["features_str", "hidden_str", "ratios_int", "init_range_int", "traits_int",
            "epochs_bool", "clip_norm_str", "threads", "mf_seed"])
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

    def test_output_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        rc = _run("synth", "--samples", "5", "--snps", "6", "--rank", "2",
                  "--missing-frac", "0", "--out", str(blocker))
        assert rc == 3
