import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoseq import rnn
from genoseq.cli import main

from genoseq.data import (DataSettings, PhenotypeTable, SequenceBatch, genotype_to_csv,
                          phenotype_to_csv, synth_lowrank_genotypes, synth_phenotypes)
from genoseq.errors import ConfigError, DataError, DivergenceError
from genoseq.mf import MF_MODES, MfConfig
from genoseq.pipeline import (CONFIG_KEYS, FILE_KEYS, PipelineConfig, RnnSettings,
                              compare_on_batch, evaluate_split, export_report, flatten_config,
                              resolve_config, run_pipeline, train_trait)
from genoseq.rnn import RnnParams
from genoseq.tasks import deep_recall_task


def _write_dataset(tmp_path, samples=50, snps=60, rank=4, missing=0.05, seed=5,
                   traits=2, noise=0.3, trait_missing=0):
    holed, truth = synth_lowrank_genotypes(samples, snps, rank, missing, seed)
    phenos = synth_phenotypes(truth, traits=traits, seed=seed + 100, noise=noise,
                              missing_per_trait=trait_missing)
    geno_path = tmp_path / "geno.csv"
    pheno_path = tmp_path / "pheno.csv"
    truth_path = tmp_path / "truth.csv"
    genotype_to_csv(holed, geno_path)
    phenotype_to_csv(phenos, pheno_path)
    genotype_to_csv(truth, truth_path)
    return geno_path, pheno_path, truth_path


def _small_config(seed=11, traits=(0,), cell="relu_identity", rnn_epochs=40):
    return PipelineConfig(
        mf=MfConfig(features=6, alpha=0.002, beta=0.02, epochs=200),
        rnn=RnnSettings(cell=cell, hidden=12, learning_rate=0.05, epochs=rnn_epochs),
        data=DataSettings(chunk_width=8), seed=seed, traits=traits)


def _constant_net(value, n_in=2, hidden=3):
    return RnnParams("simple_tanh", n_in, hidden, 1, np.zeros((hidden, n_in)),
                     np.zeros((hidden, hidden)), np.zeros((1, hidden)),
                     np.zeros(hidden), np.array([value]))


class TestEvaluateSplit:
    def test_perfect_predictions(self):
        batch = deep_recall_task(6, 20, seed=1)
        batch.targets[:] = 0.7  # a constant net predicts these exactly
        m = evaluate_split(_constant_net(0.7, n_in=1), batch, 0.1, target_range=1.0)
        assert m.correlation is None  # constant actuals
        assert m.mse == 0.0
        assert m.success_pct == 100.0

    def test_constant_predictor_keeps_other_metrics(self):
        batch = deep_recall_task(8, 20, seed=2)
        mean = float(batch.targets.mean())
        m = evaluate_split(_constant_net(mean, n_in=1), batch, 10.0,
                           float(batch.targets.max() - batch.targets.min()))
        assert m.correlation is None
        assert m.mse == pytest.approx(float(batch.targets.var()))
        assert m.success_pct == 100.0  # generous tolerance band

    def test_zero_tolerance_counts_exact_matches_only(self):
        batch = deep_recall_task(6, 20, seed=3)
        m = evaluate_split(_constant_net(0.0, n_in=1), batch, 0.0, target_range=1.0)
        exact = float(np.mean(np.abs(batch.targets[:, 0]) <= 0.0)) * 100
        assert m.success_pct == exact

    def test_band_uses_training_range(self):
        batch = deep_recall_task(6, 20, seed=4)
        batch.targets[:] = np.linspace(0.0, 1.0, 6)[:, None]
        model = _constant_net(0.5, n_in=1)
        wide = evaluate_split(model, batch, 0.5, target_range=10.0)   # band 5.0
        narrow = evaluate_split(model, batch, 0.5, target_range=0.1)  # band 0.05
        assert wide.success_pct == 100.0
        assert narrow.success_pct < 100.0

    def test_empty_batch_is_a_data_error(self):
        batch = deep_recall_task(4, 20, seed=5).subset_by_samples([])
        with pytest.raises(DataError, match="empty batch"):
            evaluate_split(_constant_net(0.0, n_in=1), batch, 0.1, target_range=1.0)


class TestRunPipeline:
    def test_smoke_fills_every_field(self, tmp_path, caplog):
        geno, pheno, truth = _write_dataset(tmp_path)
        with caplog.at_level(logging.INFO, logger="genoseq.pipeline"):
            report = run_pipeline(geno, pheno, _small_config(), truth_path=truth)
        assert report.mf_curve is not None and len(report.mf_curve) == 200
        missing_pct, full_pct = report.mf_accuracy
        assert 0 <= missing_pct <= 100 and 0 <= full_pct <= 100
        assert set(report.split_sizes) == {"train", "validation", "test"}
        (result,) = report.trait_results
        assert result.error is None
        assert len(result.curve) == 40
        assert set(result.metrics) == {"train", "validation", "test"}
        for m in result.metrics.values():
            assert np.isfinite(m.mse)
        stages = [re.fullmatch(r"stage (\w+) took \d+\.\d{3} s", r.getMessage())
                  for r in caplog.records if r.levelno == logging.INFO]
        assert [m and m[1] for m in stages] == ["parse", "impute", "train"]
        assert report.to_json_dict()["seeds"]["master"] == 11

    def test_non_finite_split_loss_marks_the_trait_failed(self, tmp_path, monkeypatch):
        geno, pheno, _ = _write_dataset(tmp_path)
        monkeypatch.setattr(rnn, "predict", lambda params, inputs: np.full((len(inputs), 1), 1e200))
        export_report(run_pipeline(geno, pheno, _small_config(rnn_epochs=2)), tmp_path / "out")
        (trait,) = json.loads((tmp_path / "out" / "report.json").read_text())["traits"]
        assert trait["status"] == "failed"
        assert trait["error"] == "train split loss became non-finite"
        assert trait["metrics"] == {} and len(trait["curve"]) == 2
        metrics_csv = (tmp_path / "out" / "metrics.csv").read_text()
        assert metrics_csv == "trait,split,correlation,mse,success_pct\n"

    def test_two_traits_two_models(self, tmp_path):
        geno, pheno, truth = _write_dataset(tmp_path, trait_missing=3)
        report = run_pipeline(geno, pheno, _small_config(traits=(0, 1)))
        assert [t.trait for t in report.trait_results] == [0, 1]
        for result in report.trait_results:
            assert set(result.metrics) == {"train", "validation", "test"}
            # three missing trait values per trait were excluded
            assert sum(result.n_samples.values()) == 47

    def test_rerun_is_bit_identical(self, tmp_path):
        geno, pheno, truth = _write_dataset(tmp_path)
        a = run_pipeline(geno, pheno, _small_config(), truth_path=truth)
        b = run_pipeline(geno, pheno, _small_config(), truth_path=truth)
        da, db = a.to_json_dict(), b.to_json_dict()
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_split_hygiene(self, tmp_path):
        from genoseq.data import build_sequences, parse_genotype_csv, parse_phenotype_csv
        from genoseq.linalg import derive_seed
        from genoseq.mf import impute, mf_fit

        geno, pheno, _ = _write_dataset(tmp_path)
        cfg = _small_config()
        g = parse_genotype_csv(geno)
        p = parse_phenotype_csv(pheno)
        factors, _ = mf_fit(g, cfg.mf, seed=derive_seed(cfg.seed, "mf"))
        filled = impute(g, factors)
        split = cfg.data.split(filled.samples, derive_seed(cfg.seed, "split"))
        batch = build_sequences(filled, p, 0, cfg.data.chunk_width)
        train_batch = batch.subset_by_samples(split["train"])
        test_set = set(split["test"].tolist())
        assert not (set(train_batch.sample_indices.tolist()) & test_set)

    def test_reported_seeds_reproduce_the_fit_split_and_initial_models(self, tmp_path,
                                                                        monkeypatch):
        from genoseq import pipeline, rnn
        from genoseq.data import parse_genotype_csv
        from genoseq.mf import mf_fit

        splits, inits = [], []
        train_trait, train = pipeline.train_trait, rnn.train
        monkeypatch.setattr(pipeline, "train_trait",
                            lambda batch, split, *rest: splits.append(split)
                            or train_trait(batch, split, *rest))
        monkeypatch.setattr(rnn, "train",
                            lambda params, *rest: inits.append(params) or train(params, *rest))
        geno, pheno, _ = _write_dataset(tmp_path)
        cfg = _small_config(traits=(0, 1), rnn_epochs=2)
        report = run_pipeline(geno, pheno, cfg)
        seeds = report.to_json_dict()["seeds"]

        assert list(seeds) == ["master", "split", "mf", "rnn/trait0", "rnn/trait1"]
        _, curve = mf_fit(parse_genotype_csv(geno), cfg.mf, seed=seeds["mf"])
        assert curve.to_rows() == report.mf_curve.to_rows()
        split = cfg.data.split(50, seeds["split"])
        assert len(splits) == 2
        for used in splits:
            assert list(used) == list(split)
            for part, idx in split.items():
                assert used[part].tolist() == idx.tolist()
        assert len(inits) == 2
        for trait, used in zip(cfg.traits, inits):
            fresh = rnn.rnn_init(cfg.rnn.cell, cfg.data.chunk_width, cfg.rnn.hidden, 1,
                                 seeds[f"rnn/trait{trait}"])
            for name, value in fresh.tensors().items():
                assert used.tensors()[name].tobytes() == value.tobytes(), (trait, name)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        geno, _, _ = _write_dataset(tmp_path)
        other = tmp_path / "other_pheno.csv"
        other.write_text("t1\n1.0\n2.0\n")
        with pytest.raises(DataError):
            run_pipeline(geno, other, _small_config())

    def test_trait_out_of_range_rejected(self, tmp_path):
        geno, pheno, _ = _write_dataset(tmp_path)
        with pytest.raises(ConfigError):
            run_pipeline(geno, pheno, _small_config(traits=(7,)))

    def test_train_mse_usually_below_test_mse(self, tmp_path):
        wins = 0
        for rep in range(10):
            seed = 3000 + rep
            holed, truth = synth_lowrank_genotypes(50, 60, 4, 0.05, seed)
            phenos = synth_phenotypes(truth, traits=1, seed=seed + 50, noise=0.5)
            geno_path = tmp_path / f"g{rep}.csv"
            pheno_path = tmp_path / f"p{rep}.csv"
            genotype_to_csv(holed, geno_path)
            phenotype_to_csv(phenos, pheno_path)
            cfg = PipelineConfig(
                mf=MfConfig(features=6, alpha=0.002, beta=0.02, epochs=300),
                rnn=RnnSettings(cell="relu_identity", hidden=32,
                                learning_rate=0.05, epochs=800),
                data=DataSettings(chunk_width=8), seed=seed, traits=(0,))
            report = run_pipeline(geno_path, pheno_path, cfg)
            m = report.trait_results[0].metrics
            wins += m["train"].mse <= m["test"].mse
        assert wins >= 8

    def test_train_command_matches_observed_pipeline(self, tmp_path):
        # one training path: the CLI and the pipeline must not fork again. On a
        # hole-free file imputation keeps every code, so both train on the same rows
        _, pheno, truth = _write_dataset(tmp_path, trait_missing=3)
        rc = main(["train", "--geno", str(truth), "--pheno", str(pheno), "--trait", "1",
                   "--cell", "lstm", "--hidden", "6", "--epochs", "15", "--chunk-width", "8",
                   "--seed", "5", "--out", str(tmp_path / "model")])
        assert rc == 0
        cli_metrics = json.loads((tmp_path / "model" / "train_report.json").read_text())["metrics"]
        cfg = PipelineConfig(mf=MfConfig(features=2, epochs=3),
                             rnn=RnnSettings(cell="lstm", hidden=6, epochs=15),
                             data=DataSettings(chunk_width=8), seed=5, traits=(1,))
        (result,) = run_pipeline(truth, pheno, cfg).trait_results
        assert set(cli_metrics) == set(result.metrics) == {"train", "validation", "test"}
        for split, m in result.metrics.items():
            assert cli_metrics[split] == {**m._asdict(), "n": result.n_samples[split]}

    def test_failed_traits_are_reported_and_exported(self, tmp_path):
        # acceptance 6's data plus a third trait that no sample has; the
        # learning rate makes both observed traits diverge mid-training
        holed, truth = synth_lowrank_genotypes(40, 48, rank=3, missing_frac=0.08, seed=17)
        phenos = synth_phenotypes(truth, traits=2, seed=18, noise=0.3, missing_per_trait=2)
        phenos = PhenotypeTable(np.column_stack([phenos.values, np.full(40, np.nan)]))
        geno_path, pheno_path = tmp_path / "g.csv", tmp_path / "p.csv"
        genotype_to_csv(holed, geno_path)
        phenotype_to_csv(phenos, pheno_path)
        cfg = PipelineConfig(mf=MfConfig(features=4, alpha=0.002, beta=0.02, epochs=150),
                             rnn=RnnSettings(cell="lstm", hidden=10, learning_rate=1e12,
                                             epochs=25),
                             data=DataSettings(chunk_width=6), seed=23, traits=(0, 1, 2))
        report = run_pipeline(geno_path, pheno_path, cfg)
        manifest = export_report(report, tmp_path / "out")
        assert [f["name"] for f in manifest["files"]] == [
            "metrics.csv", "mf_cost.csv", "report.json", "trait0_curve.csv", "trait1_curve.csv"]
        traits = json.loads((tmp_path / "out" / "report.json").read_text())["traits"]
        assert [t["trait"] for t in traits] == [0, 1, 2]
        for t in traits[:2]:
            assert t["status"] == "failed"
            assert t["error"] == "training loss became non-finite (epoch 11)"
            assert [r["epoch"] for r in t["curve"]] == list(range(11))
            assert t["metrics"] == {}
        assert traits[2]["status"] == "failed"
        assert traits[2]["error"] == "no training samples with an observed trait value"
        assert "curve" not in traits[2] and traits[2]["metrics"] == {}
        metrics_csv = (tmp_path / "out" / "metrics.csv").read_text()
        assert metrics_csv == "trait,split,correlation,mse,success_pct\n"


class TestTrainTrait:
    SPLIT = {"train": np.arange(6), "validation": np.arange(6, 7), "test": np.arange(7, 8)}

    def test_divergence_is_returned_without_the_training_frames(self):
        cfg = PipelineConfig(rnn=RnnSettings(cell="lstm", hidden=6, learning_rate=1e8,
                                             epochs=30), data=DataSettings(chunk_width=1))
        model, result = train_trait(deep_recall_task(8, 30, seed=9), self.SPLIT, cfg, 0)
        assert model is None and isinstance(result.error, DivergenceError)
        assert result.curve is result.error.curve
        assert str(result.error).endswith(f"(epoch {len(result.curve)})")
        # a stored error must not keep the failed training's workspaces alive
        assert result.error.__traceback__ is None and result.error.__context__ is None

    def test_non_finite_split_loss_is_a_divergence(self, monkeypatch):
        # relu_identity with a 1e150 readout trains on [[1], [0]], but [[1e5], [0]] overflows
        model = RnnParams("relu_identity", 1, 1, 1, np.ones((1, 1)), np.ones((1, 1)),
                          np.full((1, 1), 1e150), np.zeros(1), np.zeros(1))
        monkeypatch.setattr(rnn, "rnn_init", lambda *args: model)
        x = np.zeros((8, 2, 1))
        x[:, 0, 0] = 1.0
        x[7, 0, 0] = 1e5  # the test sample
        batch = SequenceBatch(x, np.zeros((8, 1)))
        cfg = PipelineConfig(rnn=RnnSettings(learning_rate=1e-3, epochs=2))
        trained, result = train_trait(batch, self.SPLIT, cfg, 0)
        assert trained is None and result.metrics == {} and len(result.curve) == 2
        assert isinstance(result.error, DivergenceError)
        assert str(result.error) == "test split loss became non-finite"

    def test_no_training_sample_is_a_data_error(self):
        split = {"train": np.arange(0), "validation": np.arange(0, 4), "test": np.arange(4, 8)}
        model, result = train_trait(deep_recall_task(8, 30, seed=9), split,
                                    PipelineConfig(data=DataSettings(chunk_width=1)), 0)
        assert model is None and result.curve is None
        assert isinstance(result.error, DataError)
        assert str(result.error) == "no training samples with an observed trait value"

    def test_model_width_comes_from_the_batch(self):
        cfg = PipelineConfig(rnn=RnnSettings(hidden=3, epochs=2))  # data.chunk_width stays 20
        model, result = train_trait(deep_recall_task(8, 30, seed=9), self.SPLIT, cfg, 0)
        assert result.error is None and (model.n_in, model.n_hidden) == (1, 3)


class TestCompareCells:
    def test_needs_two_cells(self):
        batch = deep_recall_task(4, 10, seed=5)
        with pytest.raises(ConfigError):
            compare_on_batch(batch, ["lstm"], RnnSettings(), seed=2)

    def test_needs_one_epoch(self):
        batch = deep_recall_task(4, 10, seed=5)
        with pytest.raises(ConfigError, match="at least one epoch"):
            compare_on_batch(batch, ["lstm", "relu_identity"], RnnSettings(epochs=0), seed=2)

    def test_models_take_the_settings_width(self, monkeypatch):
        widths, init = [], rnn.rnn_init

        def recording(cell, n_in, n_hidden, *rest):
            widths.append((cell, n_in, n_hidden))
            return init(cell, n_in, n_hidden, *rest)

        monkeypatch.setattr(rnn, "rnn_init", recording)
        batch = deep_recall_task(4, 10, seed=5)
        compare_on_batch(batch, ["simple_tanh", "lstm"], RnnSettings(hidden=5, epochs=1), seed=2)
        assert widths == [("simple_tanh", 1, 5), ("lstm", 1, 5)]

    def test_three_cells_hundred_epochs_aligned(self):
        batch = deep_recall_task(6, 10, seed=5)
        settings = RnnSettings(hidden=4, learning_rate=0.01, epochs=100)
        cmp = compare_on_batch(batch, ["simple_tanh", "lstm", "relu_identity"], settings, seed=2)
        assert len(cmp.curves) == 3
        assert all(len(curve) == 100 for curve in cmp.curves.values())

    def test_diverging_cell_is_isolated(self):
        batch = deep_recall_task(8, 30, seed=9)
        settings = RnnSettings(hidden=6, learning_rate=1e8, epochs=30)
        cmp = compare_on_batch(batch, ["simple_tanh", "lstm"], settings, seed=4)
        assert "lstm" in cmp.diverged
        assert cmp.final_losses["lstm"] == float("inf")
        assert len(cmp.curves["simple_tanh"]) == 30  # unaffected by the other cell
        assert len(cmp.curves["lstm"]) < 30
        assert cmp.ordering[-1] == "lstm"


class TestExportReport:
    def _report(self, tmp_path):
        geno, pheno, truth = _write_dataset(tmp_path)
        return run_pipeline(geno, pheno, _small_config(), truth_path=truth)

    def test_writes_the_one_layout(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        manifest = export_report(report, out)
        assert [f["name"] for f in manifest["files"]] == [
            "metrics.csv", "mf_cost.csv", "report.json", "trait0_curve.csv"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "metrics.csv", "mf_cost.csv", "report.json", "trait0_curve.csv"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["version"] == "genoseq-report-v3"
        assert "mf" in doc and "traits" in doc
        assert "excluded_samples" not in doc
        assert doc["traits"][0]["status"] == "ok" and "error" not in doc["traits"][0]
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "trait,split,correlation,mse,success_pct"

    def test_report_config_resolves_to_the_run_config(self, tmp_path):
        report = self._report(tmp_path)
        export_report(report, tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert resolve_config(flatten_config(doc["config"])) == _small_config()

    def test_reexport_hashes_identical(self, tmp_path):
        report = self._report(tmp_path)
        m1 = export_report(report, tmp_path / "a")
        m2 = export_report(report, tmp_path / "b")
        assert m1 == m2


_POSITIVE = st.floats(1e-9, 1e3)
_KEY_VALUES = {  # a valid value of every config key but the FILE_KEYS
    "mf.features": st.integers(1, 10**4), "mf.alpha": _POSITIVE, "mf.beta": st.floats(0.0, 1e3),
    "mf.epochs": st.integers(0, 10**6),
    "mf.init_range": st.tuples(st.floats(-1e3, 0.0), st.floats(1e-3, 1e3)),
    "mf.mode": st.sampled_from(MF_MODES),
    "rnn.cell": st.sampled_from(rnn.CELLS), "rnn.hidden": st.integers(1, 10**3),
    "rnn.learning_rate": _POSITIVE, "rnn.epochs": st.integers(0, 10**6),
    "rnn.clip_norm": st.none() | st.just("default") | _POSITIVE,
    "data.chunk_width": st.integers(1, 10**3),
    "data.ratios": st.tuples(st.floats(0.01, 0.49), st.floats(0.01, 0.49)).map(
        lambda r: (*r, 1.0 - r[0] - r[1])),
    "seed": st.integers(-2**63, 2**64), "traits": st.lists(st.integers(0, 99), min_size=1,
                                                           max_size=4, unique=True).map(tuple),
    "success_tolerance": st.floats(0.0, 1e3),
}


@st.composite
def _configs(draw):
    """A PipelineConfig with a drawn value for every config key."""
    sections = {"": {}, "mf": {}, "rnn": {}, "data": {}}
    for key, value in draw(st.fixed_dictionaries(_KEY_VALUES)).items():
        section, _, name = key.rpartition(".")
        sections[section][name] = value
    return PipelineConfig(mf=MfConfig(**sections["mf"]), rnn=RnnSettings(**sections["rnn"]),
                          data=DataSettings(**sections["data"]), **sections[""])


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DataSettings(chunk_width=0)
        with pytest.raises(ConfigError):
            DataSettings(ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            PipelineConfig(traits=())
        with pytest.raises(ConfigError, match="more than once"):
            PipelineConfig(traits=(0, 1, 0))
        with pytest.raises(ConfigError):
            PipelineConfig(success_tolerance=-1.0)

    def test_to_config_writes_the_config_file_layout(self):
        doc = json.loads(json.dumps(_small_config().to_config()))
        assert set(flatten_config(doc)) == set(CONFIG_KEYS) - set(FILE_KEYS)
        assert doc["mf"]["features"] == 6
        assert doc["rnn"]["cell"] == "relu_identity"
        assert doc["data"] == {"chunk_width": 8, "ratios": [0.8, 0.1, 0.1]}
        assert doc["traits"] == [0] and doc["seed"] == 11

    def test_key_strategies_name_every_config_key(self):
        assert set(_KEY_VALUES) == set(CONFIG_KEYS) - set(FILE_KEYS)

    @given(_configs())
    @settings(max_examples=200, deadline=None)
    def test_every_config_round_trips_through_its_json_file(self, cfg):
        flat = flatten_config(json.loads(json.dumps(cfg.to_config())))
        assert set(flat) == set(CONFIG_KEYS) - set(FILE_KEYS)
        assert resolve_config(flat) == cfg

    def test_readme_config_block_resolves(self):
        # every key the README documents must still be a config key of its type
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        cfg = resolve_config(flatten_config(json.loads(block)))
        assert cfg.seed == 42 and cfg.traits == (0, 1) and cfg.mf.features == 8
