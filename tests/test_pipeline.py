import json
from dataclasses import replace

import numpy as np
import pytest

from genoseq.cli import main

from genoseq.data import (genotype_to_csv, phenotype_to_csv, synth_lowrank_genotypes,
                          synth_phenotypes)
from genoseq.errors import ConfigError, DataError
from genoseq.mf import MfConfig
from genoseq.pipeline import (PipelineConfig, RnnSettings, compare_on_batch,
                              evaluate_split, export_report, run_pipeline)
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
        chunk_width=8, seed=seed, traits=traits)


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
        m = evaluate_split(_constant_net(mean, n_in=1), batch, 10.0)
        assert m.correlation is None
        assert m.mse == pytest.approx(float(batch.targets.var()))
        assert m.success_pct == 100.0  # generous tolerance band

    def test_zero_tolerance_counts_exact_matches_only(self):
        batch = deep_recall_task(6, 20, seed=3)
        m = evaluate_split(_constant_net(0.0, n_in=1), batch, 0.0)
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


class TestRunPipeline:
    def test_smoke_fills_every_field(self, tmp_path):
        geno, pheno, truth = _write_dataset(tmp_path)
        report = run_pipeline(geno, pheno, _small_config(), truth_path=truth)
        assert report.mf_curve is not None and len(report.mf_curve) == 200
        missing_pct, full_pct = report.mf_accuracy
        assert 0 <= missing_pct <= 100 and 0 <= full_pct <= 100
        assert set(report.split_sizes) == {"train", "validation", "test"}
        (result,) = report.trait_results
        assert result.status == "ok"
        assert len(result.curve) == 40
        assert set(result.metrics) == {"train", "validation", "test"}
        for m in result.metrics.values():
            assert np.isfinite(m.mse)
        assert set(report.stage_seconds) >= {"parse", "impute", "train"}
        assert report.seeds["master"] == 11

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
        from genoseq.data import build_sequences, parse_genotype_csv, parse_phenotype_csv, split_dataset
        from genoseq.linalg import derive_seed
        from genoseq.mf import impute, mf_fit

        geno, pheno, _ = _write_dataset(tmp_path)
        cfg = _small_config()
        g = parse_genotype_csv(geno)
        p = parse_phenotype_csv(pheno)
        factors, _ = mf_fit(g, replace(cfg.mf, seed=derive_seed(cfg.seed, "mf")))
        filled = impute(g, factors)
        split = split_dataset(filled.samples, cfg.ratios, derive_seed(cfg.seed, "split"))
        batch = build_sequences(filled, p, 0, cfg.chunk_width, cfg.normalization)
        train_batch = batch.subset_by_samples(split.train)
        test_set = set(split.test.tolist())
        assert not (set(train_batch.sample_indices.tolist()) & test_set)

    def test_observed_mode_skips_imputation(self, tmp_path):
        geno, pheno, _ = _write_dataset(tmp_path)
        cfg = PipelineConfig(mf=MfConfig(features=4, epochs=50),
                             rnn=RnnSettings(epochs=10),
                             chunk_width=8, seed=3, traits=(0,),
                             genotype_mode="observed")
        report = run_pipeline(geno, pheno, cfg)
        assert report.mf_curve is None
        assert len(report.excluded_samples) > 0  # holed rows dropped
        (result,) = report.trait_results
        assert result.status == "ok"

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
                chunk_width=8, seed=seed, traits=(0,))
            report = run_pipeline(geno_path, pheno_path, cfg)
            m = report.trait_results[0].metrics
            wins += m["train"].mse <= m["test"].mse
        assert wins >= 8

    def test_train_command_matches_observed_pipeline(self, tmp_path):
        # one training path: the CLI and the pipeline must not fork again
        _, pheno, truth = _write_dataset(tmp_path, trait_missing=3)
        rc = main(["train", "--geno", str(truth), "--pheno", str(pheno), "--trait", "1",
                   "--cell", "lstm", "--hidden", "6", "--epochs", "15", "--chunk-width", "8",
                   "--seed", "5", "--out", str(tmp_path / "model")])
        assert rc == 0
        cli_metrics = json.loads((tmp_path / "model" / "train_report.json").read_text())["metrics"]
        cfg = PipelineConfig(rnn=RnnSettings(cell="lstm", hidden=6, epochs=15), chunk_width=8,
                             seed=5, traits=(1,), genotype_mode="observed")
        (result,) = run_pipeline(truth, pheno, cfg).trait_results
        assert set(cli_metrics) == set(result.metrics) == {"train", "validation", "test"}
        for split, m in result.metrics.items():
            assert cli_metrics[split] == {**m._asdict(), "n": result.n_samples[split]}


class TestCompareCells:
    def test_needs_two_cells(self):
        batch = deep_recall_task(4, 10, seed=5)
        with pytest.raises(ConfigError):
            compare_on_batch(batch, ["lstm"], 4, RnnSettings(), seed=2)

    def test_three_cells_hundred_epochs_aligned(self):
        batch = deep_recall_task(6, 10, seed=5)
        settings = RnnSettings(hidden=4, learning_rate=0.01, epochs=100)
        cmp = compare_on_batch(batch, ["simple_tanh", "lstm", "relu_identity"],
                               4, settings, seed=2)
        assert len(cmp.curves) == 3
        assert all(len(curve) == 100 for curve in cmp.curves.values())

    def test_diverging_cell_is_isolated(self):
        batch = deep_recall_task(8, 30, seed=9)
        settings = RnnSettings(hidden=6, learning_rate=1e8, epochs=30)
        cmp = compare_on_batch(batch, ["simple_tanh", "lstm"], 6, settings, seed=4)
        assert "lstm" in cmp.diverged
        assert cmp.final_losses["lstm"] == float("inf")
        assert len(cmp.curves["simple_tanh"]) == 30  # unaffected by the other cell
        assert len(cmp.curves["lstm"]) < 30
        assert cmp.ordering[-1] == "lstm"


class TestExportReport:
    def _report(self, tmp_path):
        geno, pheno, truth = _write_dataset(tmp_path)
        return run_pipeline(geno, pheno, _small_config(), truth_path=truth)

    def test_json_only(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        manifest = export_report(report, out, formats=("json",))
        assert [f["name"] for f in manifest["files"]] == ["report.json"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["version"] == "genoseq-report-v1"
        assert "mf" in doc and "traits" in doc

    def test_csv_files_written(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        manifest = export_report(report, out, formats=("json", "csv"))
        names = {f["name"] for f in manifest["files"]}
        assert {"report.json", "mf_cost.csv", "trait0_curve.csv", "metrics.csv"} <= names
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "trait,split,correlation,mse,success_pct"

    def test_reexport_hashes_identical(self, tmp_path):
        report = self._report(tmp_path)
        m1 = export_report(report, tmp_path / "a", formats=("json", "csv"))
        m2 = export_report(report, tmp_path / "b", formats=("json", "csv"))
        assert m1 == m2

    def test_empty_formats_rejected(self, tmp_path):
        report = self._report(tmp_path)
        with pytest.raises(ConfigError):
            export_report(report, tmp_path / "out", formats=())

    def test_unknown_format_rejected(self, tmp_path):
        report = self._report(tmp_path)
        with pytest.raises(ConfigError):
            export_report(report, tmp_path / "out", formats=("parquet",))


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(chunk_width=0)
        with pytest.raises(ConfigError):
            PipelineConfig(traits=())
        with pytest.raises(ConfigError):
            PipelineConfig(success_tolerance=-1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(genotype_mode="hybrid")

    def test_to_dict_round_trips_key_fields(self):
        cfg = _small_config()
        doc = cfg.to_dict()
        assert doc["mf"]["features"] == 6
        assert doc["rnn"]["cell"] == "relu_identity"
        assert doc["traits"] == [0]
