"""Acceptance gate: every release-blocking behavior, one test per criterion.

Each test prints a single PASS line with its measured numbers once its
assertions hold, so a `pytest -s tests/test_acceptance.py` run reads as a
checklist. Budgets and thresholds are fixed here, not tuned at runtime.
"""

import json
import time

import numpy as np
import pytest

import genoseq.gradcheck as gc
from genoseq.data import (DataSettings, genotype_to_csv, parse_genotype_csv, phenotype_to_csv,
                          synth_lowrank_genotypes, synth_phenotypes,
                          synth_population_genotypes)
from genoseq.linalg import Rng, derive_seed
from genoseq.mf import (MfConfig, imputation_accuracy, impute, mf_fit,
                        rounded_reconstruction)
from genoseq.pipeline import (PipelineConfig, RnnSettings, compare_on_batch,
                              export_report, run_pipeline)
from genoseq.rnn import (loss_mse, pearson_correlation, predict, rnn_forward,
                         rnn_init, save_checkpoint, load_checkpoint, sgd_step,
                         bptt_gradients)
from genoseq.tasks import deep_recall_task


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_01_gradient_oracles():
    budget = 30.0
    t0 = time.perf_counter()
    results = gc.run_all(trials=30, seed=20260808)
    elapsed = time.perf_counter() - t0
    for scope, err in results.items():
        assert err < 1e-5, f"{scope} gradient mismatch: {err:.3e}"
    assert elapsed < budget, f"gradient checks took {elapsed:.1f}s (budget {budget}s)"
    worst = max(results.values())
    _report(1, f"analytic vs central-difference gradients, 30 instances per scope, "
               f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_mf_recovery():
    t0 = time.perf_counter()
    holed, truth = synth_lowrank_genotypes(100, 200, rank=5, missing_frac=0.10, seed=11)
    holes = ~holed.observed
    cfg = MfConfig(features=8, alpha=0.001, beta=0.02, epochs=1500)
    factors, _ = mf_fit(holed, cfg, seed=3)
    missing_pct, _ = imputation_accuracy(truth, impute(holed, factors), holes)
    _, full_pct = imputation_accuracy(truth, rounded_reconstruction(holed, factors), holes)
    elapsed = time.perf_counter() - t0
    assert missing_pct >= 90.0, f"missing-cell accuracy {missing_pct:.2f}% < 90%"
    assert full_pct >= 95.0, f"full-matrix accuracy {full_pct:.2f}% < 95%"
    assert elapsed < 120.0, f"recovery took {elapsed:.1f}s (budget 120s)"
    _report(2, f"100x200 rank-5 with 10% holes, F=8: missing {missing_pct:.2f}%, "
               f"full {full_pct:.2f}%, {elapsed:.1f}s")


def test_03_feature_count_trend():
    holed, truth = synth_population_genotypes(80, 120, groups=8, missing_frac=0.15, seed=5)
    holes = ~holed.observed
    finals = {}
    for features in (1, 2, 4, 8):
        cfg = MfConfig(features=features, alpha=0.001, beta=0.02, epochs=1500)
        factors, curve = mf_fit(holed, cfg, seed=3)
        missing_pct, _ = imputation_accuracy(truth, impute(holed, factors), holes)
        finals[features] = (curve.final_sse(), missing_pct)
    sses = [finals[f][0] for f in (1, 2, 4, 8)]
    assert all(b <= a for a, b in zip(sses, sses[1:])), f"sse not non-increasing: {sses}"
    margin = finals[8][1] - finals[1][1]
    assert margin >= 10.0, f"F=8 vs F=1 missing-accuracy margin {margin:.2f} < 10 points"
    _report(3, f"final sse non-increasing over F=1,2,4,8 ({[round(s, 1) for s in sses]}); "
               f"missing accuracy margin F8-F1 = {margin:.1f} points")


@pytest.mark.slow
def test_04_cell_ordering_trend():
    relu_wins = lstm_wins = 0
    finals = []
    for rep in range(10):
        seed = 2000 + rep
        batch = deep_recall_task(32, 100, derive_seed(seed, "task"))
        settings = RnnSettings(hidden=16, learning_rate=0.01, epochs=600)
        cmp = compare_on_batch(batch, ["simple_tanh", "lstm", "relu_identity"], settings, seed)
        f = cmp.final_losses
        relu_wins += f["relu_identity"] < f["simple_tanh"]
        lstm_wins += f["lstm"] < f["simple_tanh"]
        finals.append(f)
    assert relu_wins >= 8, f"relu_identity beat simple_tanh only {relu_wins}/10 times"
    assert lstm_wins >= 8, f"lstm beat simple_tanh only {lstm_wins}/10 times"
    _report(4, f"deep-memory task over 100 steps, 600 matched epochs: "
               f"relu<tanh {relu_wins}/10, lstm<tanh {lstm_wins}/10")


def test_05_identity_memory_invariant():
    params = rnn_init("relu_identity", 3, 16, 1, seed=99)
    params.w_ih[:] = 0.0
    h0 = Rng(7).uniform(16, 0.0, 5.0)
    inputs = Rng(8).uniform((1, 1000, 3), -2.0, 2.0)
    fwd = rnn_forward(params, inputs, h0=h0)
    for t in range(1000):
        assert fwd.hidden[0, t].tobytes() == h0.tobytes(), f"state changed at step {t}"
    _report(5, "relu cell with zeroed input weights carried a nonnegative hidden "
               "state bitwise-unchanged across 1000 timesteps")


def _pipeline_fixture(tmp_path, tag):
    holed, truth = synth_lowrank_genotypes(40, 48, rank=3, missing_frac=0.08, seed=17)
    phenos = synth_phenotypes(truth, traits=2, seed=18, noise=0.3, missing_per_trait=2)
    base = tmp_path / tag
    base.mkdir()
    geno, pheno, truth_p = base / "g.csv", base / "p.csv", base / "t.csv"
    genotype_to_csv(holed, geno)
    phenotype_to_csv(phenos, pheno)
    genotype_to_csv(truth, truth_p)
    cfg = PipelineConfig(mf=MfConfig(features=4, alpha=0.002, beta=0.02, epochs=150),
                         rnn=RnnSettings(cell="relu_identity", hidden=10,
                                         learning_rate=0.05, epochs=25),
                         data=DataSettings(chunk_width=6), seed=23, traits=(0, 1))
    return geno, pheno, truth_p, cfg


def test_06_end_to_end_determinism(tmp_path):
    geno, pheno, truth_p, cfg = _pipeline_fixture(tmp_path, "data")
    manifests = []
    for tag in ("run1", "run2"):
        report = run_pipeline(geno, pheno, cfg, truth_path=truth_p)
        manifests.append(export_report(report, tmp_path / tag))
    assert manifests[0] == manifests[1], "export manifests differ between identical runs"
    hashes = {f["name"]: f["sha256"] for f in manifests[0]["files"]}
    assert set(hashes) >= {"report.json", "mf_cost.csv", "metrics.csv"}
    _report(6, f"two identical pipeline runs exported byte-identical reports "
               f"({len(hashes)} files, manifest hashes equal)")


def test_07_data_round_trips(tmp_path):
    holed, _ = synth_lowrank_genotypes(25, 31, rank=3, missing_frac=0.2, seed=41)
    path = tmp_path / "roundtrip.csv"
    genotype_to_csv(holed, path)
    again = parse_genotype_csv(path)
    assert again.codes.tobytes() == holed.codes.tobytes()
    assert again.observed.tobytes() == holed.observed.tobytes()

    params = rnn_init("lstm", 4, 6, 1, seed=5)
    x = Rng(6).uniform((8, 12, 4), -1, 1)
    grads = bptt_gradients(params, (x, Rng(7).uniform((8, 1))))
    params = sgd_step(params, grads, 0.017)
    before = predict(params, x)
    ckpt = tmp_path / "model.json"
    save_checkpoint(params, ckpt)
    after = predict(load_checkpoint(ckpt), x)
    assert after.tobytes() == before.tobytes()
    _report(7, "genotype CSV parse/serialize/parse is exact; checkpoint reload "
               "reproduces predictions bit-for-bit")


def test_08_metric_contracts():
    assert pearson_correlation([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson_correlation([1.0, 2.0, 0.5], [-1.0, -2.0, -0.5]) == -1.0

    _, truth = synth_lowrank_genotypes(10, 12, rank=2, missing_frac=0.0, seed=3)
    holes = np.zeros((10, 12), dtype=bool)
    holes[0, :3] = True
    assert imputation_accuracy(truth, truth, holes) == (100.0, 100.0)

    from genoseq.pipeline import evaluate_split
    from genoseq.rnn import RnnParams
    net = RnnParams("simple_tanh", 1, 2, 1, np.zeros((2, 1)), np.zeros((2, 2)),
                    np.zeros((1, 2)), np.zeros(2), np.array([0.5]))
    batch = deep_recall_task(6, 10, seed=2)
    batch.targets[:] = [[0.5], [0.5], [0.1], [0.9], [0.5], [0.0]]
    m = evaluate_split(net, batch, 0.0, target_range=1.0)
    assert m.success_pct == 50.0  # exact matches only: three of six
    _report(8, "correlation, imputation accuracy, and zero-tolerance success "
               "behave exactly as specified")
