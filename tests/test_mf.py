import tracemalloc
import weakref

import numpy as np
import pytest

import genoseq.gradcheck as gc
from genoseq.data import (MISSING_SENTINEL, GenotypeMatrix, genotype_to_csv, parse_genotype_csv,
                          synth_lowrank_genotypes, synth_population_genotypes)
from genoseq.errors import ConfigError, DataError
from genoseq.linalg import Rng
import genoseq.mf
from genoseq.mf import (MF_MODES, CostCurve, CostRecord, FactorPair, MfConfig, fit_impute,
                        fit_report, impute, imputation_accuracy, mf_cost, mf_epoch, mf_fit,
                        mf_gradients, mf_init, rounded_reconstruction)


ONE_CELL = GenotypeMatrix([[2]])
ONE_CELL_FP = FactorPair(np.array([[1.0]]), np.array([[1.0]]))


class TestMfConfig:
    def test_default_values(self):
        cfg = MfConfig()
        assert cfg.alpha == 0.001
        assert cfg.beta == 0.02
        assert cfg.epochs == 5000
        assert cfg.features == 400
        assert cfg.init_range == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MfConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            MfConfig(beta=-0.1)
        with pytest.raises(ConfigError):
            MfConfig(features=0)
        with pytest.raises(ConfigError):
            MfConfig(init_range=(1.0, 0.0))
        with pytest.raises(ConfigError):
            MfConfig(mode="minibatch")
        with pytest.raises(ConfigError, match="finite width"):
            MfConfig(init_range=(-1e308, 1e308))  # each bound is finite, but b - a overflows
        assert MfConfig(init_range=(0.0, 1e200)).init_range == (0.0, 1e200)


class TestMfInit:
    def test_entries_in_range(self):
        fp = mf_init(20, 30, MfConfig(features=4), seed=7)
        for m in (fp.p, fp.q):
            assert m.min() >= 0.0 and m.max() < 1.0

    def test_degenerate_range_collapses_to_constant(self):
        cfg = MfConfig(features=2, init_range=(0.5, 0.5 + 1e-12))
        fp = mf_init(5, 6, cfg, seed=1)
        np.testing.assert_allclose(fp.p, 0.5, atol=1e-11)
        np.testing.assert_allclose(fp.q, 0.5, atol=1e-11)

    def test_deterministic(self):
        cfg = MfConfig(features=3)
        a, b = mf_init(7, 9, cfg, seed=42), mf_init(7, 9, cfg, seed=42)
        assert a.p.tobytes() == b.p.tobytes()
        assert a.q.tobytes() == b.q.tobytes()

    def test_shapes(self):
        fp = mf_init(11, 13, MfConfig(features=5), seed=0)
        assert fp.p.shape == (11, 5) and fp.q.shape == (13, 5)


class TestMfReconstruct:
    def test_rank_one_hand_products(self):
        # products [[2, 1], [1, 0.5]]; 0.5 rounds half to even
        fp = FactorPair(np.array([[1.0], [0.5]]), np.array([[2.0], [1.0]]))
        recon = rounded_reconstruction(GenotypeMatrix(np.zeros((2, 2))), fp)
        np.testing.assert_array_equal(recon.codes, [[2, 1], [1, 0]])

    def test_zero_factor_annihilates(self):
        fp = FactorPair(np.ones((3, 2)), np.zeros((4, 2)))
        recon = rounded_reconstruction(GenotypeMatrix(np.ones((3, 4))), fp)
        np.testing.assert_array_equal(recon.codes, np.zeros((3, 4)))

    def test_entry_is_feature_dot_product(self):
        rng = Rng(3)
        fp = FactorPair(rng.uniform((4, 6), 0.0, 0.5), rng.uniform((5, 6)))
        recon = rounded_reconstruction(GenotypeMatrix(np.zeros((4, 5))), fp)
        assert recon.codes[2, 3] == np.clip(np.rint(np.dot(fp.p[2], fp.q[3])), 0, 2)


class TestMfCost:
    def test_fully_masked_is_pure_regularization(self):
        g = GenotypeMatrix([[5, 5], [5, 5]])
        fp = FactorPair(np.ones((2, 2)), np.ones((2, 2)))
        sse, objective = mf_cost(g, fp, beta=0.1)
        assert sse == 0.0
        assert objective == pytest.approx(0.05 * (4 + 4))

    def test_perfect_fit_zero_objective(self):
        fp = FactorPair(np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]))
        # quantize factors so the product is exactly the codes
        g = GenotypeMatrix([[1, 0], [2, 0]])
        sse, objective = mf_cost(g, fp, beta=0.0)
        assert sse == 0.0 and objective == 0.0

    def test_one_cell_hand_value(self):
        sse, objective = mf_cost(ONE_CELL, ONE_CELL_FP, beta=0.02)
        assert sse == 1.0
        assert objective == pytest.approx(1.02)


class TestMfGradients:
    def test_perfect_fit_without_regularization_is_stationary(self):
        fp = FactorPair(np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]))
        g = GenotypeMatrix([[1, 0], [2, 0]])
        dp, dq = mf_gradients(g, fp, beta=0.0)
        np.testing.assert_array_equal(dp, np.zeros((2, 1)))
        np.testing.assert_array_equal(dq, np.zeros((2, 1)))

    def test_fully_masked_leaves_regularizer_only(self):
        g = GenotypeMatrix([[5, 5], [5, 5]])
        rng = Rng(8)
        fp = FactorPair(rng.uniform((2, 3)), rng.uniform((2, 3)))
        dp, dq = mf_gradients(g, fp, beta=0.7)
        np.testing.assert_allclose(dp, 0.7 * fp.p)
        np.testing.assert_allclose(dq, 0.7 * fp.q)

    def test_matches_finite_differences(self):
        # 20 random small instances, samples/snps <= 8, features <= 3
        assert gc.check("mf", trials=20, seed=101) < 1e-6

    def test_mask_independence_bitwise(self):
        # the reference never reads a hole's code, so equal bytes mean the sentinel reaches
        # neither the cost nor the gradients
        holed, _ = synth_lowrank_genotypes(6, 7, rank=2, missing_frac=0.3, seed=3)
        assert (holed.codes == MISSING_SENTINEL).any()
        fp = mf_init(6, 7, MfConfig(features=2), seed=5)
        assert mf_cost(holed, fp, 0.02) == _reference_cost(holed, fp, 0.02)
        dp, dq = mf_gradients(holed, fp, 0.02)
        ref_dp, ref_dq = _reference_gradients(holed, fp, 0.02)
        assert dp.tobytes() == ref_dp.tobytes()
        assert dq.tobytes() == ref_dq.tobytes()


class TestMfEpoch:
    def test_vanishing_step_leaves_factors_unchanged(self):
        # the alpha -> 0 limit: a step below one ulp is the identity
        g = GenotypeMatrix([[1, 2], [0, 1]])
        fp = mf_init(2, 2, MfConfig(features=2), seed=1)
        new, _ = mf_epoch(g, fp, MfConfig(features=2, alpha=1e-300))
        assert new.p.tobytes() == fp.p.tobytes()
        assert new.q.tobytes() == fp.q.tobytes()

    def test_one_step_reduces_hand_example(self):
        cfg = MfConfig(features=1, alpha=0.1, beta=0.02)
        before = mf_cost(ONE_CELL, ONE_CELL_FP, 0.02)[1]
        _, record = mf_epoch(ONE_CELL, ONE_CELL_FP, cfg)
        assert record.objective < before

    def test_stationary_point_fixed(self):
        fp = FactorPair(np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]))
        g = GenotypeMatrix([[1, 0], [2, 0]])
        new, _ = mf_epoch(g, fp, MfConfig(features=1, alpha=0.1, beta=0.0))
        np.testing.assert_allclose(new.p, fp.p, atol=1e-15)
        np.testing.assert_allclose(new.q, fp.q, atol=1e-15)

    def test_per_entry_mode_also_descends(self):
        holed, _ = synth_lowrank_genotypes(8, 9, rank=2, missing_frac=0.1, seed=6)
        cfg = MfConfig(features=2, alpha=0.01, beta=0.02, epochs=30, mode="per_entry")
        _, curve = mf_fit(holed, cfg, seed=2)
        assert curve.records[-1].objective < curve.records[0].objective


def _per_entry_reference(g, fp, cfg):
    """One per_entry epoch as the scalar row-major loop over the observed cells."""
    p = fp.p.copy()
    q = fp.q.copy()
    codes = g.codes.astype(np.float64)
    for u in range(g.samples):
        for v in np.nonzero(g.observed[u])[0]:
            err = codes[u, v] - p[u] @ q[v]
            p_u = p[u] + cfg.alpha * (2.0 * err * q[v] - cfg.beta * p[u])
            q[v] = q[v] + cfg.alpha * (2.0 * err * p_u - cfg.beta * q[v])
            p[u] = p_u
    return FactorPair(p, q)


def _masked(samples, snps, mask, seed):
    """A random genotype matrix with about 30% holes, then the named edit of where they are."""
    rng = np.random.default_rng(seed)
    observed = rng.random((samples, snps)) > 0.3
    if mask == "masked_row":
        observed[samples // 2] = False
    elif mask == "masked_col":
        observed[:, snps // 2] = False
    elif mask == "one_cell":
        observed[:] = False
        observed[rng.integers(samples), rng.integers(snps)] = True
    elif mask == "no_holes":
        observed[:] = True
    codes = rng.integers(0, 3, (samples, snps))
    codes[~observed] = MISSING_SENTINEL
    return GenotypeMatrix(codes)


class TestPerEntrySweep:
    @pytest.mark.parametrize("mask", ["random", "masked_row", "masked_col", "one_cell"])
    @pytest.mark.parametrize("features", [1, 3, 8])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 9), (37, 23)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_scalar_loop_bitwise(self, shape, features, mask):
        g = _masked(*shape, mask, seed=features)
        cfg = MfConfig(features=features, alpha=0.01, beta=0.02, mode="per_entry")
        fp = ref = mf_init(*shape, cfg, seed=3)
        for epoch in range(3):
            fp, _ = mf_epoch(g, fp, cfg, epoch)
            ref = _per_entry_reference(g, ref, cfg)
        assert fp.p.tobytes() == ref.p.tobytes()
        assert fp.q.tobytes() == ref.q.tobytes()

    def test_fit_matches_scalar_loop_bitwise(self):
        g = _masked(37, 23, "masked_col", seed=11)
        cfg = MfConfig(features=5, alpha=0.01, beta=0.02, epochs=3, mode="per_entry")
        fp, _ = mf_fit(g, cfg, seed=11)
        ref = mf_init(37, 23, cfg, seed=11)
        for _ in range(3):
            ref = _per_entry_reference(g, ref, cfg)
        assert fp.p.tobytes() == ref.p.tobytes()
        assert fp.q.tobytes() == ref.q.tobytes()


def _reference_residual(g, p, q):
    """G - p@q.T over the cells whose code is not the sentinel, zero at the others."""
    holes = g.codes == MISSING_SENTINEL
    d = p @ q.T
    np.subtract(np.where(holes, 0, g.codes), d, out=d)  # no hole's code is read
    np.copyto(d, 0.0, where=holes)
    return d


def _reference_cost(g, fp, beta):
    """(sse, objective) in the plain expressions."""
    d = _reference_residual(g, fp.p, fp.q)
    sse = float(np.sum(d * d))
    return sse, sse + 0.5 * beta * (np.sum(fp.p * fp.p) + np.sum(fp.q * fp.q))


def _reference_gradients(g, fp, beta):
    """(dp, dq) in the plain expressions."""
    d = _reference_residual(g, fp.p, fp.q)
    return -2.0 * (d @ fp.q) + beta * fp.p, -2.0 * (d.T @ fp.p) + beta * fp.q


def _full_batch_reference(g, fp, cfg):
    """One full_batch epoch in the plain expressions: (new factors, sse, objective)."""
    dp, dq = _reference_gradients(g, fp, cfg.beta)
    new = FactorPair(fp.p - cfg.alpha * dp, fp.q - cfg.alpha * dq)
    return (new, *_reference_cost(g, new, cfg.beta))


class TestFullBatchEpoch:
    @pytest.mark.parametrize("mask", ["random", "masked_row", "masked_col", "one_cell"])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (13, 9), (37, 23)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_reference_bitwise(self, shape, mask):
        g = _masked(*shape, mask, seed=shape[0])
        cfg = MfConfig(features=5, alpha=0.005, beta=0.02)
        fp = ref = mf_init(*shape, cfg, seed=7)
        n_obs = int(g.observed.sum())
        for epoch in range(12):
            fp, record = mf_epoch(g, fp, cfg, epoch)
            ref, sse, objective = _full_batch_reference(g, ref, cfg)
            assert record == CostRecord(epoch, sse / n_obs if n_obs else 0.0, sse, objective)
            assert fp.p.tobytes() == ref.p.tobytes()
            assert fp.q.tobytes() == ref.q.tobytes()
            assert mf_cost(g, fp, cfg.beta) == (sse, objective)

    @pytest.mark.parametrize("call", ["full_batch", "per_entry", "gradients", "cost",
                                      "rounded_reconstruction", "impute"])
    def test_inputs_left_unchanged(self, call):
        g = _masked(11, 13, "masked_row", seed=3)
        mode = call if call in MF_MODES else "full_batch"
        cfg = MfConfig(features=4, alpha=0.01, mode=mode)
        fp = mf_init(11, 13, cfg, seed=4)
        before = [a.tobytes() for a in (fp.p, fp.q, g.codes, g.observed)]
        if call == "gradients":
            mf_gradients(g, fp, cfg.beta)
        elif call == "cost":
            mf_cost(g, fp, cfg.beta)
        elif call == "rounded_reconstruction":
            rounded_reconstruction(g, fp)
        elif call == "impute":
            impute(g, fp)
        else:
            mf_epoch(g, fp, cfg)
        assert [a.tobytes() for a in (fp.p, fp.q, g.codes, g.observed)] == before

    @pytest.mark.parametrize("mode", MF_MODES)
    def test_epoch_with_the_fit_workspace_leaves_its_factors_unchanged(self, mode):
        # the workspace's spare pair takes the step; the factors handed in stay as they were
        g = _masked(11, 13, "masked_row", seed=3)
        cfg = MfConfig(features=4, alpha=0.01, mode=mode)
        fp = mf_init(11, 13, cfg, seed=4)
        before = [a.tobytes() for a in (fp.p, fp.q, g.codes, g.observed)]
        new, record = mf_epoch(g, fp, cfg, 0, {})
        assert [a.tobytes() for a in (fp.p, fp.q, g.codes, g.observed)] == before
        alone, alone_record = mf_epoch(g, fp, cfg)
        assert record == alone_record
        assert new.p.tobytes() == alone.p.tobytes() and new.q.tobytes() == alone.q.tobytes()


class TestFullBatchFit:
    def test_full_batch_fit_matches_oracle_loop_bitwise(self):
        g = _masked(23, 31, "masked_row", seed=4)
        g.codes[:, 5] = MISSING_SENTINEL
        cfg = MfConfig(features=4, alpha=0.005, beta=0.02, epochs=12)
        fp, curve = mf_fit(g, cfg, seed=9)
        ref, records = mf_init(23, 31, cfg, seed=9), []
        for epoch in range(12):
            dp, dq = mf_gradients(g, ref, cfg.beta)
            ref = FactorPair(ref.p - cfg.alpha * dp, ref.q - cfg.alpha * dq)
            sse, objective = mf_cost(g, ref, cfg.beta)
            records.append(CostRecord(epoch, sse / int(g.observed.sum()), sse, objective))
        assert curve.records == records
        assert fp.p.tobytes() == ref.p.tobytes()
        assert fp.q.tobytes() == ref.q.tobytes()

    @pytest.mark.parametrize("mask", ["no_holes", "masked_row", "masked_col"])
    @pytest.mark.parametrize("mode", MF_MODES)
    def test_fit_matches_references_and_standalone_epochs_bitwise(self, mode, mask):
        # mf_fit hands each epoch the index it built once; an epoch called alone builds its own
        g = _masked(13, 9, mask, seed=5)
        cfg = MfConfig(features=4, alpha=0.005, beta=0.02, epochs=6, mode=mode)
        fp, curve = mf_fit(g, cfg, seed=2)
        ref = alone = mf_init(13, 9, cfg, seed=2)
        n_obs = int(g.observed.sum())
        for epoch, record in enumerate(curve.records):
            alone, alone_record = mf_epoch(g, alone, cfg, epoch)
            if mode == "full_batch":
                ref, sse, objective = _full_batch_reference(g, ref, cfg)
            else:
                ref = _per_entry_reference(g, ref, cfg)
                sse, objective = _reference_cost(g, ref, cfg.beta)
            assert record == alone_record == CostRecord(epoch, sse / n_obs, sse, objective)
        assert len(curve) == 6
        for got in (fp, alone):
            assert got.p.tobytes() == ref.p.tobytes()
            assert got.q.tobytes() == ref.q.tobytes()

    @pytest.mark.parametrize("mode", MF_MODES)
    def test_fit_builds_the_hole_index_once(self, monkeypatch, mode):
        g = _masked(9, 11, "random", seed=2)
        holes, builds = ~g.observed, []
        flatnonzero = np.flatnonzero

        def counted(a):
            if np.shape(a) == holes.shape and np.array_equal(a, holes):
                builds.append(1)
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counted)
        mf_fit(g, MfConfig(features=3, alpha=0.005, epochs=12, mode=mode), seed=1)
        assert len(builds) == 1

    @pytest.mark.parametrize("mode,most", [("full_batch", 24), ("per_entry", 12)])
    def test_residuals_per_epoch(self, monkeypatch, mode, most):
        # full_batch: one for the gradient and one for the cost; per_entry: the cost's only
        calls = []
        build = genoseq.mf._masked_residual

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr("genoseq.mf._masked_residual", counted)
        g = _masked(9, 11, "random", seed=2)
        mf_fit(g, MfConfig(features=3, alpha=0.005, epochs=12, mode=mode), seed=1)
        assert len(calls) <= most
        if mode == "per_entry":
            assert len(calls) == 12


def _rank_one_codes():
    # an exactly rank-one integer genotype matrix: outer product of a
    # {0,1} sample vector and a {0,1,2} SNP vector
    a = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1, 1])[:, None]
    b = np.array([2, 1, 0, 2, 1, 0, 2, 1, 0, 2])[None, :]
    return GenotypeMatrix(a @ b)


class TestMfFit:
    def test_rank_one_recovery(self):
        cfg = MfConfig(features=1, alpha=0.01, beta=0.0, epochs=1500)
        _, curve = mf_fit(_rank_one_codes(), cfg, seed=4)
        assert curve.final_sse() < 1e-3

    def test_zero_epochs_returns_init_and_empty_curve(self):
        g = GenotypeMatrix([[1, 2], [0, 1]])
        cfg = MfConfig(features=2, epochs=0)
        fp, curve = mf_fit(g, cfg, seed=3)
        init = mf_init(2, 2, cfg, seed=3)
        assert fp.p.tobytes() == init.p.tobytes()
        assert len(curve) == 0

    def test_more_features_fit_at_least_as_well(self):
        holed, _ = synth_population_genotypes(30, 40, groups=4, missing_frac=0.1, seed=7)
        finals = []
        for features in (1, 4):
            cfg = MfConfig(features=features, alpha=0.002, beta=0.02, epochs=400)
            _, curve = mf_fit(holed, cfg, seed=3)
            finals.append(curve.final_sse())
        assert finals[1] <= finals[0]

    def test_no_observed_entries_rejected(self):
        g = GenotypeMatrix([[5]])
        with pytest.raises(DataError):
            mf_fit(g, MfConfig(features=1), seed=0)

    def test_monotone_descent_with_small_enough_alpha(self):
        holed, _ = synth_lowrank_genotypes(9, 11, rank=2, missing_frac=0.2, seed=14)
        alpha = 1e-3
        for _ in range(20):
            cfg = MfConfig(features=2, alpha=alpha, beta=0.0, epochs=60)
            _, curve = mf_fit(holed, cfg, seed=5)
            objectives = [r.objective for r in curve.records]
            if all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:])):
                break
            alpha *= 0.5
        else:
            pytest.fail("objective still increasing after 20 halvings of alpha")

    def test_permutation_equivariance(self):
        holed, _ = synth_lowrank_genotypes(7, 9, rank=2, missing_frac=0.15, seed=21)
        cfg = MfConfig(features=2, alpha=0.005, beta=0.02)
        fp0 = mf_init(7, 9, cfg, seed=8)
        perm = Rng(3).permutation(7)

        fp_a = FactorPair(fp0.p.copy(), fp0.q.copy())
        g_a = holed
        fp_b = FactorPair(fp0.p[perm].copy(), fp0.q.copy())
        g_b = GenotypeMatrix(holed.codes[perm])
        for epoch in range(25):
            fp_a, _ = mf_epoch(g_a, fp_a, cfg, epoch)
            fp_b, _ = mf_epoch(g_b, fp_b, cfg, epoch)
        np.testing.assert_allclose((fp_a.p @ fp_a.q.T)[perm], fp_b.p @ fp_b.q.T,
                                   atol=1e-9)


def _traced_peak(call):
    """Bytes that ``call()`` holds at its traced peak, above what was held on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class TestMemory:
    # 160x500 with F=40: the factor q (500x40) outweighs numpy's buffer for casting the int8
    # codes to float64 in the residual (np.getbufsize() values), so a q-sized temporary shows
    SAMPLES, SNPS, FEATURES = 160, 500, 40

    def _geno(self):
        rng = np.random.default_rng(5)
        observed = rng.random((self.SAMPLES, self.SNPS)) > 0.01
        codes = rng.integers(0, 3, observed.shape).astype(np.int8)
        codes[~observed] = MISSING_SENTINEL
        return GenotypeMatrix(codes)

    def test_full_batch_fit_holds_two_factor_pairs_and_one_residual(self):
        g = self._geno()
        cfg = MfConfig(features=self.FEATURES, alpha=1e-4, init_range=(0.0, 0.05), epochs=3)
        pair = (self.SAMPLES + self.SNPS) * self.FEATURES * 8
        residual = self.SAMPLES * self.SNPS * 8
        # slack: the cast buffer, and the hole index as int32 plus its intp copy when indexing
        slack = 8 * np.getbufsize() + 12 * int((~g.observed).sum()) + 16384
        assert _traced_peak(lambda: mf_fit(g, cfg, seed=1)) <= 2 * pair + residual + slack

    @pytest.mark.parametrize("draw, nbytes", [
        (lambda: Rng(1).uniform(604 * 1980), 604 * 1980 * 8),
        (lambda: mf_init(604, 1980, MfConfig(), 3), (604 + 1980) * MfConfig().features * 8),
    ], ids=["uniform", "mf_init"])
    def test_paper_scale_draw_holds_its_output_and_a_few_blocks(self, draw, nbytes):
        # the stream is drawn block by block: a few 2^15-output uint64 temporaries (256 KiB each)
        # live beside the result, not copies of the whole draw
        assert _traced_peak(draw) <= nbytes + 2**20

    def test_rounded_reconstruction_holds_one_product_and_the_codes(self):
        g = self._geno()
        fp = mf_init(self.SAMPLES, self.SNPS, MfConfig(features=self.FEATURES), seed=2)
        cells = self.SAMPLES * self.SNPS
        assert _traced_peak(lambda: rounded_reconstruction(g, fp)) <= cells * (8 + 1) + 4096


class TestImpute:
    def test_rounding_and_clamping(self):
        g = GenotypeMatrix([[5, 5, 5]])
        fp = FactorPair(np.array([[1.0]]), np.array([[1.4], [-0.3], [2.7]]))
        out = impute(g, fp)
        np.testing.assert_array_equal(out.codes, [[1, 0, 2]])
        assert out.observed.all()

    def test_observed_cells_take_precedence(self):
        g = GenotypeMatrix([[2]])
        fp = FactorPair(np.array([[0.9]]), np.array([[1.0]]))
        assert impute(g, fp).codes[0, 0] == 2

    def test_rounded_reconstruction_ignores_observations(self):
        g = GenotypeMatrix([[2]])
        fp = FactorPair(np.array([[0.9]]), np.array([[1.0]]))
        assert rounded_reconstruction(g, fp).codes[0, 0] == 1


class TestImputationAccuracy:
    def test_perfect(self):
        _, truth = synth_lowrank_genotypes(5, 6, rank=2, missing_frac=0.0, seed=3)
        holes = np.zeros((5, 6), dtype=bool)
        holes[0, 0] = True
        missing_pct, full_pct = imputation_accuracy(truth, truth, holes)
        assert missing_pct == 100.0 and full_pct == 100.0

    def test_no_holes_missing_is_not_applicable(self):
        _, truth = synth_lowrank_genotypes(4, 4, rank=1, missing_frac=0.0, seed=1)
        missing_pct, full_pct = imputation_accuracy(truth, truth,
                                                    np.zeros((4, 4), dtype=bool))
        assert missing_pct is None
        assert full_pct == 100.0

    def test_three_of_four_holes_correct(self):
        truth = GenotypeMatrix([[0, 1], [2, 1]])
        imputed = GenotypeMatrix([[0, 1], [2, 0]])
        holes = np.array([[True, True], [True, True]])
        missing_pct, full_pct = imputation_accuracy(truth, imputed, holes)
        assert missing_pct == 75.0 and full_pct == 75.0

    @pytest.mark.parametrize("missing_frac", [0.2, 0.0], ids=["holed", "hole_free"])
    def test_fit_impute_scores_as_the_imputation_and_the_reconstruction_do(self, missing_frac):
        # missing_pct is the imputation's, full_pct the rounded reconstruction's
        holed, truth = synth_lowrank_genotypes(12, 10, rank=2, missing_frac=missing_frac, seed=4)
        cfg = MfConfig(features=2, alpha=0.005, epochs=20)
        imputed, _, accuracy = fit_impute(holed, cfg, 3, lambda: truth)
        recon = rounded_reconstruction(holed, mf_fit(holed, cfg, 3)[0])
        holes = ~holed.observed
        assert accuracy == (imputation_accuracy(truth, imputed, holes)[0],
                            imputation_accuracy(truth, recon, holes)[1])
        assert (accuracy[0] is None) == (missing_frac == 0.0)

    def test_fit_impute_reads_the_truth_before_and_after_the_fit_and_holds_none(
            self, tmp_path, monkeypatch):
        holed, truth = synth_lowrank_genotypes(12, 10, rank=2, missing_frac=0.2, seed=4)
        genotype_to_csv(truth, tmp_path / "truth.csv")
        reads, alive_at_epochs = [], []

        def read_truth():
            matrix = parse_genotype_csv(tmp_path / "truth.csv")
            reads.append(weakref.ref(matrix))
            return matrix

        def watched_epoch(*args, **kwargs):
            alive_at_epochs.append([read() is not None for read in reads])
            return mf_epoch(*args, **kwargs)

        cfg = MfConfig(features=2, alpha=0.005, epochs=20)
        monkeypatch.setattr(genoseq.mf, "mf_epoch", watched_epoch)
        imputed, curve, accuracy = fit_impute(holed, cfg, 3, read_truth)
        assert len(reads) == 2 and alive_at_epochs[0] == [False]
        assert accuracy == fit_impute(holed, cfg, 3, lambda: truth)[2]
        unscored, unscored_curve, none = fit_impute(holed, cfg, 3)
        assert none is None and np.array_equal(imputed.codes, unscored.codes)
        assert curve.to_rows() == unscored_curve.to_rows()

    def test_shape_mismatch(self):
        a = GenotypeMatrix([[1]])
        b = GenotypeMatrix([[1, 2]])
        with pytest.raises(DataError, match="shape mismatch"):
            imputation_accuracy(a, b, np.zeros((1, 1), dtype=bool))


class TestReporting:
    def test_cost_curve_csv_layout(self, tmp_path):
        holed, _ = synth_lowrank_genotypes(6, 6, rank=2, missing_frac=0.1, seed=2)
        cfg = MfConfig(features=2, alpha=0.005, epochs=3)
        _, curve = mf_fit(holed, cfg, seed=1)
        curve.to_csv(tmp_path / "mf_cost.csv")
        lines = (tmp_path / "mf_cost.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "epoch,sse,objective"
        assert len(lines) == 4
        epoch, sse, objective = lines[1].split(",")
        assert epoch == "0" and float(sse) > 0 and float(objective) >= float(sse)

    @pytest.mark.parametrize("mode", MF_MODES)
    def test_cost_csv_sse_is_the_computed_sse(self, tmp_path, mode):
        # each row's sse is mf_cost's own sum, not mse * n_observed rounded once more
        holed, _ = synth_lowrank_genotypes(100, 200, rank=5, missing_frac=0.1, seed=42)
        cfg = MfConfig(features=8, alpha=0.001, epochs=50, mode=mode)
        _, curve = mf_fit(holed, cfg, seed=3)
        curve.to_csv(tmp_path / "mf_cost.csv")
        rows = (tmp_path / "mf_cost.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 50
        fp = mf_init(100, 200, cfg, seed=3)
        for epoch, row in enumerate(rows):
            fp, _ = mf_epoch(holed, fp, cfg, epoch)
            assert row.split(",")[1] == repr(mf_cost(holed, fp, cfg.beta)[0])

    def test_fit_report_contents(self):
        holed, truth = synth_lowrank_genotypes(6, 6, rank=2, missing_frac=0.1, seed=2)
        cfg = MfConfig(features=2, alpha=0.005, epochs=3)
        fp, curve = mf_fit(holed, cfg, seed=1)
        acc = imputation_accuracy(truth, impute(holed, fp), ~holed.observed)
        report = fit_report(curve, acc)
        assert report["n_observed"] == int(holed.observed.sum())
        assert report["curve"][-1]["sse"] == curve.final_sse()
        assert len(report["curve"]) == 3
        assert set(report["accuracy"]) == {"missing_pct", "full_pct"}
