import hashlib

import numpy as np
import pytest

from genoseq.linalg import Rng, buffer, derive_seed, sigmoid


class TestActivations:
    def test_sigmoid_stable_and_bounded(self):
        out = sigmoid(np.array([[-800.0, 0.0, 800.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])


class TestBuffer:
    def test_same_name_and_shape_returns_the_same_array(self):
        workspace = {}
        first = buffer(workspace, "a", (2, 3))
        assert first.shape == (2, 3) and first.dtype == np.float64
        assert buffer(workspace, "a", (2, 3)) is first and workspace == {"a": first}

    def test_missing_name_or_new_shape_gets_a_new_array_under_that_name(self):
        workspace = {}
        a = buffer(workspace, "a", (2, 3))
        b = buffer(workspace, "b", (2, 3))
        assert b is not a and workspace["b"] is b and workspace["a"] is a
        resized = buffer(workspace, "a", (3, 2))
        assert resized is not a and resized.shape == (3, 2) and workspace["a"] is resized


class TestRng:
    def test_stream_replays_bit_identically(self):
        assert Rng(123).raw(64).tobytes() == Rng(123).raw(64).tobytes()

    def test_uniform_bounds(self):
        u = Rng(1).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gaussian_moments(self):
        g = Rng(2).gaussian(200000, mean=1.0, stddev=2.0)
        assert abs(g.mean() - 1.0) < 0.02
        assert abs(g.std() - 2.0) < 0.02

    @pytest.mark.parametrize("shape", [2**61, (10**30,), (4, 2**62), (3, 2**62)],
                             ids=["scalar", "1e30", "product_wraps_to_0", "product_wraps"])
    def test_draw_past_any_array_size_is_a_memory_error(self, shape):
        # the element count is an exact integer product, not one that wraps in int64
        for draw in (Rng(0).uniform, Rng(0).gaussian):
            with pytest.raises(MemoryError, match="cannot allocate"):
                draw(shape)

    def test_permutation_is_a_permutation(self):
        p = Rng(7).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_different_seeds_differ(self):
        assert Rng(1).raw(8).tobytes() != Rng(2).raw(8).tobytes()

    # Golden values of draws that span several blocks of the stream and end inside one, so a
    # change of block size or of the float conversion moves a digest
    @pytest.mark.parametrize("draw, digest", [
        (lambda rng: rng.uniform(3 * 2**16 + 5, -1.0, 2.0),
         "63cc07b21cba377a0bf5c6cc9d32f3378ba0ab33267866ec8cfb1326c102406d"),
        (lambda rng: rng.gaussian(2**16 + 3),
         "bae17230ebf38752d1af31f90fe12512e437760a536ac6a6308502a58a8ddfe7"),
        (lambda rng: rng.permutation(2**16 + 7),
         "5fd678265aaa54de90f07dc4a79b8e808917c4185163050669999e8df3fee30a"),
    ], ids=["uniform", "gaussian", "permutation"])
    def test_draw_across_blocks_keeps_its_golden_bits(self, draw, digest):
        assert hashlib.sha256(draw(Rng(20260808)).tobytes()).hexdigest() == digest

    def test_draw_leaves_the_stream_after_its_last_output(self):
        rng = Rng(20260808)
        rng.uniform(3 * 2**16 + 5, -1.0, 2.0)
        assert int(rng.raw(1)[0]) == 10176017147174894086


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "mf") == derive_seed(42, "mf")

    def test_labels_separate_streams(self):
        seen = {derive_seed(42, lbl) for lbl in ("mf", "split", "rnn/trait0", "rnn/trait1")}
        assert len(seen) == 4

    def test_seed_changes_derivation(self):
        assert derive_seed(1, "mf") != derive_seed(2, "mf")
