import numpy as np
import pytest

from genoseq.linalg import Rng, derive_seed, frobenius_sq, sigmoid


class TestFrobeniusSq:
    def test_zeros(self):
        assert frobenius_sq(np.zeros((2, 2))) == 0.0

    def test_hand_value(self):
        assert frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_identity(self):
        for n in (1, 4, 9):
            assert frobenius_sq(np.eye(n)) == float(n)

    def test_equals_trace_of_gram(self):
        rng = Rng(23)
        for _ in range(5):
            a = rng.uniform((5, 5), -3, 3)
            assert frobenius_sq(a) == pytest.approx(np.trace(a.T @ a), abs=1e-9)


class TestActivations:
    def test_sigmoid_stable_and_bounded(self):
        out = sigmoid(np.array([[-800.0, 0.0, 800.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])


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

    def test_permutation_is_a_permutation(self):
        p = Rng(7).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_different_seeds_differ(self):
        assert Rng(1).raw(8).tobytes() != Rng(2).raw(8).tobytes()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "mf") == derive_seed(42, "mf")

    def test_labels_separate_streams(self):
        seen = {derive_seed(42, lbl) for lbl in ("mf", "split", "rnn/trait0", "rnn/trait1")}
        assert len(seen) == 4

    def test_seed_changes_derivation(self):
        assert derive_seed(1, "mf") != derive_seed(2, "mf")
