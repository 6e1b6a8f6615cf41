import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import genoseq.gradcheck as gc
from genoseq import rnn
from genoseq.data import SequenceBatch
from genoseq.errors import ConfigError, DataError, DivergenceError, ParseError
from genoseq.linalg import Rng, derive_seed
from genoseq.rnn import (CELLS, CHECKPOINT_VERSION, CORRELATION_SNAP, LSTM_FORGET_BIAS, RnnParams,
                         RnnSettings, bptt_gradients, clip_gradients, load_checkpoint,
                         loss_mse, pearson_correlation, predict, rnn_forward, rnn_init,
                         save_checkpoint, sgd_step, train)


def _tiny_tanh(w_ih=1.0, w_hh=0.5, w_ho=2.0):
    return RnnParams("simple_tanh", 1, 1, 1,
                     np.array([[w_ih]]), np.array([[w_hh]]), np.array([[w_ho]]),
                     np.zeros(1), np.zeros(1))


def _overflowing_readout():
    """relu_identity with w_ih = w_hh = 1 and w_ho = 1e150: on the input [[1], [0]] the squares
    of its gradient overflow, though every gradient entry is finite."""
    return RnnParams("relu_identity", 1, 1, 1, np.array([[1.0]]), np.array([[1.0]]),
                     np.array([[1e150]]), np.zeros(1), np.zeros(1))


ONE_STEP = SequenceBatch(np.array([[[1.0], [0.0]]]), np.zeros((1, 1)))


def _reference_sigmoid(z):
    """The masked two-branch logistic that linalg.sigmoid replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference(params, x, targets, h0=None):
    """Per-step forward and backward loops, the oracle of the hoisted kernels.

    Every product is formed inside the time loop, in the order the
    equations state it: no hoisted input product, no precomputed
    derivative factors, weight gradients accumulated step by step.
    Returns (hidden (B, T, M), outputs, gradients).
    """
    b, t_len, _ = x.shape
    m = params.n_hidden
    hs = np.empty((b, t_len + 1, m))
    hs[:, 0] = 0.0 if h0 is None else h0
    cs = np.zeros((b, t_len + 1, m))
    zs, gates = [], []
    for t in range(t_len):
        a = x[:, t] @ params.w_ih.T + hs[:, t] @ params.w_hh.T + params.b_h
        zs.append(a)
        if params.cell == "lstm":
            i, f, o = (_reference_sigmoid(a[:, k * m:(k + 1) * m]) for k in range(3))
            g = np.tanh(a[:, 3 * m:])
            cs[:, t + 1] = f * cs[:, t] + i * g
            tch = np.tanh(cs[:, t + 1])
            gates.append((i, f, o, g, tch))
            hs[:, t + 1] = o * tch
        elif params.cell == "simple_tanh":
            hs[:, t + 1] = np.tanh(a)
        else:
            hs[:, t + 1] = np.maximum(a, 0.0)
    y = hs[:, -1] @ params.w_ho.T + params.b_o

    dy = 2.0 * (y - targets) / (b * params.n_out)
    grads = {name: np.zeros_like(value) for name, value in params.tensors().items()}
    grads["w_ho"] = dy.T @ hs[:, -1]
    grads["b_o"] = dy.sum(axis=0)
    dh = dy @ params.w_ho
    dc = np.zeros((b, m))
    for t in range(t_len - 1, -1, -1):
        if params.cell == "lstm":
            i, f, o, g, tch = gates[t]
            dc = dc + dh * o * (1.0 - tch * tch)
            da = np.concatenate([(dc * g) * i * (1.0 - i),
                                 (dc * cs[:, t]) * f * (1.0 - f),
                                 dh * tch * o * (1.0 - o),
                                 (dc * i) * (1.0 - g * g)], axis=1)
            dc = dc * f
        elif params.cell == "simple_tanh":
            da = dh * (1.0 - np.tanh(zs[t]) ** 2)
        else:
            da = dh * (zs[t] > 0.0)
        grads["w_ih"] += da.T @ x[:, t]
        grads["w_hh"] += da.T @ hs[:, t]
        grads["b_h"] += da.sum(axis=0)
        dh = da @ params.w_hh
    return hs[:, 1:], y, grads


def _generic_instance(cell, batch, t_len, n_in, hidden=4, n_out=2, seed=0):
    """Random weights away from the special init values, with inputs and targets."""
    rng = Rng(seed)
    params = rnn_init(cell, n_in, hidden, n_out, seed=seed)
    params = replace(params, **{k: rng.gaussian(v.shape, 0.0, 0.4)
                                for k, v in params.tensors().items()})
    x = rng.uniform((batch, t_len, n_in), -1.0, 1.0)
    targets = rng.uniform((batch, n_out), -1.0, 1.0)
    return params, x, targets


class TestRnnInit:
    def test_relu_identity_blocks(self):
        p = rnn_init("relu_identity", 3, 4, 1, seed=5)
        np.testing.assert_array_equal(p.w_hh, np.eye(4))
        np.testing.assert_array_equal(p.b_h, np.zeros(4))

    def test_simple_tanh_small_weights_zero_biases(self):
        p = rnn_init("simple_tanh", 3, 8, 2, seed=5)
        for w in (p.w_ih, p.w_hh, p.w_ho):
            assert np.abs(w).max() < 0.1  # gaussian(0, 0.01) tail
        np.testing.assert_array_equal(p.b_h, np.zeros(8))
        np.testing.assert_array_equal(p.b_o, np.zeros(2))

    def test_lstm_forget_bias_block(self):
        m = 5
        p = rnn_init("lstm", 2, m, 1, seed=9)
        np.testing.assert_array_equal(p.b_h[m:2 * m], np.full(m, LSTM_FORGET_BIAS))
        np.testing.assert_array_equal(p.b_h[:m], np.zeros(m))
        np.testing.assert_array_equal(p.b_h[2 * m:], np.zeros(2 * m))
        assert p.w_ih.shape == (4 * m, 2)
        assert p.w_hh.shape == (4 * m, m)

    def test_deterministic(self):
        a = rnn_init("lstm", 2, 3, 1, seed=11)
        b = rnn_init("lstm", 2, 3, 1, seed=11)
        for k, v in a.tensors().items():
            assert v.tobytes() == b.tensors()[k].tobytes()

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            rnn_init("simple_tanh", 0, 3, 1, seed=1)
        with pytest.raises(ConfigError):
            rnn_init("gru", 2, 3, 1, seed=1)


class TestRnnForward:
    def test_identity_preservation_at_init(self):
        p = rnn_init("relu_identity", 2, 4, 1, seed=3)
        p.w_ih[:] = 0.0
        fwd = rnn_forward(p, np.zeros((1, 6, 2)))
        np.testing.assert_array_equal(fwd.hidden, np.zeros((1, 6, 4)))
        assert fwd.outputs[0, 0] == p.b_o[0]

    def test_zero_network_outputs_zero(self):
        p = RnnParams("simple_tanh", 2, 3, 1, np.zeros((3, 2)), np.zeros((3, 3)),
                      np.zeros((1, 3)), np.zeros(3), np.zeros(1))
        fwd = rnn_forward(p, np.ones((1, 1, 2)))
        assert fwd.outputs[0, 0] == 0.0

    def test_hand_evaluated_chain(self):
        # h1 = tanh(1), h2 = tanh(0.5 * h1), y = 2 * h2
        fwd = rnn_forward(_tiny_tanh(), np.array([[[1.0], [0.0]]]))
        assert fwd.outputs[0, 0] == pytest.approx(0.726798968778105, abs=1e-12)
        assert fwd.hidden[0, 0, 0] == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert fwd.hidden[0, 1, 0] == pytest.approx(math.tanh(0.5 * math.tanh(1.0)), abs=1e-12)

    def test_width_mismatch(self):
        p = rnn_init("simple_tanh", 3, 2, 1, seed=1)
        with pytest.raises(DataError, match="input width 2 does not match model n_in 3"):
            rnn_forward(p, np.ones((1, 4, 2)))

    def test_single_sequence_without_batch_axis_rejected(self):
        p = rnn_init("simple_tanh", 2, 2, 1, seed=1)
        with pytest.raises(DataError, match=r"\(batch, T, n_in\)"):
            rnn_forward(p, np.ones((4, 2)))

    def test_empty_sequence(self):
        p = rnn_init("simple_tanh", 2, 2, 1, seed=1)
        with pytest.raises(DataError):
            rnn_forward(p, np.ones((1, 0, 2)))

    def test_lstm_gates_in_unit_interval(self):
        p = rnn_init("lstm", 2, 4, 1, seed=7)
        fwd = rnn_forward(p, Rng(3).uniform((5, 20, 2), -1, 1))
        for g in fwd.pre[:3]:  # input, forget and output gates, written over their pre-activations
            assert (g > 0.0).all() and (g < 1.0).all()

    def test_lstm_cell_state_bounded_on_long_bounded_inputs(self):
        p = rnn_init("lstm", 2, 4, 1, seed=7)
        fwd = rnn_forward(p, Rng(5).uniform((2, 1000, 2), -1, 1))
        assert np.isfinite(fwd.cells).all()
        f_max = fwd.pre[1].max()
        assert f_max < 1.0
        bound = 1.0 / (1.0 - f_max) + 1e-9
        assert np.abs(fwd.cells).max() <= bound


class TestLossMse:
    def test_perfect(self):
        assert loss_mse(np.array([[1.0]]), np.array([[1.0]])) == 0.0

    def test_single_cell(self):
        assert loss_mse(np.array([[0.0]]), np.array([[2.0]])) == 4.0

    def test_averages_over_dims(self):
        assert loss_mse(np.array([[1.0, 1.0]]), np.array([[0.0, 2.0]])) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"predictions \(2, 1\) and targets \(3, 1\) differ"):
            loss_mse(np.ones((2, 1)), np.ones((3, 1)))


class TestBpttGradients:
    def test_perfect_fit_is_stationary(self):
        p = RnnParams("simple_tanh", 1, 2, 1, np.zeros((2, 1)), np.zeros((2, 2)),
                      np.zeros((1, 2)), np.zeros(2), np.array([1.5]))
        x = Rng(1).uniform((4, 3, 1))
        targets = np.full((4, 1), 1.5)
        grads = bptt_gradients(p, (x, targets))
        for g in grads.values():
            assert np.abs(g).max() < 1e-10

    def test_single_timestep_matches_hand_chain_rule(self):
        p = _tiny_tanh()
        x = np.array([[[1.0]]])
        t = np.array([[0.3]])
        grads = bptt_gradients(p, (x, t))
        h = math.tanh(1.0)
        y = 2.0 * h
        dy = 2.0 * (y - 0.3)
        assert grads["w_ho"][0, 0] == pytest.approx(dy * h, rel=1e-12)
        assert grads["b_o"][0] == pytest.approx(dy, rel=1e-12)
        dh = dy * 2.0 * (1.0 - h * h)
        assert grads["w_ih"][0, 0] == pytest.approx(dh * 1.0, rel=1e-12)
        assert grads["b_h"][0] == pytest.approx(dh, rel=1e-12)
        assert grads["w_hh"][0, 0] == 0.0  # h_0 = 0

    @pytest.mark.parametrize("cell", CELLS)
    def test_matches_finite_differences(self, cell):
        assert gc.check(cell, trials=10, seed=303) < 1e-5

    def test_empty_batch_rejected(self):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=1)
        with pytest.raises(DataError):
            bptt_gradients(p, (np.zeros((0, 3, 1)), np.zeros((0, 1))))


# (batch, T, n_in, hidden, given h0); the first has the deep-memory task's
# width 1, the last the walkthrough's lstm shape (T=10 chunks of width 20, M=16)
ORACLE_SHAPES = [
    pytest.param(1, 7, 1, 4, False, id="one_sequence"),
    pytest.param(5, 1, 3, 4, False, id="one_step"),
    pytest.param(4, 9, 3, 4, True, id="given_h0"),
    pytest.param(3, 10, 20, 16, False, id="walkthrough_shape"),
]


class TestKernelsMatchPerStepReference:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("batch,t_len,n_in,hidden,with_h0", ORACLE_SHAPES)
    def test_forward_and_gradients(self, cell, batch, t_len, n_in, hidden, with_h0):
        params, x, targets = _generic_instance(cell, batch, t_len, n_in, hidden, seed=t_len)
        h0 = Rng(1).uniform((batch, hidden), 0.0, 1.0) if with_h0 else None
        hidden_ref, y_ref, grads_ref = _reference(params, x, targets, h0)

        fwd = rnn_forward(params, x, h0=h0)
        np.testing.assert_allclose(fwd.hidden, hidden_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fwd.outputs, y_ref, rtol=1e-12, atol=0)
        if h0 is None:
            grads = bptt_gradients(params, (x, targets))
        else:
            grads = rnn._backward(params, fwd, targets, {})
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            ref = grads_ref[name]
            assert g.shape == ref.shape
            # a gradient entry is a sum over steps and samples, now taken in
            # another order: an entry that cancels to far below its tensor's
            # scale keeps the absolute error of that scale, not its own
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("batch", [1, 3])  # one sequence is time-major as given
    def test_gradients_leave_arguments_unchanged_and_repeat(self, cell, batch):
        params, x, targets = _generic_instance(cell, batch, 6, 2)
        before = {k: v.copy() for k, v in params.tensors().items()}
        x_before, t_before = x.copy(), targets.copy()
        first = bptt_gradients(params, (x, targets))
        second = bptt_gradients(params, (x, targets))
        for k, v in params.tensors().items():
            assert v.tobytes() == before[k].tobytes()
        assert x.tobytes() == x_before.tobytes()
        assert targets.tobytes() == t_before.tobytes()
        for k in first:
            assert first[k].tobytes() == second[k].tobytes()

    def test_gradient_oracle_catches_a_skewed_gate_factor(self, monkeypatch):
        assert gc.check("lstm", trials=5, seed=303) < 1e-5
        exact = rnn._lstm_factors

        def skewed(fwd, spare):
            carry = exact(fwd, spare)
            fwd.pre[0] *= 1.0 + 1e-4  # the input gate's factor g*i*(1-i)
            return carry

        monkeypatch.setattr(rnn, "_lstm_factors", skewed)
        assert gc.check("lstm", trials=5, seed=303) > 1e-5

    def test_gradient_oracle_fails_a_nan_gradient(self, monkeypatch):
        exact = rnn.bptt_gradients

        def poisoned(params, batch):
            grads = exact(params, batch)
            grads["w_hh"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(rnn, "bptt_gradients", poisoned)
        assert gc.check("simple_tanh", trials=3, seed=303) >= gc.DEFAULT_THRESHOLD

    @pytest.mark.parametrize("scope", ("mf",) + CELLS)
    def test_oracle_equals_the_flat_vector_one_and_restores_its_arrays(self, scope):
        for trial in range(8):
            rng = Rng(derive_seed(7, f"gradcheck/{scope}/{trial}"))
            loss, params, _ = gc._draw_mf(rng) if scope == "mf" else gc._draw_rnn(scope, rng)
            before = {k: v.copy() for k, v in params.items()}
            reference = _flat_central_difference(loss, params)
            assert gc.central_difference(loss, params).tobytes() == reference.tobytes()
            for k, v in params.items():
                assert v.tobytes() == before[k].tobytes()

    def test_oracle_moves_the_entries_of_a_strided_array_in_c_order(self):
        a = np.arange(1.0, 7.0).reshape(2, 3).T  # a (3, 2) view, not C-contiguous
        weights = np.arange(6.0).reshape(3, 2)
        numeric = gc.central_difference(lambda t: float(np.sum(weights * t["a"])), {"a": a})
        np.testing.assert_allclose(numeric, weights.reshape(-1), rtol=1e-9, atol=1e-9)
        assert a.tobytes() == np.arange(1.0, 7.0).reshape(2, 3).T.tobytes()

    @pytest.mark.parametrize("threshold", [1e-5, 1e-300, 1e-320])
    def test_error_reaches_the_threshold_only_at_the_noise_floor(self, threshold):
        # |a - n| of 5e-4 and 2e-3 are both far past any threshold relative to |a| = 1,
        # but only the second clears the oracle's noise floor of 1e-3
        def err(n):
            return gc.max_relative_error(np.array([1.0]), np.array([n]), 1e-3, threshold)

        assert 0 < err(1.0005) < threshold <= err(1.002)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_is_an_infinite_error(self, bad):
        # no RuntimeWarning either: the suite turns those into errors
        assert gc.max_relative_error(np.array([bad, 2.0]), np.array([1.0, 2.0]), 1e-9) == np.inf
        assert gc.max_relative_error(np.array([1.0, 2.0]), np.array([1.0, bad]), 1e-9) == np.inf


def _full_length_lstm_factors(fwd, _chunk):
    """The lstm's derivative factors formed over all T steps at once, the forget gate kept in a
    full-length array and then copied over c_0 .. c_{T-1}: the oracle of the chunked form, which
    takes the same arguments but leaves the chunk scratch unused."""
    spare = np.empty_like(fwd.tanh_c)
    i, f, o, g = fwd.pre
    np.subtract(1.0, i, out=spare)
    spare *= i
    spare *= g
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i
    np.copyto(i, spare)
    np.subtract(1.0, o, out=spare)
    spare *= o
    spare *= fwd.tanh_c
    carry = fwd.tanh_c
    carry *= carry
    np.subtract(1.0, carry, out=carry)
    carry *= o
    np.copyto(o, spare)
    np.copyto(spare, f)
    np.subtract(1.0, f, out=f)
    f *= spare
    f *= fwd.cells[:-1]
    np.copyto(fwd.cells[:-1], spare)
    return carry


class TestChunkedLstmFactors:
    # T of one step, around one chunk of 16, around two, and more than six; one sequence and many
    @pytest.mark.parametrize("t_len", [1, 15, 16, 17, 33, 100])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_gradients_equal_the_full_length_factors_bit_for_bit(self, batch, t_len,
                                                                 monkeypatch):
        params, x, targets = _generic_instance("lstm", batch, t_len, 3, seed=t_len)
        ws = {}
        # a fresh workspace, then the same one again, holding the spent buffers of the first
        chunked = [bptt_gradients(params, (x, targets), workspace=ws) for _ in range(2)]
        assert ws["spare"].shape == (min(t_len, 16), batch, params.n_hidden)
        monkeypatch.setattr(rnn, "_lstm_factors", _full_length_lstm_factors)
        expected = bptt_gradients(params, (x, targets))
        for grads in chunked:
            for name, g in expected.items():
                assert grads[name].tobytes() == g.tobytes(), name


def _flat_central_difference(loss, params):
    """The oracle on one flat vector: f(theta + bump) and f(theta - bump) for a one-hot bump of
    h per coordinate, each vector cut back into arrays shaped and named as ``params``."""
    theta = np.concatenate([a.reshape(-1) for a in params.values()])
    cuts = np.cumsum([a.size for a in params.values()])[:-1]

    def f(t):
        return loss({k: part.reshape(a.shape)
                     for (k, a), part in zip(params.items(), np.split(t, cuts))})

    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = gc._STEP
        grad[i] = (f(theta + bump) - f(theta - bump)) / (2.0 * gc._STEP)
    return grad


def _hypot_norm(grads):
    """A reference global L2 norm: ``math.hypot`` over every entry, which never overflows early."""
    return math.hypot(*(x for g in grads.values() for x in g.ravel().tolist()))


@st.composite
def _lstm_gradients(draw):
    """The five paper-shape lstm gradient tensors, magnitudes within 1e-100..1e100, some rows zero:
    the plain sum of squares stays finite and normal."""
    lo, hi = sorted(draw(st.floats(-100.0, 100.0)) for _ in range(2))
    rng = Rng(draw(st.integers(0, 2 ** 32 - 1)))
    grads = {}
    for name, value in rnn_init("lstm", 20, 16, 1, seed=0).tensors().items():
        g = 10.0 ** rng.uniform(value.shape, lo, hi) * np.sign(rng.uniform(value.shape, -1, 1))
        g[rng.uniform(len(g)) < 0.2] = 0.0
        grads[name] = g
    return grads


class TestClipGradients:
    @given(_lstm_gradients(), st.floats(1e-3, 1e3))
    @example({"a": np.array([3.0]), "b": np.array([4.0])}, 1.0)  # norm 5: scaled to 1
    @example({"a": np.array([0.3]), "b": np.array([0.4])}, 1.0)  # norm 0.5: unchanged
    @example({"a": np.zeros(3)}, 1.0)
    @example({}, 1.0)
    @example({"a": np.zeros((0, 3)), "b": np.array([0.5])}, 1.0)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_plain_expressions_bit_for_bit(self, grads, clip):
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        out = clip_gradients(grads, clip)
        assert (out is grads) == (norm <= clip)
        if out is not grads:
            assert out.keys() == grads.keys()
            for name, v in grads.items():
                assert out[name].tobytes() == (v * (clip / norm)).tobytes(), name

    def test_overflowing_squared_norm_still_rescales_to_the_threshold(self):
        # the squares of 3e154 and 4e154 overflow; the plain norm is inf and scales by 0
        grads = {"a": np.array([3e154, 4e154]), "b": np.array([1.0])}
        assert _hypot_norm(grads) == pytest.approx(5e154, rel=1e-15)
        with np.errstate(over="ignore", invalid="ignore"):  # as in train
            out = clip_gradients(grads, 1.0)
        assert out["a"].tolist() == [0.6000000000000001, 0.8] and out["b"].tolist() == [2e-155]

    def test_norm_above_the_largest_float_still_rescales_to_the_threshold(self):
        # the norm 2.1e308 itself overflows; clip_norm / inf = 0 would zero the step
        grads = {"a": np.array([1.5e308, 1.5e308])}
        assert _hypot_norm(grads) == np.inf
        with np.errstate(over="ignore", invalid="ignore"):  # as in train
            out = clip_gradients(grads, 1.0)
        assert out["a"].tolist() == [0.7071067811865476] * 2
        assert _hypot_norm(out) == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_norm_with_a_non_finite_gradient_stays_inf(self):
        # the infinite norm scales by 0: the finite entry is zeroed, inf * 0 is nan, and
        # sgd_step then raises DivergenceError
        grads = {"a": np.array([3e154, np.inf])}
        with np.errstate(over="ignore", invalid="ignore"):
            out = clip_gradients(grads, 1.0)
        np.testing.assert_array_equal(out["a"], [0.0, np.nan])

    def test_a_nan_gradient_makes_every_tensor_nan(self):
        out = clip_gradients({"a": np.array([1.0, np.nan]), "b": np.array([2.0])}, 1.0)
        assert all(np.isnan(v).all() for v in out.values())

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_never_exceeds(self, seed, clip):
        rng = Rng(seed)
        grads = {"w": rng.gaussian((3, 4), 0, 5.0), "b": rng.gaussian(4, 0, 5.0)}
        out = clip_gradients(grads, clip)
        assert _hypot_norm(out) <= clip + 1e-12

    def test_default_clip_policy(self, monkeypatch):
        # clip_norm="default" clips the relu and tanh cells at 1.0 and never the lstm
        bounds = []
        monkeypatch.setattr(rnn, "clip_gradients",
                            lambda grads, clip_norm: bounds.append(clip_norm) or grads)
        x, targets = Rng(2).uniform((3, 4, 2)), Rng(3).uniform((3, 1))
        for cell in CELLS:
            bounds.clear()
            train(rnn_init(cell, 2, 3, 1, seed=1), SequenceBatch(x, targets), None,
                  RnnSettings(learning_rate=0.01, epochs=2))
            assert bounds == ([] if cell == "lstm" else [1.0, 1.0])


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=4)
        grads = {k: np.ones_like(v) for k, v in p.tensors().items()}
        out = sgd_step(p, grads, 0.0)
        for k, v in out.tensors().items():
            assert v.tobytes() == p.tensors()[k].tobytes()

    def test_scalar_arithmetic(self):
        p = RnnParams("simple_tanh", 1, 1, 1, np.array([[1.0]]), np.array([[1.0]]),
                      np.array([[1.0]]), np.zeros(1), np.zeros(1))
        grads = {"w_ih": np.array([[0.5]]), "w_hh": np.zeros((1, 1)),
                 "w_ho": np.zeros((1, 1)), "b_h": np.zeros(1), "b_o": np.zeros(1)}
        out = sgd_step(p, grads, 0.1)
        assert out.w_ih[0, 0] == pytest.approx(0.95)

    def test_deterministic(self):
        p = rnn_init("lstm", 2, 3, 1, seed=8)
        grads = bptt_gradients(p, (Rng(2).uniform((3, 4, 2)), Rng(3).uniform((3, 1))))
        a = sgd_step(p, grads, 0.01)
        b = sgd_step(p, grads, 0.01)
        for k in a.tensors():
            assert a.tensors()[k].tobytes() == b.tensors()[k].tobytes()

    def test_non_finite_raises(self):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=4)
        grads = {k: np.full_like(v, np.inf) for k, v in p.tensors().items()}
        with pytest.raises(DivergenceError):
            sgd_step(p, grads, 0.1)


class TestRnnSettings:
    @pytest.mark.parametrize("field,value", [
        ("cell", "gru"), ("hidden", 0), ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("epochs", -1), ("clip_norm", 0.0),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RnnSettings(**{field: value})


class TestTrain:
    def _toy(self, n=4, t_len=3, seed=5):
        rng = Rng(seed)
        x = rng.uniform((n, t_len, 2), -1, 1)
        targets = x.sum(axis=(1, 2), keepdims=False)[:, None] * 0.1
        return SequenceBatch(x, targets)

    def test_zero_epochs(self):
        p = rnn_init("simple_tanh", 2, 3, 1, seed=1)
        out, curve = train(p, self._toy(), None, RnnSettings(learning_rate=0.1, epochs=0))
        assert len(curve) == 0
        for k, v in out.tensors().items():
            assert v.tobytes() == p.tensors()[k].tobytes()

    def test_descends_on_toy_problem(self):
        p = rnn_init("simple_tanh", 2, 3, 1, seed=1)
        _, curve = train(p, self._toy(), None,
                         RnnSettings(learning_rate=0.05, epochs=200, clip_norm=1.0))
        assert curve.records[-1].train_loss < curve.records[0].train_loss

    def test_curve_is_deterministic(self):
        batch = self._toy()
        cfg = RnnSettings(learning_rate=0.05, epochs=50, clip_norm=1.0)
        curves = []
        for _ in range(2):
            p = rnn_init("simple_tanh", 2, 3, 1, seed=1)
            _, curve = train(p, batch, None, cfg)
            curves.append([r.train_loss for r in curve.records])
        assert curves[0] == curves[1]

    def test_validation_losses_recorded(self):
        batch = self._toy(n=6)
        p = rnn_init("simple_tanh", 2, 3, 1, seed=1)
        _, curve = train(p, batch.subset_by_samples(range(4)), batch.subset_by_samples([4, 5]),
                         RnnSettings(learning_rate=0.05, epochs=10, clip_norm=1.0))
        assert all(r.val_loss is not None for r in curve.records)

    def test_an_overflowing_squared_norm_still_takes_a_step(self):
        # a clip scale of clip_norm / inf = 0 would leave every tensor as it was
        out, curve = train(_overflowing_readout(), ONE_STEP, None,
                           RnnSettings(learning_rate=1e-3, epochs=1))
        assert out.w_ih[0, 0] == pytest.approx(1.0 - 1e-3 * 2 / 24 ** 0.5, rel=1e-12)
        assert len(curve) == 1

    def test_a_norm_above_the_largest_float_still_takes_a_step(self):
        # one step, h_1 = 1 and y = 9e153: d_wih = d_bh = 2 * y * w_ho = 1.62e308, so the norm is
        # 2.3e308; clipped at 1.0 they are 1/sqrt(2) each
        params = replace(_overflowing_readout(), w_ho=np.array([[9e153]]))
        out, curve = train(params, SequenceBatch(np.ones((1, 1, 1)), np.zeros((1, 1))), None,
                           RnnSettings(learning_rate=1e-3, epochs=1))
        assert out.w_ih[0, 0] == pytest.approx(1.0 - 1e-3 * 0.5 ** 0.5, rel=1e-12)
        assert out.b_h[0] == pytest.approx(-1e-3 * 0.5 ** 0.5, rel=1e-12)
        assert len(curve) == 1

    def test_overflowing_validation_loss_is_a_divergence(self):
        # the suite makes a RuntimeWarning an error, so none may leak from the validation pass
        val = SequenceBatch(np.array([[[1e5], [0.0]]]), np.zeros((1, 1)))
        with pytest.raises(DivergenceError) as exc:
            train(_overflowing_readout(), ONE_STEP, val, RnnSettings(learning_rate=1e-3, epochs=2))
        assert str(exc.value) == "validation loss became non-finite (epoch 0)"
        assert len(exc.value.curve) == 0

    def test_divergence_carries_epoch(self):
        batch = self._toy()
        p = rnn_init("relu_identity", 2, 3, 1, seed=1)
        p.w_hh[:] = np.eye(3) * 40.0  # explosive recurrence
        with pytest.raises(DivergenceError) as exc:
            train(p, SequenceBatch(batch.inputs * 1e3, batch.targets), None,
                  RnnSettings(learning_rate=1e6, epochs=50, clip_norm=None))
        assert str(exc.value).endswith(f"(epoch {len(exc.value.curve)})")


def _reference_train(params, train_batch, val_batch, settings):
    """``train``'s loop with every pass freshly allocated: no workspace anywhere.

    Returns (params, curve rows, clip events, the epoch that diverged or None).
    """
    clip_norm = settings.clip_norm
    if clip_norm == "default":
        clip_norm = None if params.cell == "lstm" else 1.0
    x, targets = train_batch.inputs, train_batch.targets
    rows, clipped = [], 0
    for epoch in range(settings.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            grads = bptt_gradients(params, (x, targets))
            if clip_norm is not None:
                clipped += _hypot_norm(grads) > clip_norm
                grads = clip_gradients(grads, clip_norm)
            try:
                params = sgd_step(params, grads, settings.learning_rate)
            except DivergenceError:
                return params, rows, clipped, epoch
            train_loss = loss_mse(rnn_forward(params, x).outputs, targets)
            if not np.isfinite(train_loss):
                return params, rows, clipped, epoch
            val_loss = None
            if val_batch is not None:
                val_loss = loss_mse(rnn_forward(params, val_batch.inputs).outputs,
                                    val_batch.targets)
                if not np.isfinite(val_loss):
                    return params, rows, clipped, epoch
        rows.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
    return params, rows, clipped, None


def _split_instance(cell, seed=0):
    """A generic instance cut into a 5-sequence training and a 3-sequence validation batch."""
    params, x, targets = _generic_instance(cell, 8, 7, 2, seed=seed)
    return params, SequenceBatch(x[:5], targets[:5]), SequenceBatch(x[5:], targets[5:])


def _pass_arrays(fwd):
    return {name: getattr(fwd, name) for name in ("x", "states", "pre", "outputs", "cells",
                                                  "tanh_c")
            if getattr(fwd, name) is not None}


class TestTrainMatchesFreshlyAllocatedLoop:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("with_val", [False, True], ids=["no_val", "val"])
    @pytest.mark.parametrize("clip_norm", [None, 0.02], ids=["no_clip", "clip"])
    def test_params_and_curve_bit_identical(self, cell, with_val, clip_norm):
        params, train_batch, val_batch = _split_instance(cell)
        val_batch = val_batch if with_val else None
        settings = RnnSettings(cell=cell, learning_rate=0.05, epochs=12, clip_norm=clip_norm)
        ref_params, ref_rows, clipped, diverged = _reference_train(params, train_batch,
                                                                   val_batch, settings)
        assert diverged is None
        assert (clipped > 0) == (clip_norm is not None)
        out, curve = train(params, train_batch, val_batch, settings)
        for name, value in out.tensors().items():
            assert value.tobytes() == ref_params.tensors()[name].tobytes(), name
        assert curve.to_rows() == ref_rows

    @pytest.mark.parametrize("learning_rate,epoch", [(50.0, 5), (100.0, 3)],
                             ids=["non_finite_parameter", "non_finite_loss"])
    def test_divergence_at_the_same_epoch_with_the_same_partial_curve(self, learning_rate,
                                                                      epoch):
        params, train_batch, val_batch = _split_instance("relu_identity")
        settings = RnnSettings(learning_rate=learning_rate, epochs=40, clip_norm=None)
        _, ref_rows, _, diverged = _reference_train(params, train_batch, val_batch, settings)
        assert diverged == epoch  # mid-training, not at the first step
        with pytest.raises(DivergenceError) as exc:
            train(params, train_batch, val_batch, settings)
        assert str(exc.value).endswith(f"(epoch {epoch})")
        assert exc.value.curve.to_rows() == ref_rows


class TestForwardWorkspace:
    @pytest.mark.parametrize("cell", CELLS)
    def test_training_passes_reuse_one_set_of_buffers(self, cell, monkeypatch):
        params, train_batch, val_batch = _split_instance(cell)
        passes = []  # every pass stays alive, so no address can be recycled
        forward = rnn.rnn_forward

        def keep(*args, **kwargs):
            fwd = forward(*args, **kwargs)
            passes.append(fwd)
            return fwd

        monkeypatch.setattr(rnn, "rnn_forward", keep)
        epochs = 4
        train(params, train_batch, val_batch, RnnSettings(cell=cell, epochs=epochs))
        assert len(passes) == 3 * epochs  # gradient pass, post-step loss, validation
        fitting = [fwd for k, fwd in enumerate(passes) if k % 3 != 2]
        checking = passes[2::3]
        for group in (fitting, checking):
            for name, first in _pass_arrays(group[0]).items():
                if name != "outputs":
                    assert all(getattr(fwd, name) is first for fwd in group[1:]), name
        for name, array in _pass_arrays(fitting[0]).items():
            assert not np.shares_memory(array, getattr(checking[0], name)), name

    @pytest.mark.parametrize("cell", CELLS)
    def test_pass_without_workspace_is_never_modified_later(self, cell):
        params, batch, _ = _split_instance(cell)
        x, targets = batch.inputs, batch.targets
        fwd = rnn_forward(params, x)
        before = {name: a.copy() for name, a in _pass_arrays(fwd).items()}
        x[:] = 0.5  # the pass holds its own copy of the inputs
        bptt_gradients(params, (x, targets))
        rnn_forward(params, x)
        train(params, batch, None, RnnSettings(cell=cell, epochs=2))
        for name, a in _pass_arrays(fwd).items():
            assert a.tobytes() == before[name].tobytes(), name

    def test_one_workspace_across_shapes_and_cells_matches_fresh_passes(self):
        workspace = {}
        runs = [("lstm", 3, 6, 2), ("lstm", 4, 6, 2), ("lstm", 6, 4, 2),  # same size, new shape
                ("lstm", 6, 9, 2), ("simple_tanh", 6, 9, 2), ("relu_identity", 2, 9, 3),
                ("lstm", 3, 6, 2)]
        for k, (cell, batch, t_len, n_in) in enumerate(runs):
            params, x, targets = _generic_instance(cell, batch, t_len, n_in, seed=k)
            fresh, kept = rnn_forward(params, x), rnn_forward(params, x, workspace=workspace)
            assert kept.states is workspace["states"]
            for name, a in _pass_arrays(fresh).items():
                assert getattr(kept, name).tobytes() == a.tobytes(), (k, name)
            fresh = bptt_gradients(params, (x, targets))
            kept = bptt_gradients(params, (x, targets), workspace=workspace)
            for name, g in fresh.items():
                assert kept[name].tobytes() == g.tobytes(), (k, name)


class TestPredict:
    def test_constant_network(self):
        p = RnnParams("simple_tanh", 1, 2, 1, np.zeros((2, 1)), np.zeros((2, 2)),
                      np.zeros((1, 2)), np.zeros(2), np.array([0.7]))
        preds = predict(p, Rng(1).uniform((5, 4, 1)))
        np.testing.assert_allclose(preds, np.full((5, 1), 0.7))

    def test_batch_order_permutes_predictions(self):
        p = rnn_init("lstm", 2, 3, 1, seed=6)
        x = Rng(9).uniform((6, 5, 2))
        preds = predict(p, x)
        perm = Rng(1).permutation(6)
        np.testing.assert_array_equal(predict(p, x[perm]), preds[perm])

    def test_consistent_with_forward(self):
        fwd = rnn_forward(_tiny_tanh(), np.array([[[1.0], [0.0]]]))
        preds = predict(_tiny_tanh(), np.array([[[1.0], [0.0]]]))
        assert preds[0, 0] == fwd.outputs[0, 0]

    def test_empty_batch_rejected(self):
        p = rnn_init("lstm", 2, 3, 1, seed=1)
        with pytest.raises(DataError, match="empty batch"):
            predict(p, np.zeros((0, 4, 2)))


class TestInferencePass:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("t_len", [1, 2, 9])  # h_T sits at index T mod 2: 1, 0 and 1
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("with_h0", [False, True], ids=["zero_h0", "given_h0"])
    def test_outputs_equal_the_training_pass_bit_for_bit(self, cell, t_len, batch, with_h0):
        params, x, _ = _generic_instance(cell, batch, t_len, 3, seed=t_len + batch)
        h0 = Rng(1).uniform((batch, params.n_hidden), 0.0, 1.0) if with_h0 else None
        full = rnn_forward(params, x, h0=h0)
        kept = rnn_forward(params, x, h0=h0, _inference=True)
        assert kept.states.shape[0] == 2 and full.states.shape[0] == t_len + 1
        assert kept.outputs.tobytes() == full.outputs.tobytes()
        if not with_h0:
            assert predict(params, x).tobytes() == full.outputs.tobytes()


# decimal exponents of an input's magnitude: any, or where the plain squares are subnormal,
# or where the plain sums overflow
_MAGNITUDE_EXPONENTS = st.one_of(st.integers(-320, 308), st.integers(-164, -152),
                                 st.integers(300, 308))


def _exact_r(p, a) -> float:
    """Pearson r of two float vectors in rational arithmetic, up to its final float square root."""
    pc, ac = ([Fraction(x) - sum(map(Fraction, v)) / len(v) for x in v] for v in (p, a))
    dot = sum(x * y for x, y in zip(pc, ac))
    r = math.sqrt(dot * dot / (sum(x * x for x in pc) * sum(y * y for y in ac)))
    return r if dot >= 0 else -r


class TestPearsonCorrelation:
    def test_self_correlation(self):
        assert pearson_correlation([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson_correlation([1.0, 2.0, 0.5], [-1.0, -2.0, -0.5]) == pytest.approx(-1.0)

    def test_affine_relation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_constant_input_not_applicable(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) is None

    def test_too_short(self):
        assert pearson_correlation([1.0], [2.0]) is None

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["squares_overflow", "squares_underflow"])
    def test_affine_inputs_at_extreme_magnitudes(self, scale):
        # the centred squares overflow or underflow; the rescaled vectors give the same r
        assert pearson_correlation([scale, 2 * scale, 4 * scale], [1, 2, 4]) == 1.0
        assert pearson_correlation([1, 2, 4], [-scale, -2 * scale, -4 * scale]) == -1.0
        assert (pearson_correlation([scale, 2 * scale, 4 * scale], [4, 2, 1])
                == pytest.approx(pearson_correlation([1, 2, 4], [4, 2, 1]), rel=1e-15))

    @pytest.mark.parametrize("pred", [[1.0, 1.5, 1.7], [1.0, 1.5, -1.7, -1.7]],
                             ids=["same_sign", "mixed_sign"])
    def test_inputs_whose_sum_overflows(self, pred):
        # times 1e308 the plain mean is inf or nan; scaled before centring, the r stays put
        actual = np.arange(1.0, len(pred) + 1)
        r = pearson_correlation(np.multiply(pred, 1e308), actual)
        assert r == pytest.approx(pearson_correlation(pred, actual), rel=1e-15)

    def test_inputs_whose_squares_are_subnormal(self):
        # times 1e-160 the plain squares are subnormal and lose bits; scaled first, r stays put
        r = pearson_correlation([1e-160, 2e-160, 3.5e-160], [1, 2, 3])
        assert r == pytest.approx(pearson_correlation([1, 2, 3.5], [1, 2, 3]), abs=1e-15)

    @pytest.mark.parametrize("pred", [[np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0], [np.inf, -np.inf, 2.0]],
                             ids=["nan", "inf", "both_infinities"])
    def test_non_finite_input_gives_nan_without_a_warning(self, pred):
        assert math.isnan(pearson_correlation(pred, [1.0, 2.0, 3.0]))
        assert math.isnan(pearson_correlation([1.0, 2.0, 3.0], pred))

    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                    min_size=2, max_size=12), _MAGNITUDE_EXPONENTS, _MAGNITUDE_EXPONENTS)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_exact_r_at_any_finite_magnitude(self, pairs, p_exp, a_exp):
        # integer grids scaled to magnitudes from 1e-323 to 1e308; the reference is the exact
        # r of the rounded floats, so only the function's own arithmetic can miss it
        p = [float(Fraction(k, 1000) * Fraction(10) ** p_exp) for k, _ in pairs]
        a = [float(Fraction(k, 1000) * Fraction(10) ** a_exp) for _, k in pairs]
        assume(len(set(p)) > 1 and len(set(a)) > 1)
        exact = _exact_r(p, a)
        assume(abs(abs(exact) - (1 - CORRELATION_SNAP)) > 1e-15)  # clear of the snap's edge
        expected = math.copysign(1.0, exact) if abs(exact) > 1 - CORRELATION_SNAP else exact
        assert abs(pearson_correlation(p, a) - expected) <= 1e-15

    @given(st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=200), st.integers(1, 2**15),
           st.sampled_from([1.0, -1.0]), st.integers(-2**20, 2**20), st.integers(-60, 60),
           st.integers(-60, 60))
    @settings(max_examples=300, deadline=None)
    def test_exactly_affine_inputs_give_exactly_one(self, x, a, sign, b, x_exp, y_exp):
        # y = a*x + b is exact (|y| < 2^36), and so is each power-of-two scale
        assume(len(set(x)) > 1)
        x = np.array(x, dtype=np.float64)
        y = sign * a * x + b
        assert pearson_correlation(np.ldexp(x, x_exp), np.ldexp(y, y_exp)) == sign

    @pytest.mark.parametrize("pred, actual", [([0, 1, 2, 3], [0, 1, 2, 3.000001]),
                                              ([0, 1e6, 1], [0, 1e6, 2])])
    def test_an_almost_perfect_correlation_is_not_snapped(self, pred, actual):
        # exact r 0.99999999999997 and 0.999999999999625: thousands of ulps inside +/-1
        for sign in (1.0, -1.0):
            r = pearson_correlation(pred, np.multiply(sign, actual))
            assert abs(r) < 1.0 and abs(r - _exact_r(pred, np.multiply(sign, actual))) <= 1e-15

    def test_ordinary_inputs_take_the_plain_path_bit_for_bit(self):
        p, a = Rng(3).gaussian(50), Rng(4).gaussian(50)
        pc, ac = p - p.mean(), a - a.mean()
        plain = float(np.dot(pc, ac) / (np.sqrt(np.sum(pc * pc)) * np.sqrt(np.sum(ac * ac))))
        assert pearson_correlation(p, a) == plain


class TestIdentityMemory:
    def test_nonnegative_state_propagates_bitwise(self):
        p = rnn_init("relu_identity", 2, 8, 1, seed=12)
        p.w_ih[:] = 0.0
        h0 = Rng(4).uniform(8, 0.0, 3.0)
        fwd = rnn_forward(p, Rng(5).uniform((1, 250, 2), -1, 1), h0=h0)
        for t in range(250):
            assert fwd.hidden[0, t].tobytes() == h0.tobytes()


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
    # B >= M, so every (M, M) or (batch, M) array is at most one step's state
    BATCH, T, N_IN, HIDDEN = 32, 200, 2, 8

    def _instance(self, cell):
        return _generic_instance(cell, self.BATCH, self.T, self.N_IN, self.HIDDEN)

    def test_lstm_training_workspace_holds_seven_full_length_arrays_and_a_16_step_scratch(self):
        # pre (4), states, cells and tanh_c, each (T, B, M); states and cells keep one step
        # more, h_0 and c_0; the time-major inputs; and the backward's 16 steps of scratch
        params, x, targets = self._instance("lstm")
        ws = {}
        bptt_gradients(params, (x, targets), workspace=ws)
        unit, step = self.T * self.BATCH * self.HIDDEN, self.BATCH * self.HIDDEN
        total = sum(a.nbytes for a in ws.values())
        assert total == 8 * (7 * unit + 2 * step + self.T * self.BATCH * self.N_IN + 16 * step)

    @pytest.mark.parametrize("cell", CELLS)
    def test_predict_holds_its_pre_activations_inputs_and_a_few_steps(self, cell):
        params, x, _ = self._instance(cell)
        predict(params, x)  # warm up
        pre = (4 if cell == "lstm" else 1) * self.T * self.BATCH * self.HIDDEN * 8
        # slack: numpy's buffer for the transposing copy of x, and a few (batch, M) steps
        slack = 8 * np.getbufsize() + 8 * self.BATCH * self.HIDDEN * 8
        assert _traced_peak(lambda: predict(params, x)) <= pre + x.nbytes + slack

    @pytest.mark.parametrize("cell", CELLS)
    def test_epochs_after_the_first_make_no_buffer(self, cell, monkeypatch):
        made = []
        lend = rnn.buffer

        def counting(workspace, name, shape):
            before = workspace.get(name)
            out = lend(workspace, name, shape)
            made.append(out is not before)
            return out

        monkeypatch.setattr(rnn, "buffer", counting)
        params, train_batch, val_batch = _split_instance(cell)
        counts = []
        for epochs in (1, 4):
            made.clear()
            train(params, train_batch, val_batch, RnnSettings(cell=cell, epochs=epochs))
            counts.append(sum(made))
        assert counts[0] == counts[1] > 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = rnn_init("lstm", 3, 4, 2, seed=77)
        grads = bptt_gradients(p, (Rng(2).uniform((3, 5, 3)), Rng(3).uniform((3, 2))))
        p = sgd_step(p, grads, 0.037)  # land on non-round values
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.cell == p.cell and q.n_hidden == p.n_hidden
        for k in p.tensors():
            assert q.tensors()[k].tobytes() == p.tensors()[k].tobytes()
        x = Rng(9).uniform((4, 6, 3))
        assert predict(q, x).tobytes() == predict(p, x).tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, value):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        doc = json.loads(path.read_text())
        doc["tensors"]["w_ho"]["data"][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="w_ho"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        doc = path.read_text().replace(CHECKPOINT_VERSION, "genoseq-rnn-v0")
        path.write_text(doc)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_v1_checkpoint_rejected_by_version(self, tmp_path):
        p = rnn_init("simple_tanh", 1, 2, 1, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        doc = json.loads(path.read_text())
        del doc["snps"]  # a v1 checkpoint did not record the SNP count
        path.write_text(json.dumps({**doc, "version": "genoseq-rnn-v1"}))
        with pytest.raises(ConfigError, match="unsupported checkpoint version 'genoseq-rnn-v1'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("snps", [None, 1, 40])
    def test_snps_round_trip(self, tmp_path, snps):
        p = replace(rnn_init("simple_tanh", 8, 2, 1, seed=1), snps=snps)
        save_checkpoint(p, tmp_path / "model.json")
        assert load_checkpoint(tmp_path / "model.json").snps == snps

    @pytest.mark.parametrize("snps", [0, -3, 4.0, "40", True, [40]])
    def test_bad_snps_rejected(self, tmp_path, snps):
        path = tmp_path / "model.json"
        save_checkpoint(rnn_init("simple_tanh", 1, 2, 1, seed=1), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "snps": snps}))
        with pytest.raises(ParseError, match="snps"):
            load_checkpoint(path)

    def test_missing_snps_entry_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(rnn_init("simple_tanh", 1, 2, 1, seed=1), path)
        doc = json.loads(path.read_text())
        del doc["snps"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="lacks the entry 'snps'"):
            load_checkpoint(path)


class TestTrainingCurveCsv:
    def test_layout(self, tmp_path):
        x = Rng(5).uniform((4, 3, 2), -1, 1)
        targets = Rng(6).uniform((4, 1))
        p = rnn_init("simple_tanh", 2, 3, 1, seed=1)
        batch = SequenceBatch(x, targets)
        _, curve = train(p, batch, batch,
                         RnnSettings(learning_rate=0.05, epochs=3, clip_norm=1.0))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_cells_of_each_type(self, tmp_path):
        # an int in decimal, a float by repr (a numpy float too) and no validation loss empty
        records = [rnn.EpochRecord(0, 0.1), rnn.EpochRecord(1, np.float64(1e-17), 2.5)]
        rnn.TrainingCurve(records).to_csv(tmp_path / "curve.csv")
        expected = b"epoch,train_loss,val_loss\n0,0.1,\n1,1e-17,2.5\n"
        assert (tmp_path / "curve.csv").read_bytes() == expected
