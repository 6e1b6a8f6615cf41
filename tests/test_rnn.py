import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genoseq.gradcheck as gc
from genoseq import rnn
from genoseq.data import SequenceBatch
from genoseq.errors import ConfigError, DataError, DivergenceError, ParseError, ShapeError
from genoseq.linalg import Rng
from genoseq.rnn import (CELLS, CHECKPOINT_VERSION, LSTM_FORGET_BIAS, RnnParams, RnnSettings,
                         bptt_gradients, clip_gradients, gradient_norm,
                         load_checkpoint, loss_mse, pearson_correlation, predict,
                         rnn_forward, rnn_init, save_checkpoint, sgd_step, train)


def _tiny_tanh(w_ih=1.0, w_hh=0.5, w_ho=2.0):
    return RnnParams("simple_tanh", 1, 1, 1,
                     np.array([[w_ih]]), np.array([[w_hh]]), np.array([[w_ho]]),
                     np.zeros(1), np.zeros(1))


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
        with pytest.raises(ShapeError):
            rnn_forward(p, np.ones((1, 4, 2)))

    def test_single_sequence_without_batch_axis_rejected(self):
        p = rnn_init("simple_tanh", 2, 2, 1, seed=1)
        with pytest.raises(ShapeError, match=r"\(batch, T, n_in\)"):
            rnn_forward(p, np.ones((4, 2)))

    def test_empty_sequence(self):
        p = rnn_init("simple_tanh", 2, 2, 1, seed=1)
        with pytest.raises(DataError):
            rnn_forward(p, np.ones((1, 0, 2)))

    def test_lstm_gates_in_unit_interval(self):
        p = rnn_init("lstm", 2, 4, 1, seed=7)
        fwd = rnn_forward(p, Rng(3).uniform((5, 20, 2), -1, 1))
        for g in fwd.acts[:3]:  # input, forget and output gates
            assert (g > 0.0).all() and (g < 1.0).all()

    def test_lstm_cell_state_bounded_on_long_bounded_inputs(self):
        p = rnn_init("lstm", 2, 4, 1, seed=7)
        fwd = rnn_forward(p, Rng(5).uniform((2, 1000, 2), -1, 1))
        assert np.isfinite(fwd.cells).all()
        f_max = fwd.acts[1].max()
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
        with pytest.raises(ShapeError):
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
            grads = rnn._backward(params, fwd, targets)
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

        def skewed(fwd):
            carry = exact(fwd)
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


class TestClipGradients:
    def test_scales_down_to_clip_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # norm 5
        out = clip_gradients(grads, 1.0)
        assert gradient_norm(out) == pytest.approx(1.0, abs=1e-12)
        assert out["a"][0] == pytest.approx(0.6)

    def test_under_threshold_unchanged_bitwise(self):
        grads = {"a": np.array([0.3]), "b": np.array([0.4])}  # norm 0.5
        out = clip_gradients(grads, 1.0)
        assert out is grads

    def test_zero_gradients_unchanged(self):
        grads = {"a": np.zeros(3)}
        assert clip_gradients(grads, 1.0) is grads

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_never_exceeds(self, seed, clip):
        rng = Rng(seed)
        grads = {"w": rng.gaussian((3, 4), 0, 5.0), "b": rng.gaussian(4, 0, 5.0)}
        out = clip_gradients(grads, clip)
        assert gradient_norm(out) <= clip + 1e-12

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

    def test_divergence_carries_epoch(self):
        batch = self._toy()
        p = rnn_init("relu_identity", 2, 3, 1, seed=1)
        p.w_hh[:] = np.eye(3) * 40.0  # explosive recurrence
        with pytest.raises(DivergenceError) as exc:
            train(p, SequenceBatch(batch.inputs * 1e3, batch.targets), None,
                  RnnSettings(learning_rate=1e6, epochs=50, clip_norm=None))
        assert exc.value.epoch is not None


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
                clipped += gradient_norm(grads) > clip_norm
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
            val_loss = loss_mse(rnn_forward(params, val_batch.inputs).outputs, val_batch.targets)
        rows.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
    return params, rows, clipped, None


def _split_instance(cell, seed=0):
    """A generic instance cut into a 5-sequence training and a 3-sequence validation batch."""
    params, x, targets = _generic_instance(cell, 8, 7, 2, seed=seed)
    return params, SequenceBatch(x[:5], targets[:5]), SequenceBatch(x[5:], targets[5:])


def _pass_arrays(fwd):
    return {name: getattr(fwd, name) for name in ("x", "states", "pre", "outputs", "acts",
                                                  "cells", "tanh_c")
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
        assert exc.value.epoch == epoch
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
