"""Recurrent sequence regression with interchangeable cells.

Three cell kinds share one parameter layout and one trainer:

* ``simple_tanh``: h_t = tanh(W_ih x_t + W_hh h_{t-1} + b_h)
* ``relu_identity``: same recurrence with relu, W_hh initialized to the
  exact identity and b_h to zero, so a nonnegative hidden state passes
  through untouched until training moves the weights
* ``lstm``: the standard gated cell (input/forget/output gates plus a
  tanh candidate); its hidden-side tensors stack the four gate blocks
  row-wise in the order input, forget, output, candidate

The readout is linear: y = W_ho h_T + b_o, evaluated at the final
timestep only, one prediction per sequence. Training is plain gradient
descent on the mean squared error with exact, untruncated
backpropagation through time and optional global-norm gradient clipping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .data import Curve, SequenceBatch, read_json, write_csv, write_json
from .errors import ConfigError, DataError, DivergenceError, ParseError, ShapeError
from .linalg import Rng, buffer, sigmoid

CELLS = ("simple_tanh", "lstm", "relu_identity")
TENSORS = ("w_ih", "w_hh", "w_ho", "b_h", "b_o")  # parameter order of tensors() and checkpoints
CHECKPOINT_VERSION = "genoseq-rnn-v2"

# Remember-by-default forget gates: with a bias of 1 the cell state decays
# by sigmoid(1) ~ 0.73 per step, so signals spanning ~100 timesteps (and
# their error derivatives) die to ~1e-13 before the gates can learn to
# keep them. sigmoid(3) ~ 0.953 retains ~15% over 40 steps while leaving
# the gate trainable; higher biases freeze the gate and integrate bias
# drift into saturation.
LSTM_FORGET_BIAS = 3.0


@dataclass
class RnnParams:
    """Weights and biases of one recurrent model.

    w_ih maps inputs to the hidden side, w_hh is the recurrent matrix,
    w_ho the readout. For the lstm cell the hidden-side tensors have 4M
    rows (gate blocks stacked input/forget/output/candidate).
    """

    cell: str
    n_in: int
    n_hidden: int
    n_out: int
    w_ih: np.ndarray
    w_hh: np.ndarray
    w_ho: np.ndarray
    b_h: np.ndarray
    b_o: np.ndarray
    snps: int | None = None  # SNPs per genotype row in training, when known

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell {self.cell!r}")
        if min(self.n_in, self.n_hidden, self.n_out) < 1:
            raise ConfigError(f"dims must be >= 1, got in={self.n_in} hidden={self.n_hidden} "
                              f"out={self.n_out}")
        rows = 4 * self.n_hidden if self.cell == "lstm" else self.n_hidden
        expect = {"w_ih": (rows, self.n_in), "w_hh": (rows, self.n_hidden),
                  "w_ho": (self.n_out, self.n_hidden), "b_h": (rows,), "b_o": (self.n_out,)}
        for name, shape in expect.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSORS}


@dataclass(frozen=True)
class RnnSettings:
    """Architecture plus trainer knobs for the per-trait models.

    ``clip_norm`` is the global gradient-norm bound, None for no clipping;
    "default" clips at 1.0 for the relu and tanh cells and not at all for
    the lstm, resolved by ``train`` from the cell of the model it trains.
    """

    cell: str = "relu_identity"
    hidden: int = 16
    learning_rate: float = 0.05
    epochs: int = 100
    clip_norm: float | None | Literal["default"] = "default"

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell {self.cell!r}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.clip_norm not in (None, "default") and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be > 0 when set, got {self.clip_norm}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None = None


class TrainingCurve(Curve):
    def final_train_loss(self) -> float:
        return self.records[-1].train_loss if self.records else float("nan")

    def to_csv(self, path) -> None:
        write_csv(path, ("epoch", "train_loss", "val_loss"),
                  ((str(r.epoch), repr(float(r.train_loss)),
                    repr(float(r.val_loss)) if r.val_loss is not None else "")
                   for r in self.records))


def rnn_init(cell: str, n_in: int, n_hidden: int, n_out: int, seed: int) -> RnnParams:
    """Seed-deterministic initialization for one cell.

    relu_identity gets an exact identity recurrent matrix and zero hidden
    bias; its input and readout weights are gaussian(0, 0.01). simple_tanh
    draws all weights gaussian(0, 0.01) with zero biases. lstm draws its
    weights gaussian(0, 0.1) - gated cells tolerate (and need) the larger
    scale, since every signal passes through two sub-unity gates - with
    zero biases except the forget gate, which starts at LSTM_FORGET_BIAS.
    Tensors are drawn in the order w_ih, w_hh, w_ho from a single stream.
    """
    weight_scale = 0.1 if cell == "lstm" else 0.01
    rng = Rng(seed)
    rows = 4 * n_hidden if cell == "lstm" else n_hidden
    w_ih = rng.gaussian((rows, n_in), 0.0, weight_scale)
    if cell == "relu_identity":
        w_hh = np.eye(n_hidden)
    else:
        w_hh = rng.gaussian((rows, n_hidden), 0.0, weight_scale)
    w_ho = rng.gaussian((n_out, n_hidden), 0.0, weight_scale)
    b_h = np.zeros(rows)
    if cell == "lstm":
        b_h[n_hidden:2 * n_hidden] = LSTM_FORGET_BIAS
    return RnnParams(cell, n_in, n_hidden, n_out, w_ih, w_hh, w_ho, b_h, np.zeros(n_out))


@dataclass
class ForwardPass:
    """The states and activations of one forward pass, kept for the backward pass.

    The buffers are time-major, so that one timestep is a contiguous block
    and all T steps reshape to one (T·batch, ·) matrix without a copy.
    ``x`` is (T, batch, n_in) and ``states`` holds h_0 .. h_T as
    (T+1, batch, M). ``pre`` holds the pre-activations gate-major, as
    (gates, T, batch, M) with one gate block for the relu and tanh cells
    and four (i, f, o, g) for the lstm, so that each gate of each step is
    contiguous. The lstm adds its gate activations in the same layout as
    ``acts``, the cell states c_0 .. c_T as ``cells`` and
    tanh(c_1) .. tanh(c_T) as ``tanh_c``. ``inputs`` and ``hidden`` are
    batch-major views.

    ``bptt_gradients`` runs a private pass and consumes it: its backward
    writes the derivative factors and the per-step gradients into that
    pass's ``pre`` (and the lstm's ``tanh_c``). A pass that
    ``rnn_forward`` returns without a workspace is never modified; one
    made in a workspace is overwritten by that workspace's next pass.
    """

    x: np.ndarray
    states: np.ndarray
    pre: np.ndarray
    outputs: np.ndarray
    acts: np.ndarray | None = None
    cells: np.ndarray | None = None
    tanh_c: np.ndarray | None = None

    @property
    def inputs(self) -> np.ndarray:
        return self.x.transpose(1, 0, 2)

    @property
    def hidden(self) -> np.ndarray:
        """h_1 .. h_T as (batch, T, M)."""
        return self.states[1:].transpose(1, 0, 2)


def _blocks(w: np.ndarray, m: int) -> np.ndarray:
    """A hidden-side tensor (gates·M, k) as its gate blocks, (gates, M, k)."""
    return w.reshape(-1, m, w.shape[-1])


def rnn_forward(params: RnnParams, inputs, h0: np.ndarray | None = None,
                workspace: dict | None = None) -> ForwardPass:
    """Run the recurrence over a batch of sequences, inputs (B, T, n_in).

    h_0 is zero unless given. The readout is linear and evaluated at the
    final timestep. The input side of every step, x_t W_ih^T + b_h, is one
    matrix product per gate block over all T steps, made before the loop;
    each step then adds only its recurrent term h_{t-1} W_hh^T.

    ``workspace`` (see :func:`genoseq.linalg.buffer`) lends the pass its buffers.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"inputs must be (batch, T, n_in), got {x.shape}")
    b, t_len, n_in = x.shape
    if t_len == 0:
        raise DataError("empty sequence")
    if b == 0:
        raise DataError("empty batch: no sequences to run")
    if n_in != params.n_in:
        raise ShapeError(f"input width {n_in} does not match model n_in {params.n_in}")
    m = params.n_hidden
    workspace = {} if workspace is None else workspace
    states = buffer(workspace, "states", (t_len + 1, b, m))
    if h0 is None:
        states[0] = 0.0
    else:
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.shape not in ((m,), (b, m)):
            raise ShapeError(f"h0 must have shape ({m},) or ({b}, {m}), got {h0.shape}")
        states[0] = h0

    xs = buffer(workspace, "x", (t_len, b, n_in))
    np.copyto(xs, x.transpose(1, 0, 2))
    w_ih = _blocks(params.w_ih, m)
    pre = buffer(workspace, "pre", (w_ih.shape[0], t_len, b, m))
    np.matmul(xs.reshape(t_len * b, n_in), w_ih.transpose(0, 2, 1),
              out=pre.reshape(-1, t_len * b, m))
    pre += params.b_h.reshape(-1, 1, 1, m)
    lstm_buffers = ()
    if params.cell == "lstm":
        lstm_buffers = _recur_lstm(params, pre, states, workspace)
    else:
        act = np.tanh if params.cell == "simple_tanh" else _relu
        w_hh_t = params.w_hh.T
        for t in range(t_len):
            z = pre[0, t]
            z += states[t] @ w_hh_t
            act(z, out=states[t + 1])
    y = states[-1] @ params.w_ho.T + params.b_o
    return ForwardPass(xs, states, pre, y, *lstm_buffers)


def _relu(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _recur_lstm(params: RnnParams, pre: np.ndarray, states: np.ndarray, workspace: dict):
    """The lstm time loop: completes ``pre`` and fills ``states``.

    Returns the pass's gate activations, cell states and tanh(c).
    """
    t_len, b, m = pre.shape[1:]
    acts = buffer(workspace, "acts", (4, t_len, b, m))
    cells = buffer(workspace, "cells", (t_len + 1, b, m))
    tanh_c = buffer(workspace, "tanh_c", (t_len, b, m))
    cells[0] = 0.0
    # W_hh^T of each gate block, contiguous for the per-step products
    w_rec = np.ascontiguousarray(_blocks(params.w_hh, m).transpose(0, 2, 1))
    for t in range(t_len):
        a = pre[:, t]
        a += np.matmul(states[t], w_rec)
        i, f, o, g = acts[:, t]
        sigmoid(a[0], out=i)
        sigmoid(a[1], out=f)
        sigmoid(a[2], out=o)
        np.tanh(a[3], out=g)
        c = cells[t + 1]
        np.multiply(f, cells[t], out=c)
        c += i * g
        np.tanh(c, out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=states[t + 1])
    return acts, cells, tanh_c


def loss_mse(predictions, targets) -> float:
    """Mean over samples and output dims of the squared difference."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"predictions {p.shape} and targets {t.shape} differ")
    return float(np.mean((p - t) ** 2))


def bptt_gradients(params: RnnParams, batch: tuple[np.ndarray, np.ndarray],
                   workspace: dict | None = None) -> dict[str, np.ndarray]:
    """Exact gradient of the mean MSE over an (inputs, targets) batch, by full unrolling.

    Gradient tensors match the parameter shapes and are new arrays. The
    backward runs on a private forward pass, made in ``workspace`` when one
    is given (see ``rnn_forward``), and reuses that pass's buffers as scratch.
    """
    x, targets = batch
    fwd = rnn_forward(params, x, workspace=workspace)
    return _backward(params, fwd, targets)


def _backward(params: RnnParams, fwd: ForwardPass, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate through a private pass, consuming its buffers.

    The loop runs only what depends on the later steps' error: each step
    turns ``fwd.pre[:, t]`` from precomputed derivative factors into the
    pre-activation gradient in place. dW_ih, dW_hh and db_h are then one
    matrix product (or sum) per gate block over all T steps.
    """
    t_len, b, n_in = fwd.x.shape
    m = params.n_hidden
    targets = np.asarray(targets, dtype=np.float64).reshape(b, params.n_out)

    dy = 2.0 * (fwd.outputs - targets) / (b * params.n_out)
    d_who = dy.T @ fwd.states[-1]
    d_bo = dy.sum(axis=0)
    dh = dy @ params.w_ho

    grad = fwd.pre
    if params.cell == "lstm":
        carry = _lstm_factors(fwd)
        forget = fwd.acts[1]
        w_hh = _blocks(params.w_hh, m)
        dc = np.zeros((b, m))
        for t in range(t_len - 1, -1, -1):
            dc += dh * carry[t]
            da = grad[:, t]
            da[:2] *= dc  # input and forget gates
            da[2] *= dh
            da[3] *= dc
            dh = np.matmul(da, w_hh).sum(axis=0)
            dc *= forget[t]
    else:
        h = fwd.states[1:]
        dz_all = grad[0]
        if params.cell == "simple_tanh":
            np.multiply(h, h, out=dz_all)
            np.subtract(1.0, dz_all, out=dz_all)
        else:
            np.greater(h, 0.0, out=dz_all)
        for t in range(t_len - 1, -1, -1):
            dz = dz_all[t]
            dz *= dh
            dh = dz @ params.w_hh

    flat_t = grad.reshape(-1, t_len * b, m).transpose(0, 2, 1)
    d_wih = np.matmul(flat_t, fwd.x.reshape(t_len * b, n_in)).reshape(-1, n_in)
    d_whh = np.matmul(flat_t, fwd.states[:-1].reshape(t_len * b, m)).reshape(-1, m)
    d_bh = flat_t.sum(axis=2).reshape(-1)
    return {"w_ih": d_wih, "w_hh": d_whh, "w_ho": d_who, "b_h": d_bh, "b_o": d_bo}


def _lstm_factors(fwd: ForwardPass) -> np.ndarray:
    """The lstm's derivative factors for all T steps, written over the pass's buffers.

    ``fwd.pre`` becomes, per gate block, what the step's error is
    multiplied by: g·i(1-i), c_{t-1}·f(1-f) and i(1-g²) take dc, and
    tanh(c_t)·o(1-o) takes dh. ``fwd.tanh_c`` becomes o(1-tanh²c_t),
    which carries dh into dc; it is returned.
    """
    i, f, o, g = fwd.acts
    fi, ff, fo, fg = fwd.pre
    np.subtract(1.0, i, out=fi)
    fi *= i
    fi *= g
    np.subtract(1.0, f, out=ff)
    ff *= f
    ff *= fwd.cells[:-1]
    np.subtract(1.0, o, out=fo)
    fo *= o
    fo *= fwd.tanh_c
    np.multiply(g, g, out=fg)
    np.subtract(1.0, fg, out=fg)
    fg *= i
    carry = fwd.tanh_c
    carry *= carry
    np.subtract(1.0, carry, out=carry)
    carry *= o
    return carry


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by clip_norm / ||g|| when the global L2 norm exceeds it."""
    norm = gradient_norm(grads)
    if norm <= clip_norm:
        return grads
    scale = clip_norm / norm
    return {k: v * scale for k, v in grads.items()}


def sgd_step(params: RnnParams, grads: dict[str, np.ndarray], learning_rate: float) -> RnnParams:
    """One plain gradient-descent step; raises on non-finite results."""
    tensors = {}
    for name, value in params.tensors().items():
        g = grads[name]
        if g.shape != value.shape:
            raise ShapeError(f"gradient {name} has shape {g.shape}, expected {value.shape}")
        stepped = value - learning_rate * g
        if not np.all(np.isfinite(stepped)):
            raise DivergenceError(f"parameter {name} became non-finite")
        tensors[name] = stepped
    return replace(params, **tensors)


def train(params: RnnParams, train_batch: SequenceBatch, val_batch: SequenceBatch | None,
          settings: RnnSettings):
    """Gradient-descent training loop; returns (trained params, curve).

    Each epoch takes one step on the whole batch and ends with a fresh loss
    evaluation (and a validation loss when a validation batch is given).
    The passes on the training batch share one workspace, those on validation another.
    Deterministic for a fixed (params, data, settings); the model comes
    from ``params``, not ``settings``.
    """
    clip_norm = settings.clip_norm
    if clip_norm == "default":
        clip_norm = None if params.cell == "lstm" else 1.0
    x_train, t_train = train_batch.inputs, train_batch.targets

    ws, val_ws = {}, {}
    curve = TrainingCurve()
    for epoch in range(settings.epochs):
        # overflow to inf is detected and reported as divergence, so the
        # intermediate warnings carry no information
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                grads = bptt_gradients(params, (x_train, t_train), workspace=ws)
                if clip_norm is not None:
                    grads = clip_gradients(grads, clip_norm)
                params = sgd_step(params, grads, settings.learning_rate)
                train_loss = loss_mse(rnn_forward(params, x_train, workspace=ws).outputs, t_train)
            if not np.isfinite(train_loss):
                raise DivergenceError("training loss became non-finite")
        except DivergenceError as e:
            raise DivergenceError(str(e), epoch=epoch, curve=curve) from None
        val_loss = None
        if val_batch is not None:
            val_loss = loss_mse(rnn_forward(params, val_batch.inputs, workspace=val_ws).outputs,
                                val_batch.targets)
        curve.records.append(EpochRecord(epoch, train_loss, val_loss))
    return params, curve


def predict(params: RnnParams, inputs) -> np.ndarray:
    """Final-timestep outputs per sequence of inputs (B, T, n_in); no state is shared between them."""
    return rnn_forward(params, inputs).outputs


def pearson_correlation(pred, actual) -> float | None:
    """Pearson r in [-1, 1]; None below 2 values or when either input is constant."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    if p.shape != a.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {a.shape}")
    # an exactly constant vector has no defined correlation; check the
    # range, not the centered norm, which picks up mean-roundoff residue
    if p.size < 2 or p.max() == p.min() or a.max() == a.min():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        pc, ac = p - p.mean(), a - a.mean()
        sp, sa = float(np.sqrt(np.sum(pc * pc))), float(np.sqrt(np.sum(ac * ac)))
        if not (0.0 < sp < np.inf and 0.0 < sa < np.inf):  # a mean or the squares over/underflowed
            p, a = p / np.abs(p).max(), a / np.abs(a).max()  # largest magnitude 1: finite means
            pc, ac = p - p.mean(), a - a.mean()
            pc, ac = pc / np.abs(pc).max(), ac / np.abs(ac).max()  # and no squares underflow
            sp, sa = float(np.sqrt(np.sum(pc * pc))), float(np.sqrt(np.sum(ac * ac)))
    r = float(np.dot(pc, ac) / (sp * sa))
    # exactly affine inputs can land a few ulps inside the bounds from
    # roundoff; snap so perfect relations report exactly +/-1
    if r > 1.0 - 1e-12:
        return 1.0
    if r < -1.0 + 1e-12:
        return -1.0
    return r


def save_checkpoint(params: RnnParams, path) -> None:
    """Serialize a model to JSON with exact decimal float strings."""
    doc = {"version": CHECKPOINT_VERSION, "cell": params.cell,
           "n_in": params.n_in, "n_hidden": params.n_hidden, "n_out": params.n_out,
           "snps": params.snps,
           "tensors": {name: _encode_array(value)
                       for name, value in params.tensors().items()}}
    write_json(doc, path)


def load_checkpoint(path) -> RnnParams:
    """Read a model written by save_checkpoint; a malformed file raises ParseError."""
    doc = read_json(path, "checkpoint")
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    try:
        cell = doc["cell"]
        dims, snps = [doc[k] for k in ("n_in", "n_hidden", "n_out")], doc["snps"]
        tensors = {name: _decode_array(doc["tensors"][name]) for name in TENSORS}
    except KeyError as e:
        raise ParseError(f"checkpoint lacks the entry {e}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed checkpoint: {e}") from None
    if not all(type(d) is int for d in dims) or not (snps is None or type(snps) is int and snps > 0):
        raise ParseError(f"malformed checkpoint dimensions {dims} or snps {snps!r}")
    for name, value in tensors.items():
        if not np.isfinite(value).all():
            raise ParseError(f"checkpoint tensor {name} holds a non-finite value")
    return RnnParams(cell, *dims, **tensors, snps=snps)


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [repr(float(x)) for x in a.reshape(-1)]}


def _decode_array(doc: dict) -> np.ndarray:
    return np.array([float(s) for s in doc["data"]], dtype=np.float64).reshape(doc["shape"])
