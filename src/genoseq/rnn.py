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

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import SequenceBatch, text_sink, write_json
from .errors import ConfigError, DivergenceError, InputError, ParseError, ShapeError
from .linalg import Rng, sigmoid

CELLS = ("simple_tanh", "lstm", "relu_identity")
CHECKPOINT_VERSION = "genoseq-rnn-v1"

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

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell {self.cell!r}")
        rows = 4 * self.n_hidden if self.cell == "lstm" else self.n_hidden
        expect = {"w_ih": (rows, self.n_in), "w_hh": (rows, self.n_hidden),
                  "w_ho": (self.n_out, self.n_hidden), "b_h": (rows,), "b_o": (self.n_out,)}
        for name, shape in expect.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w_ih": self.w_ih, "w_hh": self.w_hh, "w_ho": self.w_ho,
                "b_h": self.b_h, "b_o": self.b_o}

    def replace_tensors(self, tensors: dict[str, np.ndarray]) -> "RnnParams":
        return replace(self, **tensors)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    clip_norm: float | None = None
    batch_mode: str = "full_batch"  # or "per_sample"

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be > 0 when set, got {self.clip_norm}")
        if self.batch_mode not in ("full_batch", "per_sample"):
            raise ConfigError(f"unknown batch_mode {self.batch_mode!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None = None


@dataclass
class TrainingCurve:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def final_train_loss(self) -> float:
        return self.records[-1].train_loss if self.records else float("nan")

    def to_csv(self, dest) -> None:
        with text_sink(dest) as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for r in self.records:
                val = repr(float(r.val_loss)) if r.val_loss is not None else ""
                fh.write(f"{r.epoch},{float(r.train_loss)!r},{val}\n")

    def to_rows(self) -> list[dict]:
        return [{"epoch": r.epoch, "train_loss": r.train_loss, "val_loss": r.val_loss}
                for r in self.records]


def default_clip_norm(cell: str) -> float | None:
    """Default gradient clipping: 1.0 for the relu and tanh cells, none for lstm."""
    return None if cell == "lstm" else 1.0


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
    if min(n_in, n_hidden, n_out) < 1:
        raise ConfigError(f"dims must be >= 1, got in={n_in} hidden={n_hidden} out={n_out}")
    if cell not in CELLS:
        raise ConfigError(f"unknown cell {cell!r}")
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
    """Everything the backward pass needs: states, outputs, pre-activations.

    Arrays are batch-major: hidden is (batch, T, M), outputs (batch, n_out),
    pre_activations (batch, T, M) (or (batch, T, 4M) for lstm).
    """

    inputs: np.ndarray
    hidden: np.ndarray
    outputs: np.ndarray
    pre_activations: np.ndarray
    h0: np.ndarray
    cell_states: np.ndarray | None = None  # lstm only, (batch, T, M), c_0 excluded
    gates: dict | None = None              # lstm only: i, f, o, g, tanh_c


def _as_batch(inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.ndim != 3:
        raise ShapeError(f"inputs must be (T, n_in) or (batch, T, n_in), got {x.shape}")
    return x


def rnn_forward(params: RnnParams, inputs, h0: np.ndarray | None = None) -> ForwardPass:
    """Run the recurrence over one sequence (T, n_in) or a batch (B, T, n_in).

    h_0 is zero unless given. The readout is linear and evaluated at the
    final timestep.
    """
    x = _as_batch(inputs)
    b, t_len, n_in = x.shape
    if t_len == 0:
        raise InputError("empty sequence")
    if n_in != params.n_in:
        raise ShapeError(f"input width {n_in} does not match model n_in {params.n_in}")
    m = params.n_hidden
    if h0 is None:
        h0 = np.zeros((b, m))
    else:
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.shape == (m,):
            h0 = np.broadcast_to(h0, (b, m)).copy()
        if h0.shape != (b, m):
            raise ShapeError(f"h0 must have shape ({m},) or ({b}, {m}), got {h0.shape}")

    if params.cell == "lstm":
        return _forward_lstm(params, x, h0)

    act = np.tanh if params.cell == "simple_tanh" else lambda z: np.maximum(z, 0.0)
    hs = np.empty((b, t_len + 1, m))
    zs = np.empty((b, t_len, m))
    hs[:, 0] = h0
    h = h0
    for t in range(t_len):
        z = x[:, t] @ params.w_ih.T + h @ params.w_hh.T + params.b_h
        h = act(z)
        zs[:, t] = z
        hs[:, t + 1] = h
    y = h @ params.w_ho.T + params.b_o
    return ForwardPass(x, hs[:, 1:], y, zs, h0)


def _forward_lstm(params: RnnParams, x: np.ndarray, h0: np.ndarray) -> ForwardPass:
    b, t_len, _ = x.shape
    m = params.n_hidden
    hs = np.empty((b, t_len + 1, m))
    cs = np.empty((b, t_len + 1, m))
    pre = np.empty((b, t_len, 4 * m))
    gi = np.empty((b, t_len, m))
    gf = np.empty((b, t_len, m))
    go = np.empty((b, t_len, m))
    gg = np.empty((b, t_len, m))
    tc = np.empty((b, t_len, m))
    hs[:, 0] = h0
    cs[:, 0] = 0.0
    h, c = h0, cs[:, 0]
    for t in range(t_len):
        a = x[:, t] @ params.w_ih.T + h @ params.w_hh.T + params.b_h
        i = sigmoid(a[:, :m])
        f = sigmoid(a[:, m:2 * m])
        o = sigmoid(a[:, 2 * m:3 * m])
        g = np.tanh(a[:, 3 * m:])
        c = f * c + i * g
        tch = np.tanh(c)
        h = o * tch
        pre[:, t] = a
        gi[:, t], gf[:, t], go[:, t], gg[:, t], tc[:, t] = i, f, o, g, tch
        hs[:, t + 1] = h
        cs[:, t + 1] = c
    y = h @ params.w_ho.T + params.b_o
    return ForwardPass(x, hs[:, 1:], y, pre, h0, cs[:, 1:],
                       {"i": gi, "f": gf, "o": go, "g": gg, "tanh_c": tc, "cs": cs})


def loss_mse(predictions, targets) -> float:
    """Mean over samples and output dims of the squared difference."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"predictions {p.shape} and targets {t.shape} differ")
    return float(np.mean((p - t) ** 2))


def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, SequenceBatch):
        return batch.inputs, batch.targets
    inputs, targets = batch
    return np.asarray(inputs, dtype=np.float64), np.asarray(targets, dtype=np.float64)


def bptt_gradients(params: RnnParams, batch) -> dict[str, np.ndarray]:
    """Exact gradient of the mean MSE over the batch, by full unrolling.

    Accepts a SequenceBatch or an (inputs, targets) pair. Gradient tensors
    match the parameter shapes.
    """
    x, targets = _batch_arrays(batch)
    x = _as_batch(x)
    if x.shape[0] == 0:
        raise InputError("empty batch")
    fwd = rnn_forward(params, x)
    return _backward(params, fwd, targets)


def _backward(params: RnnParams, fwd: ForwardPass, targets: np.ndarray) -> dict[str, np.ndarray]:
    x = fwd.inputs
    b, t_len, _ = x.shape
    m = params.n_hidden
    targets = np.asarray(targets, dtype=np.float64).reshape(b, params.n_out)

    dy = 2.0 * (fwd.outputs - targets) / (b * params.n_out)
    h_last = fwd.hidden[:, -1]
    d_who = dy.T @ h_last
    d_bo = dy.sum(axis=0)
    dh = dy @ params.w_ho

    prev_h = lambda t: fwd.hidden[:, t - 1] if t > 0 else fwd.h0

    if params.cell == "lstm":
        gates = fwd.gates
        cs = gates["cs"]
        d_wih = np.zeros_like(params.w_ih)
        d_whh = np.zeros_like(params.w_hh)
        d_bh = np.zeros_like(params.b_h)
        dc = np.zeros((b, m))
        for t in range(t_len - 1, -1, -1):
            i, f, o = gates["i"][:, t], gates["f"][:, t], gates["o"][:, t]
            g, tch = gates["g"][:, t], gates["tanh_c"][:, t]
            do_ = dh * tch
            dc = dc + dh * o * (1.0 - tch * tch)
            da = np.concatenate([
                (dc * g) * i * (1.0 - i),
                (dc * cs[:, t]) * f * (1.0 - f),
                do_ * o * (1.0 - o),
                (dc * i) * (1.0 - g * g),
            ], axis=1)
            d_wih += da.T @ x[:, t]
            d_whh += da.T @ prev_h(t)
            d_bh += da.sum(axis=0)
            dh = da @ params.w_hh
            dc = dc * f
    else:
        grad_act = ((lambda z: 1.0 - np.tanh(z) ** 2) if params.cell == "simple_tanh"
                    else (lambda z: (z > 0.0).astype(np.float64)))
        d_wih = np.zeros_like(params.w_ih)
        d_whh = np.zeros_like(params.w_hh)
        d_bh = np.zeros_like(params.b_h)
        for t in range(t_len - 1, -1, -1):
            dz = dh * grad_act(fwd.pre_activations[:, t])
            d_wih += dz.T @ x[:, t]
            d_whh += dz.T @ prev_h(t)
            d_bh += dz.sum(axis=0)
            dh = dz @ params.w_hh

    return {"w_ih": d_wih, "w_hh": d_whh, "w_ho": d_who, "b_h": d_bh, "b_o": d_bo}


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by clip_norm / ||g|| when the global L2 norm exceeds it."""
    if not clip_norm > 0:
        raise ConfigError(f"clip_norm must be > 0, got {clip_norm}")
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
    return params.replace_tensors(tensors)


def train(params: RnnParams, train_batch, val_batch, cfg: TrainConfig):
    """Gradient-descent training loop; returns (trained params, curve).

    full_batch mode takes one step per epoch on the whole batch;
    per_sample mode steps after each sequence, visiting them in index
    order. Each epoch ends with a fresh loss evaluation (and a validation
    loss when a validation batch is given). Deterministic for a fixed
    (params, data, config).
    """
    x_train, t_train = _batch_arrays(train_batch)
    if x_train.shape[0] == 0:
        raise InputError("empty training batch")
    if val_batch is not None:
        x_val, t_val = _batch_arrays(val_batch)
        if x_val.shape[0] == 0:
            val_batch = None

    def one_step(inputs, targets):
        grads = bptt_gradients(params, (inputs, targets))
        if cfg.clip_norm is not None:
            grads = clip_gradients(grads, cfg.clip_norm)
        return sgd_step(params, grads, cfg.learning_rate)

    curve = TrainingCurve()
    for epoch in range(cfg.epochs):
        # overflow to inf is detected and reported as divergence, so the
        # intermediate warnings carry no information
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if cfg.batch_mode == "full_batch":
                    params = one_step(x_train, t_train)
                else:
                    for i in range(x_train.shape[0]):
                        params = one_step(x_train[i:i + 1], t_train[i:i + 1])
                train_loss = loss_mse(rnn_forward(params, x_train).outputs, t_train)
            if not np.isfinite(train_loss):
                raise DivergenceError("training loss became non-finite")
        except DivergenceError as e:
            err = DivergenceError(str(e), epoch=epoch)
            err.curve = curve  # completed epochs up to the failure
            raise err from None
        val_loss = None
        if val_batch is not None:
            val_loss = loss_mse(rnn_forward(params, x_val).outputs, t_val)
        curve.records.append(EpochRecord(epoch, train_loss, val_loss))
    return params, curve


def predict(params: RnnParams, batch) -> np.ndarray:
    """Final-timestep outputs per sequence; no state is shared between them."""
    x, _ = _batch_arrays(batch) if isinstance(batch, (SequenceBatch, tuple)) else (batch, None)
    return rnn_forward(params, x).outputs


def pearson_correlation(pred, actual) -> float | None:
    """Pearson r in [-1, 1]; None when either input is constant."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    if p.shape != a.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {a.shape}")
    if p.size < 2:
        raise InputError(f"need at least 2 values, got {p.size}")
    # an exactly constant vector has no defined correlation; check the
    # range, not the centered norm, which picks up mean-roundoff residue
    if p.max() == p.min() or a.max() == a.min():
        return None
    pc = p - p.mean()
    ac = a - a.mean()
    sp = float(np.sqrt(np.sum(pc * pc)))
    sa = float(np.sqrt(np.sum(ac * ac)))
    if sp == 0.0 or sa == 0.0:
        return None
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
           "tensors": {name: _encode_array(value)
                       for name, value in params.tensors().items()}}
    write_json(doc, path)


def load_checkpoint(path) -> RnnParams:
    """Read a model written by save_checkpoint; a malformed file raises ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise ParseError(f"checkpoint is not JSON: {e}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    try:
        cell = doc["cell"]
        dims = [doc[k] for k in ("n_in", "n_hidden", "n_out")]
        tensors = {name: _decode_array(doc["tensors"][name])
                   for name in ("w_ih", "w_hh", "w_ho", "b_h", "b_o")}
    except KeyError as e:
        raise ParseError(f"checkpoint lacks the entry {e}") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"malformed checkpoint: {e}") from None
    if not all(type(d) is int for d in dims):
        raise ParseError(f"checkpoint dimensions must be integers, got {dims}")
    return RnnParams(cell, *dims, **tensors)


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [repr(float(x)) for x in a.reshape(-1)]}


def _decode_array(doc: dict) -> np.ndarray:
    return np.array([float(s) for s in doc["data"]], dtype=np.float64).reshape(doc["shape"])
