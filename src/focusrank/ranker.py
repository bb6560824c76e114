"""Attention-based co-change ranker with hand-derived gradients.

The network scores an (anchor, candidate) embedding pair: the two vectors
form a two-token sequence, pass through one self-attention layer (learned
Q/K/V projections, scaled dot-product), are mean-pooled, and a linear head
emits a single logit. Training minimizes a focal-style reshaping of
BCE-with-logits under Adam. All gradients are computed analytically; there
is no autograd dependency.

With two tokens the attention has an exact closed form, `_closed_form`:
the one forward pass that `forward`, `pair_logits` and `grad` share, and
the one `grad` backpropagates through.

Every weight lives in one contiguous float64 vector, so the Q/K/V
projection is one GEMM, their three weight gradients are another, and an
Adam step is a handful of in-place vector operations.

Labels repeat across pairs, so a set of pairs is a `PairTable`: row
indices into the matrix of distinct label embeddings. Scoring without a
gradient (`pair_logits`) projects each distinct label once and reads every
pair off the per-label projections.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .config import LossConfig, TrainConfig, read_config, with_grid
from .errors import (
    CheckpointFormatError,
    ConfigInvalidError,
    TrainingDivergedError,
    json_text,
    read_json,
    write_artifact,
)

CHECKPOINT_FORMAT = "focusrank-checkpoint"
CHECKPOINT_VERSION = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Pairs per step of `pair_logits`, so that scoring needs working memory
# for this many gathered Q and K rows per side (0.5 MB at h = 64) rather
# than for the whole set.
VAL_CHUNK_ROWS = 256


def sigmoid(z):
    """Numerically stable logistic function; scalar in, scalar out."""
    arr = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(arr, -arr))  # exp(-|z|), never overflowing; a NaN keeps its sign
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if arr.ndim == 0 else out


def _block(name: str) -> property:
    """A named weight block of `RankerParams`: reading gives the view into
    theta, assigning copies the value into it."""

    def get(self) -> np.ndarray:
        return self._blocks[name]

    def put(self, value) -> None:
        block = self._blocks[name]
        if np.shape(value) != block.shape:
            raise ValueError(
                f"{name} needs shape {block.shape}, got {np.shape(value)}"
            )
        block[...] = value

    return property(get, put)


class RankerParams:
    """Q/K/V projections (d x h), output head (h,) and bias in one vector.

    `theta` holds w_qkv (d x 3h, row-major), then w_out, then b_out. Every
    named block is a view into it (wq, wk and wv are column slices of
    w_qkv), so writing through a block writes theta, and the optimizer
    updates all of them with vector operations on theta.
    """

    wq = _block("wq")
    wk = _block("wk")
    wv = _block("wv")
    w_out = _block("w_out")

    def __init__(self, wq, wk, wv, w_out, b_out: float):
        d, h = np.shape(wq)
        self._bind(np.empty(3 * d * h + h + 1), d, h)
        self.wq, self.wk, self.wv, self.w_out, self.b_out = wq, wk, wv, w_out, b_out

    @classmethod
    def from_theta(cls, theta: np.ndarray, d: int, h: int) -> "RankerParams":
        """Blocks over `theta` itself, not over a copy."""
        params = cls.__new__(cls)
        params._bind(theta, d, h)
        return params

    def _bind(self, theta: np.ndarray, d: int, h: int) -> None:
        self.theta, self.d, self.h = theta, d, h
        self.w_qkv = theta[: 3 * d * h].reshape(d, 3 * h)
        self._blocks = {
            "wq": self.w_qkv[:, :h],
            "wk": self.w_qkv[:, h : 2 * h],
            "wv": self.w_qkv[:, 2 * h :],
            "w_out": theta[3 * d * h : -1],
        }

    @property
    def b_out(self) -> float:
        return float(self.theta[-1])

    @b_out.setter
    def b_out(self, value: float) -> None:
        self.theta[-1] = value

    def copy(self) -> "RankerParams":
        return RankerParams.from_theta(self.theta.copy(), self.d, self.h)

    def arrays(self) -> list[np.ndarray]:
        return [self.wq, self.wk, self.wv, self.w_out, self.theta[-1:]]


def init_params(d: int, h: int, init_scale: float, seed: int) -> RankerParams:
    """Uniform projections scaled by 1/sqrt(d); zero head, so an untrained
    ranker emits logit b_out = 0 for every input."""
    rng = np.random.default_rng(seed)
    bound = init_scale / math.sqrt(d)
    return RankerParams(
        wq=rng.uniform(-bound, bound, size=(d, h)),
        wk=rng.uniform(-bound, bound, size=(d, h)),
        wv=rng.uniform(-bound, bound, size=(d, h)),
        w_out=np.zeros(h, dtype=np.float64),
        b_out=0.0,
    )


def _pair_blocks(params: RankerParams, anchors, cands) -> tuple[np.ndarray, np.ndarray]:
    """The anchor and candidate rows of n pairs, as two (n, d) blocks."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    cands = np.atleast_2d(np.asarray(cands, dtype=np.float64))
    if anchors.ndim != 2 or anchors.shape != cands.shape or anchors.shape[1] != params.d:
        raise ValueError(
            f"expected two (n, {params.d}) blocks, got {anchors.shape} and {cands.shape}"
        )
    return anchors, cands


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _project(params: RankerParams, rows: np.ndarray, out=None):
    """Per row: the Q/K/V projection (into `out` when given), the self score
    q·k/√h and the head value v·w_out."""
    h = params.h
    qkv = np.matmul(rows, params.w_qkv, out=out)
    s_self = _rowdot(qkv[:, :h], qkv[:, h : 2 * h]) / math.sqrt(h)
    return qkv, s_self, qkv[:, 2 * h :] @ params.w_out


def _closed_form(params: RankerParams, anchor, cand):
    """Logits of the pairs (anchor row i, candidate row i), and the
    attention weights p0, p1 and w0 the gradient reuses. Each side is the
    (qkv, s_self, vw) of `_project` for its rows; of qkv only the Q and K
    columns are read.

    With two tokens, softmax row x puts sigmoid(s_xa - s_xc) on the anchor,
    where s_xy = q_x·k_y/√h, and mean pooling mixes the two value rows with
    one weight, so a logit is b + w0 * vw_a + (1 - w0) * vw_c with
    w0 = (p0 + p1) / 2, p0 = sigmoid(s_aa - s_ac), p1 = sigmoid(s_ca - s_cc).
    """
    (qkv_a, s_a, vw_a), (qkv_c, s_c, vw_c) = anchor, cand
    h = params.h
    root_h = math.sqrt(h)
    p0 = sigmoid(s_a - _rowdot(qkv_a[:, :h], qkv_c[:, h : 2 * h]) / root_h)
    p1 = sigmoid(_rowdot(qkv_c[:, :h], qkv_a[:, h : 2 * h]) / root_h - s_c)
    w0 = 0.5 * (p0 + p1)
    return params.b_out + w0 * vw_a + (1.0 - w0) * vw_c, p0, p1, w0


def forward(params: RankerParams, anchor: np.ndarray, cand: np.ndarray):
    """Logit for one pair, or a vector of logits for batched inputs. The
    anchors and the candidates are projected separately, not stacked."""
    single = np.asarray(anchor).ndim == 1
    anchors, cands = _pair_blocks(params, anchor, cand)
    logits = _closed_form(params, _project(params, anchors), _project(params, cands))[0]
    return float(logits[0]) if single else logits


def predict_proba(params: RankerParams, anchor: np.ndarray, cand: np.ndarray):
    return sigmoid(forward(params, anchor, cand))


def pair_logits(
    params: RankerParams, vectors: np.ndarray, a_rows: np.ndarray, c_rows: np.ndarray
) -> np.ndarray:
    """Logits of the pairs (vectors[a_rows[i]], vectors[c_rows[i]]): what
    `forward` gives on the gathered rows, up to rounding. Q, K and V are
    projected once per row of `vectors`; the closed form reads the pairs
    off those rows VAL_CHUNK_ROWS pairs at a time.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != params.d:
        raise ValueError(
            f"expected a (u, {params.d}) matrix of vectors, got shape {vectors.shape}"
        )
    qkv, s_self, vw = _project(params, vectors)
    qk = qkv[:, : 2 * params.h]  # the closed form reads no value row
    logits = np.empty(len(a_rows))
    for start in range(0, len(a_rows), VAL_CHUNK_ROWS):
        a = a_rows[start : start + VAL_CHUNK_ROWS]
        c = c_rows[start : start + VAL_CHUNK_ROWS]
        anchor, cand = (qk[a], s_self[a], vw[a]), (qk[c], s_self[c], vw[c])
        logits[start : start + len(a)] = _closed_form(params, anchor, cand)[0]
    return logits


@dataclass(eq=False)
class PairTable:
    """Labelled pairs as row indices into a matrix of embeddings: pair i is
    (vectors[anchors[i]], vectors[cands[i]]) with label labels[i].

    Labels repeat across pairs, so `vectors` holds each distinct label once.
    Inputs that do not fit together raise ValueError.
    """

    vectors: np.ndarray  # (u, d) float64
    anchors: np.ndarray  # (n,) intp
    cands: np.ndarray  # (n,) intp
    labels: np.ndarray  # (n,) float64

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(
                f"pair vectors must be a (u, d) matrix, got shape {self.vectors.shape}"
            )
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 1:
            raise ValueError(f"pair labels must be 1-D, got shape {self.labels.shape}")
        self.anchors = self._rows(self.anchors, "anchor")
        self.cands = self._rows(self.cands, "candidate")

    def _rows(self, rows, role: str) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.shape != self.labels.shape:
            raise ValueError(
                f"{role} rows have shape {rows.shape}, labels {self.labels.shape}"
            )
        if rows.size == 0:
            return rows.astype(np.intp)
        if rows.dtype.kind not in "iu":
            raise ValueError(f"{role} rows must be integers, got {rows.dtype}")
        if rows.min() < 0 or rows.max() >= len(self.vectors):
            raise ValueError(
                f"{role} rows must lie in [0, {len(self.vectors)}), "
                f"got {rows.min()}..{rows.max()}"
            )
        return rows.astype(np.intp, copy=False)

    @classmethod
    def of(cls, data) -> "PairTable":
        """`data` itself if it is a table; per-pair (anchors, cands, labels)
        arrays become the table over their stacked rows."""
        if isinstance(data, cls):
            return data
        anchors, cands, labels = (np.asarray(a, dtype=np.float64) for a in data)
        if anchors.ndim != 2 or anchors.shape != cands.shape:
            raise ValueError(
                f"expected two (n, d) blocks, got {anchors.shape} and {cands.shape}"
            )
        n = len(anchors)
        return cls(np.concatenate([anchors, cands]), np.arange(n), np.arange(n, 2 * n), labels)

    def __len__(self) -> int:
        return len(self.labels)

    def gather(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair (anchors, cands, labels) arrays of the pairs `idx`."""
        return self.vectors[self.anchors[idx]], self.vectors[self.cands[idx]], self.labels[idx]


def bce_with_logits(z, y):
    """max(0, z) - z*y + log(1 + exp(-|z|)); stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _loss_terms(z, y, cfg: LossConfig) -> tuple[np.ndarray, tuple]:
    """The per-sample loss a * w * l * m for logits z and labels y, as 1-D
    arrays, and what its gradient reuses: y, the sigmoid p, the BCE l and
    the factors t, w, a, m."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    p = sigmoid(z)
    l = bce_with_logits(z, y)
    t = p * y + (1.0 - p) * (1.0 - y)
    w = 1.0 - t**cfg.beta
    a = cfg.alpha * y + (1.0 - cfg.alpha) * (1.0 - y)
    m = (1.0 - y) * p * cfg.lambda_penalty + 1.0
    return a * w * l * m, (y, p, l, t, w, a, m)


def per_sample_loss(z, y, cfg: LossConfig):
    """Product of the four loss factors for each sample."""
    values, _ = _loss_terms(z, y, cfg)
    return float(values[0]) if np.ndim(z) == 0 else values


def batch_loss(z, y, cfg: LossConfig) -> float:
    return float(np.mean(per_sample_loss(z, y, cfg)))


def loss_grad_z(z, y, cfg: LossConfig) -> np.ndarray:
    """d(per-sample loss)/dz, elementwise."""
    return _grad_z(cfg, *_loss_terms(z, y, cfg)[1])


def _grad_z(cfg: LossConfig, y, p, l, t, w, a, m) -> np.ndarray:
    """`loss_grad_z` from the terms `_loss_terms` returns."""
    dp = p * (1.0 - p)
    dl = p - y
    dt = dp * (2.0 * y - 1.0)
    if cfg.beta == 0.0:
        dw = np.zeros_like(p)
    else:
        dw = -cfg.beta * t ** (cfg.beta - 1.0) * dt
    dm = (1.0 - y) * cfg.lambda_penalty * dp
    return a * (dw * l * m + w * dl * m + w * l * dm)


class _GradWorkspace:
    """The arrays `grad` fills for a batch of up to `rows` pairs: the pair
    rows, the Q/K/V projection, its gradient and the parameter gradient."""

    def __init__(self, rows: int, d: int, h: int):
        self.x = np.empty((2 * rows, d))
        self.qkv = np.empty((2 * rows, 3 * h))
        self.dqkv = np.empty((2 * rows, 3 * h))
        self.grads = RankerParams.from_theta(np.empty(3 * d * h + h + 1), d, h)


def grad(
    params: RankerParams,
    anchors: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    *,
    workspace: Optional[_GradWorkspace] = None,
) -> tuple[float, RankerParams]:
    """Mean loss over the batch and its exact gradient, laid out like the
    parameters. With a `workspace`, the returned gradient lives in it and
    the next call with that workspace overwrites it.

    With g = dL/dz / n and e_j = g * (vw_a - vw_c) * p_j * (1 - p_j) / (2√h),
    the closed form gives dq_a = e0 * (k_a - k_c), dq_c = e1 * (k_a - k_c),
    dk_a = e0 * q_a + e1 * q_c = -dk_c and dv_a = g * w0 * w_out,
    dv_c = g * (1 - w0) * w_out.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if labels.size == 0:
        raise ValueError("gradient of an empty batch")
    ws = workspace or _GradWorkspace(len(np.atleast_2d(anchors)), params.d, params.h)
    anchors, cands = _pair_blocks(params, anchors, cands)
    n, h = len(anchors), params.h
    if labels.shape != (n,):
        raise ValueError(f"need one label per pair, got {labels.shape} for {n} pairs")
    x = np.concatenate([anchors, cands], out=ws.x[: 2 * n])  # pair i is rows i and n + i
    qkv, s_self, vw = _project(params, x, out=ws.qkv[: 2 * n])
    a, c = slice(0, n), slice(n, 2 * n)
    z, p0, p1, w0 = _closed_form(params, (qkv[a], s_self[a], vw[a]), (qkv[c], s_self[c], vw[c]))
    values, terms = _loss_terms(z, labels, cfg)
    loss = float(np.mean(values))

    g = _grad_z(cfg, *terms) / n  # (n,)
    q, k, v = qkv[:, :h], qkv[:, h : 2 * h], qkv[:, 2 * h :]
    e = 0.5 * g * (vw[a] - vw[c]) / math.sqrt(h)
    e0 = (e * p0 * (1.0 - p0))[:, None]
    e1 = (e * p1 * (1.0 - p1))[:, None]
    k_diff = k[a] - k[c]
    dqkv = ws.dqkv[: 2 * n]
    np.multiply(e0, k_diff, out=dqkv[a, :h])
    np.multiply(e1, k_diff, out=dqkv[c, :h])
    np.add(e0 * q[a], e1 * q[c], out=dqkv[a, h : 2 * h])
    np.negative(dqkv[a, h : 2 * h], out=dqkv[c, h : 2 * h])
    g_a, g_c = g * w0, g * (1.0 - w0)
    np.multiply.outer(g_a, params.w_out, out=dqkv[a, 2 * h :])
    np.multiply.outer(g_c, params.w_out, out=dqkv[c, 2 * h :])

    grads = ws.grads
    np.matmul(x.T, dqkv, out=grads.w_qkv)
    grads.w_out = g_a @ v[a] + g_c @ v[c]
    grads.b_out = g.sum()
    return loss, grads


def finite_difference_grad(
    params: RankerParams,
    anchors: np.ndarray,
    cands: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
) -> RankerParams:
    """Central-difference gradient; the reference the analytic path is
    checked against in `gradient_check` and the gradcheck command."""
    epsilon = 1e-4
    work = params.copy()
    theta = work.theta
    out = np.empty_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + epsilon
        plus = batch_loss(forward(work, anchors, cands), labels, cfg)
        theta[i] = saved - epsilon
        minus = batch_loss(forward(work, anchors, cands), labels, cfg)
        theta[i] = saved
        out[i] = (plus - minus) / (2.0 * epsilon)
    return RankerParams.from_theta(out, params.d, params.h)


def gradient_check(trials: int = 20, seed: int = 0) -> list[dict]:
    """Random small configurations compared against central differences.

    A trial's `max_rel_error` is the largest |analytic - numeric| divided by
    max(|analytic|, |numeric|, abs_tol / rel_tol); it is within rel_tol iff
    every difference is within max(abs_tol, rel_tol * |gradient|).
    """
    rel_tol, abs_tol = 1e-4, 1e-7
    rng = np.random.default_rng(seed)
    results = []
    for trial in range(trials):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        params = RankerParams.from_theta(rng.normal(scale=0.7, size=3 * d * h + h + 1), d, h)
        anchors = rng.normal(size=(n, d))
        cands = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        cfg = LossConfig(
            alpha=float(rng.uniform(0.1, 0.9)),
            beta=float(rng.choice([1.0, 2.0, 3.0])),  # at beta = 0 the loss is identically 0
            lambda_penalty=float(rng.choice([0.0, 1.0, 4.0])),
        )
        _, analytic = grad(params, anchors, cands, labels, cfg)
        numeric = finite_difference_grad(params, anchors, cands, labels, cfg)
        a_arr, n_arr = analytic.theta, numeric.theta
        diff = np.abs(a_arr - n_arr)
        denom = np.maximum(np.maximum(np.abs(a_arr), np.abs(n_arr)), abs_tol / rel_tol)
        worst = float((diff / denom).max())
        results.append({
            "trial": trial, "d": d, "h": h, "batch": n,
            "max_rel_error": worst, "passed": worst <= rel_tol,
        })
    return results


@dataclass
class Checkpoint:
    params: RankerParams
    train_config: TrainConfig
    provider_fingerprint: str
    history: list[dict] = field(default_factory=list)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "d": ckpt.params.d,
        "h": ckpt.params.h,
        "train_config": asdict(ckpt.train_config),
        "provider_fingerprint": ckpt.provider_fingerprint,
        "history": ckpt.history,
        "theta": base64.b64encode(ckpt.params.theta.astype("<f8").tobytes()).decode("ascii"),
    }
    write_artifact(path, json_text(payload))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        payload = read_json(fh.read(), f"{path}: not a checkpoint file", CheckpointFormatError)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointFormatError(f"{path}: unrecognized checkpoint format")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: checkpoint version {payload.get('version')} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION}; retrain to convert)"
        )
    try:
        d, h = payload["d"], payload["h"]
        if not all(type(v) is int and v >= 1 for v in (d, h)):
            raise CheckpointFormatError(f"{path}: d and h must be positive integers, got {d!r}, {h!r}")
        theta = np.frombuffer(base64.b64decode(payload["theta"]), dtype="<f8").astype(np.float64)
        if theta.size != 3 * d * h + h + 1:
            raise CheckpointFormatError(f"{path}: theta has {theta.size} values, d={d} h={h}")
        if not np.isfinite(theta).all():
            raise CheckpointFormatError(f"{path}: theta holds non-finite values")
        params = RankerParams.from_theta(theta, d, h)
        train_config = read_config(TrainConfig, payload["train_config"], "train_config", complete=True)
    except (KeyError, TypeError, ValueError, ConfigInvalidError) as exc:
        raise CheckpointFormatError(f"{path}: corrupted checkpoint ({exc})") from exc
    return Checkpoint(
        params=params,
        train_config=train_config,
        provider_fingerprint=payload.get("provider_fingerprint", ""),
        history=payload.get("history", []),
    )


class _Adam:
    """Adam over one parameter vector, updated in place with two reused
    scratch vectors, in the operation order of the textbook update."""

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        # m = beta1 * m + (1 - beta1) * g
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=num)
        m += num
        # v = beta2 * v + (1 - beta2) * g * g
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=num)
        num *= g
        v += num
        # theta -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - ADAM_BETA1**self.t, out=num)
        num *= self.learning_rate
        np.divide(v, 1.0 - ADAM_BETA2**self.t, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        theta -= num


def used_dimensions(train_set: PairTable, val_set: PairTable) -> np.ndarray:
    """The embedding columns, ascending, that are non-zero in some vector
    of either table: the only ones whose Q/K/V rows `train` fits."""
    return np.flatnonzero(train_set.vectors.any(0) | val_set.vectors.any(0))


def train(
    train_set: PairTable | tuple,
    val_set: PairTable | tuple,
    cfg: TrainConfig,
    provider_fingerprint: str = "",
) -> Checkpoint:
    """Mini-batch Adam with early stopping on validation mean loss.

    Each set is a `PairTable` or per-pair (anchors, candidates, labels)
    arrays with matching first dimensions; balancing is the caller's
    responsibility. Returns the best-validation parameters. Deterministic
    given cfg.seed. Raises TrainingDivergedError as soon as a batch or
    validation loss is not finite.

    Only the Q/K/V rows of the `used_dimensions` are trained. For any other
    column j, x[i, j] = 0 in every row, so the projection's terms
    x[i, j] * w_qkv[j] are exact zeros and the weight gradient
    dw_qkv[j] = sum_i x[i, j] * dqkv[i] is 0 at every step; Adam's m and v
    stay 0, and its update leaves w_qkv[j] at its initial value. So the
    tables are narrowed to the used columns, Adam and `grad` run at that
    width, and the returned parameters are the full-width initial ones with
    the trained rows, head and bias written in: the model that training
    every row gives, bit for bit where the BLAS kernel sums the projection
    in column order, and up to rounding where it groups the sums by width.
    """
    tr, va = PairTable.of(train_set), PairTable.of(val_set)
    if len(tr) == 0 or len(va) == 0:
        raise ValueError("train and validation sets must be non-empty")
    d = tr.vectors.shape[1]
    if va.vectors.shape[1] != d:
        raise ValueError(
            f"validation vectors have width {va.vectors.shape[1]}, training vectors {d}"
        )
    used = used_dimensions(tr, va)
    # `take` gives row-major copies; `vectors[:, used]` would give
    # column-major ones, whose projection BLAS rounds differently.
    tr, va = (PairTable(t.vectors.take(used, axis=1), t.anchors, t.cands, t.labels)
              for t in (tr, va))

    full = init_params(d, cfg.h, cfg.init_scale, cfg.seed)
    params = RankerParams(full.wq[used], full.wk[used], full.wv[used], full.w_out, full.b_out)
    rng = np.random.default_rng(cfg.seed + 1)
    adam = _Adam(params.theta.size, cfg.learning_rate)
    n = len(tr)
    workspace = _GradWorkspace(min(cfg.batch_size, n), len(used), cfg.h)

    best_params = params.copy()
    best_val = math.inf
    history: list[dict] = []
    stale = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = grad(params, *tr.gather(idx), cfg.loss, workspace=workspace)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"epoch {epoch}: batch loss is {loss}")
            epoch_losses.append(loss)
            adam.step(params.theta, grads.theta)
        val_logits = pair_logits(params, va.vectors, va.anchors, va.cands)
        val_loss = batch_loss(val_logits, va.labels, cfg.loss)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"epoch {epoch}: validation loss is {val_loss}")
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val_loss,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience > 0:
                break

    full.w_qkv[used] = best_params.w_qkv
    full.w_out, full.b_out = best_params.w_out, best_params.b_out
    return Checkpoint(
        params=full,
        train_config=cfg,
        provider_fingerprint=provider_fingerprint,
        history=history,
    )


def grid_search(
    train_set: PairTable | tuple,
    val_set: PairTable | tuple,
    base_cfg: TrainConfig,
    grid: dict[str, Sequence],
    provider_fingerprint: str = "",
) -> tuple[Checkpoint, list[dict]]:
    """Exhaustive search over explicit value lists for selected knobs.

    Grid keys are those of config.GRID_KEYS; `with_grid` refuses others.
    An empty grid is one combination, the base config. Returns the
    checkpoint with the lowest best-epoch validation loss plus one result
    row per combination; ties, and a grid where no combination has a
    validation loss, resolve to the earliest combination in sorted-key order.
    """
    train_set, val_set = PairTable.of(train_set), PairTable.of(val_set)
    keys = sorted(grid)
    combos = list(product(*(grid[k] for k in keys)))  # no keys: one empty combination
    if not combos:
        raise ValueError(f"grid values must be non-empty lists, got {grid}")
    best: Optional[Checkpoint] = None
    best_val = math.inf
    rows = []
    for combo in combos:
        chosen = dict(zip(keys, combo))
        ckpt = train(train_set, val_set, with_grid(base_cfg, chosen), provider_fingerprint)
        val = min((row["val_loss"] for row in ckpt.history), default=math.inf)
        rows.append({"combo": chosen, "val_loss": val})
        if best is None or val < best_val:
            best_val = val
            best = ckpt
    return best, rows

