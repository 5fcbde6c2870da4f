"""Neural-network operations on :class:`~repro.tensor.autograd.Tensor`.

These free functions build the pieces of the MoE transformer: activations,
normalization, embeddings, the cross-entropy loss, the row gather / scatter
primitives the MoE dispatch and combine stages are built from, and the
grouped expert FFN that runs between them.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.autograd import Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# ----------------------------------------------------------------------
# Linear algebra / activations
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b``."""
    return _as_tensor(a) @ _as_tensor(b)


def _relu(x: np.ndarray):
    mask = (x > 0).astype(x.dtype)
    return x * mask, lambda: mask


def _silu(x: np.ndarray):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, lambda: sig * (1.0 + x * (1.0 - sig))


def _gelu(x: np.ndarray):
    c = np.sqrt(2.0 / np.pi)
    tanh_inner = np.tanh(c * (x + 0.044715 * x**3))

    def derivative():
        sech2 = 1.0 - tanh_inner**2
        d_inner = c * (1.0 + 3 * 0.044715 * x**2)
        return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner

    return 0.5 * x * (1.0 + tanh_inner), derivative


#: ``name -> fn(x) -> (value, derivative thunk)`` on plain arrays: each
#: activation's arithmetic, written once for the ops below and grouped_ffn.
ACTIVATIONS = {"relu": _relu, "silu": _silu, "gelu": _gelu}


def activate(x: Tensor, activation: str) -> Tensor:
    """Apply the :data:`ACTIVATIONS` entry named ``activation``."""
    x = _as_tensor(x)
    out, derivative = ACTIVATIONS[activation](x.data)

    def backward(grad):
        return (grad * derivative(),)

    return Tensor.from_op(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return activate(x, "relu")


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation, the FFN activation used by DeepSeek models."""
    return activate(x, "silu")


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GeLU."""
    return activate(x, "gelu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return Tensor.from_op(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    soft = np.exp(out)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension."""
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    bias = _as_tensor(bias)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out = x_hat * weight.data + bias.data
    n = x.data.shape[-1]

    def backward(grad):
        g_weight = (grad * x_hat).reshape(-1, n).sum(axis=0)
        g_bias = grad.reshape(-1, n).sum(axis=0)
        g_xhat = grad * weight.data
        g_x = (
            inv_std
            / n
            * (
                n * g_xhat
                - g_xhat.sum(axis=-1, keepdims=True)
                - x_hat * (g_xhat * x_hat).sum(axis=-1, keepdims=True)
            )
        )
        return (g_x, g_weight.reshape(weight.shape), g_bias.reshape(bias.shape))

    return Tensor.from_op(out, (x, weight, bias), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with gradient scatter-add."""
    weight = _as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    out = weight.data[indices]

    def backward(grad):
        g = np.zeros_like(weight.data)
        np.add.at(g, indices, grad)
        return (g,)

    return Tensor.from_op(out, (weight,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy.

    ``logits`` is ``[N, V]`` (or any leading shape flattened to N) and
    ``targets`` an integer array of shape ``[N]``.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    flat = logits.data.reshape(-1, logits.data.shape[-1])
    n, v = flat.shape
    if targets.shape[0] != n:
        raise ValueError(f"targets has {targets.shape[0]} entries, expected {n}")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    nll = -log_probs[np.arange(n), targets]
    loss = nll.mean()
    probs = np.exp(log_probs)

    def backward(grad):
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        g *= float(grad) / n
        return (g.reshape(logits.shape),)

    return Tensor.from_op(np.asarray(loss), (logits,), backward)


# ----------------------------------------------------------------------
# MoE primitives (row gather / scatter, grouped expert FFN, top-k)
# ----------------------------------------------------------------------
def gather_rows(x: Tensor, row_ids: np.ndarray) -> Tensor:
    """``out[i, :] = x[row_ids[i], :]`` — the dispatch gather.

    The gradient scatters (adds) back into the source rows, which is exactly
    the behaviour the Triton gather kernel's backward needs.
    """
    x = _as_tensor(x)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    out = x.data[row_ids]

    def backward(grad):
        g = np.zeros_like(x.data)
        np.add.at(g, row_ids, grad)
        return (g,)

    return Tensor.from_op(out, (x,), backward)


def scatter_rows(
    x: Tensor,
    row_ids: np.ndarray,
    num_rows: int,
    weights: np.ndarray | Tensor | None = None,
) -> Tensor:
    """``out[row_ids[i], :] += weights[i] * x[i, :]`` — the combine scatter.

    ``weights`` (optional, per-source-row scalars) are the combine weights;
    gradients flow to both ``x`` and ``weights``.
    """
    x = _as_tensor(x)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if row_ids.ndim != 1 or row_ids.shape[0] != x.data.shape[0]:
        raise ValueError("row_ids must be a 1-D array matching x's first dimension")
    if weights is None:
        weighted = x.data
        out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
        np.add.at(out, row_ids, weighted)

        def backward(grad):
            return (grad[row_ids],)

        return Tensor.from_op(out, (x,), backward)

    w = weights if isinstance(weights, Tensor) else Tensor(np.asarray(weights, dtype=np.float64))
    w_col = w.data.reshape(-1, *([1] * (x.data.ndim - 1)))
    weighted = x.data * w_col
    out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out, row_ids, weighted)

    def backward(grad):
        gx = grad[row_ids] * w_col
        gw = (grad[row_ids] * x.data).reshape(x.data.shape[0], -1).sum(axis=1)
        return (gx, gw.reshape(w.shape))

    return Tensor.from_op(out, (x, w), backward)


def grouped_ffn(
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    tokens_per_expert: np.ndarray,
    activation: str = "silu",
) -> Tensor:
    """``out[lo:hi] = act(x[lo:hi] @ w1[e]) @ w2[e]`` per expert row group.

    ``x`` is ``[B, H]`` grouped by expert id (ascending), ``w1``/``w2`` are
    stacked ``[E, H, F]`` / ``[E, F, H]`` weights and ``tokens_per_expert``
    the ``E`` group lengths.  Only experts with rows run a GEMM.  The whole
    bank is one tape node with a hand-written backward: the same products
    as ``Tensor.__matmul__``'s backward, accumulated with ``+=`` into zeroed
    ``gx``/``gw1``/``gw2`` so every entry is ``0.0 + g`` exactly as
    per-expert slice-and-matmul nodes give (``-0.0`` handling included).
    """
    x, w1, w2 = _as_tensor(x), _as_tensor(w1), _as_tensor(w2)
    counts = np.asarray(tokens_per_expert, dtype=np.int64)
    if counts.size != w1.shape[0]:
        raise ValueError(
            f"tokens_per_expert has {counts.size} entries, expected {w1.shape[0]}"
        )
    if counts.sum() != x.shape[0]:
        raise ValueError(
            f"tokens_per_expert sums to {counts.sum()} but x has {x.shape[0]} rows"
        )
    bounds = np.concatenate([[0], np.cumsum(counts)])
    groups = [(e, int(bounds[e]), int(bounds[e + 1])) for e in np.flatnonzero(counts)]
    if not groups:
        return Tensor(np.zeros((0, w2.shape[2])))
    # Per-expert GEMMs write into row slices of shared buffers, so the
    # elementwise activation runs once over all rows (same per-entry math).
    pre = np.empty((x.shape[0], w1.shape[2]))
    for e, lo, hi in groups:
        np.matmul(x.data[lo:hi], w1.data[e], out=pre[lo:hi])
    h, derivative = ACTIVATIONS[activation](pre)
    out = np.empty((x.shape[0], w2.shape[2]))
    for e, lo, hi in groups:
        np.matmul(h[lo:hi], w2.data[e], out=out[lo:hi])

    def backward(grad):
        gx, gw1, gw2 = (np.zeros_like(t.data) for t in (x, w1, w2))
        gh = np.empty_like(pre)
        for e, lo, hi in groups:
            gw2[e] += h[lo:hi].T @ grad[lo:hi]
            np.matmul(grad[lo:hi], w2.data[e].T, out=gh[lo:hi])
        gh *= derivative()
        for e, lo, hi in groups:
            gx[lo:hi] += gh[lo:hi] @ w1.data[e].T
            gw1[e] += x.data[lo:hi].T @ gh[lo:hi]
        return gx, gw1, gw2

    return Tensor.from_op(out, (x, w1, w2), backward)


def topk(x: np.ndarray | Tensor, k: int, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Non-differentiable top-k: returns ``(values, indices)`` sorted by
    descending value along ``axis`` (only the last axis is supported)."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if axis not in (-1, data.ndim - 1):
        raise ValueError("topk only supports the last axis")
    if not (1 <= k <= data.shape[-1]):
        raise ValueError(f"k={k} out of range for axis size {data.shape[-1]}")
    idx = np.argpartition(-data, kth=k - 1, axis=-1)[..., :k]
    part = np.take_along_axis(data, idx, axis=-1)
    order = np.argsort(-part, axis=-1, kind="stable")
    idx_sorted = np.take_along_axis(idx, order, axis=-1)
    vals_sorted = np.take_along_axis(part, order, axis=-1)
    return vals_sorted, idx_sorted


# ----------------------------------------------------------------------
# Concatenation / stacking
# ----------------------------------------------------------------------
def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    split_points = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, split_points, axis=axis)
        return tuple(pieces)

    return Tensor.from_op(out, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis=axis) for p in pieces)

    return Tensor.from_op(out, tuple(tensors), backward)
