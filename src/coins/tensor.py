"""Dense tensors with reverse-mode automatic differentiation.

Everything is a plain numpy array wrapped in a :class:`Tensor`. Ops are
module-level functions that record parent references and a backward
closure on the result; :func:`backward` replays the recorded graph (a
:class:`Tape`) in reverse topological order, visiting each node once.

Storage is float32 by default. Gradient-check tests build float64
graphs by constructing leaves with ``dtype=np.float64``; ops inherit
the dtype of their inputs.

GELU uses the tanh approximation, so finite-difference oracles agree
with the implemented forward exactly.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operands have incompatible shapes; message names both."""


class GraphError(RuntimeError):
    """Backward called on something that is not a scalar graph root."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends graph recording (decoding, eval)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap ndarrays or scalars, not Tensors")
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Record one op on the graph; constant-folds when grads are off."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Ordered record of the graph under ``root``: parents before children.

    Built once per backward pass; iterating ``reversed(tape.nodes)``
    visits each node exactly once in valid reverse-topological order.
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.nodes: list[Tensor] = order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Repeated calls accumulate into existing ``grad`` buffers. A graph is
    walked once: each op node drops its parents and backward closure as
    soon as it has passed its gradient on, so the activations it held are
    freed during the walk, not after it.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward needs a scalar root, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    nodes = Tape(loss).nodes
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    while nodes:
        node = nodes.pop()
        parents, back = node._parents, node._backward
        node._parents, node._backward = (), None
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if back is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(parents, back(g)):
            if pg is None or not parent.requires_grad:
                continue
            prev = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if prev is None else prev + pg


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(data, (a, b), back)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g):
        return (g * s,)

    return _node(a.data * s, (a,), back)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a`` (..., K) times the matrix ``b`` (K, N), plus ``bias`` (N,) when
    given: the leading axes of ``a`` are flattened into the rows of one
    2-D product."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, b.shape[0])
    out = rows @ b.data
    if bias is not None:
        out += bias.data

    def back(g):
        g2 = g.reshape(-1, b.shape[1])
        grads = (g2 @ b.data.T).reshape(a.shape), rows.T @ g2
        return grads if bias is None else (*grads, g2.sum(axis=0))

    parents = (a, b) if bias is None else (a, b, bias)
    return _node(out.reshape(*a.shape[:-1], b.shape[1]), parents, back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def back(g):
        return (g.T,)

    return _node(a.data.T.copy(), (a,), back)


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice ``a[..., start:start+size, ...]`` along ``axis``."""
    if not (0 <= start and size >= 0 and start + size <= a.shape[axis]):
        raise ShapeError(f"narrow [{start}:{start + size}] out of range for {a.shape} axis {axis}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)

    def back(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _node(a.data[idx].copy(), (a,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(data, tuple(tensors), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of the (N, H) ``table`` for integer ``ids`` of any shape."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding id out of range for table {table.shape}")
    data = table.data[ids]

    def back(g):
        full = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(full, ids.ravel(), g.reshape(-1, table.shape[1]))
        return (full,)

    return _node(data, (table,), back)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (a,), back)


def layer_norm_array(x: np.ndarray, gain=None, bias=None, eps: float = 1e-5):
    """Normalize the last axis of ``x`` to zero mean and unit variance, then
    scale by ``gain`` and shift by ``bias`` when they are given. Returns the
    output, the normalized input and 1/std; the backward reuses the last two.

    Means are ``np.add.reduce(...) / n``: the same bits as ``ndarray.mean``
    in fewer calls."""
    n = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / n + eps)
    xhat = xc * inv
    return (xhat if gain is None else xhat * gain + bias), xhat, inv


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis, affine when ``gain`` and ``bias`` (H,)
    are given."""
    affine = gain is not None
    y, xhat, inv = layer_norm_array(a.data, gain.data if affine else None,
                                    bias.data if affine else None, eps)

    def back(g):
        gx = g * gain.data if affine else g
        n = gx.shape[-1]
        gm = np.add.reduce(gx, -1, keepdims=True) / n
        gym = np.add.reduce(gx * xhat, -1, keepdims=True) / n
        dx = inv * (gx - gm - xhat * gym)
        if not affine:
            return (dx,)
        rows = g.reshape(-1, g.shape[-1])
        return dx, (rows * xhat.reshape(rows.shape)).sum(axis=0), rows.sum(axis=0)

    return _node(y, (a, gain, bias) if affine else (a,), back)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximated GELU of ``x``, and the tanh term its derivative reuses.

    The cube is ``x*x*x``: ``x**3`` takes numpy's general power path,
    about 100x slower on float32.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(a: Tensor) -> Tensor:
    x = a.data
    y, t = gelu_tanh(x)

    def back(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        return (g * dy,)

    return _node(y, (a,), back)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None, train: bool = True) -> Tensor:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return a
    keep = _keep_mask(a.shape, p, rng, a.dtype)

    def back(g):
        return (g * keep,)

    return _node(a.data * keep, (a,), back)


def _keep_mask(shape, p: float, rng: np.random.Generator | None, dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability p, else 1/(1-p)."""
    if rng is None:
        raise ValueError("dropout with p > 0 needs an rng for reproducibility")
    return (rng.random(shape, dtype=np.float32) >= p).astype(dtype) / (1.0 - p)


def attention_array(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                    mask: np.ndarray | None, keep: np.ndarray | None = None):
    """Multi-head scaled dot-product attention in plain numpy.

    Queries ``q`` (B, s, H) attend over keys and values ``k``, ``v``
    (B, t, H), split into ``heads`` heads of H/heads features. ``mask``
    (0 or -inf) is added to the scores (B, heads, s, t): a causal (s, t)
    mask, or (B, 1, 1, t) to cut each row at its own length; None adds
    nothing, as for one query that may see every key. ``keep``, when given,
    multiplies the softmax weights (B, heads, s, t): dropout. Returns the
    output (B, s, H) and, for the backward, the softmax weights and the
    per-head queries, transposed keys and values.
    """
    B, s, H = q.shape
    t = k.shape[1]
    dh = H // heads
    qh = q.reshape(B, s, heads, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(B, t, heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(B, t, heads, dh).transpose(0, 2, 1, 3)
    # softmax in place on the fresh scores: the same bits as out of place
    att = qh @ kt
    att *= 1.0 / float(np.sqrt(dh))
    if mask is not None:
        att += mask
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    weights = att if keep is None else att * keep
    out = (weights @ vh).transpose(0, 2, 1, 3).reshape(B, s, H)
    return out, (att, qh, kt, vh)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray, p: float = 0.0,
              rng: np.random.Generator | None = None, train: bool = True) -> Tensor:
    """Multi-head self-attention of (..., T, H) queries, keys and values as
    one node: scale, additive ``mask`` (T, T), softmax and dropout ``p`` on
    the weights. The backward is the closed-form softmax-attention
    gradient."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    shape = q.shape
    t, H = shape[-2], shape[-1]
    q3, k3, v3 = (x.data.reshape(-1, t, H) for x in (q, k, v))
    B, dh = q3.shape[0], H // heads
    keep = _keep_mask((B, heads, t, t), p, rng, q.dtype) if train and p > 0.0 else None
    out, (att, qh, kt, vh) = attention_array(q3, k3, v3, heads, mask, keep)
    att_scale = 1.0 / float(np.sqrt(dh))

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(shape)

    def back(g):
        g4 = g.reshape(B, t, heads, dh)
        go = g4.transpose(0, 2, 1, 3)
        dweights = go @ vh.transpose(0, 1, 3, 2)
        weights = att if keep is None else att * keep  # recomputed, not held
        dv = weights.transpose(0, 1, 3, 2) @ go
        # the softmax backward's row sum of dweights * weights is go . out, per head
        rowdot = (g4 * out.reshape(B, t, heads, dh)).sum(axis=-1).transpose(0, 2, 1)[..., None]
        datt = dweights if keep is None else dweights * keep
        ds = att * (datt - rowdot) * att_scale
        dq = ds @ kt.transpose(0, 1, 3, 2)
        dk = ds.transpose(0, 1, 3, 2) @ qh
        return merge(dq), merge(dk), merge(dv)

    return _node(out.reshape(shape), (q, k, v), back)


def tsum(a: Tensor) -> Tensor:
    def back(g):
        return (np.full(a.shape, g, dtype=a.dtype),)

    return _node(np.asarray(a.data.sum(), dtype=a.dtype), (a,), back)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def back(g):
        return (np.full(a.shape, g / n, dtype=a.dtype),)

    return _node(np.asarray(a.data.mean(), dtype=a.dtype), (a,), back)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise log-softmax on raw arrays (no graph)."""
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy_masked(logits: Tensor, targets, loss_mask, reduction: str = "mean") -> Tensor:
    """Masked negative log-likelihood of ``targets`` under row softmaxes,
    one value per sequence.

    ``logits`` is (..., T, V): one sequence (T, V) or a batch (B, T, V).
    ``targets`` (int ids) and ``loss_mask`` (booleans selecting the
    positions that contribute) have shape (..., T). Each sequence's NLL is
    reduced over its masked-in positions by mean (the default) or sum
    (``reduction="sum"``), giving shape (...): a scalar for one sequence.
    A sequence with an all-false mask has loss 0, with a warning. Only
    masked-in rows go through the softmax.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets, dtype=np.intp)
    mask = np.asarray(loss_mask, dtype=bool)
    x = logits.data
    if x.ndim < 2 or targets.shape != x.shape[:-1] or mask.shape != x.shape[:-1]:
        raise ShapeError(
            f"targets/mask must have shape {x.shape[:-1]}, got {targets.shape} and {mask.shape}"
        )
    count = mask.sum(axis=-1)
    if not np.all(count):
        warnings.warn("cross_entropy_masked: empty mask, loss defined as 0", stacklevel=2)
    lp = log_softmax_rows(x[mask])
    picked = (np.arange(len(lp)), targets[mask])
    nll = np.zeros(mask.shape, dtype=x.dtype)
    nll[mask] = -lp[picked]
    denom = np.maximum(count, 1).astype(x.dtype) if reduction == "mean" else x.dtype.type(1)

    def back(g):
        d = np.exp(lp)
        d[picked] -= 1.0
        d *= np.broadcast_to((g / denom)[..., None], mask.shape)[mask][:, None]
        full = np.zeros(x.shape, dtype=x.dtype)
        full[mask] = d
        return (full,)

    return _node(nll.sum(axis=-1) / denom, (logits,), back)
