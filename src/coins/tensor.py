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
        if not np.issubdtype(arr.dtype, np.floating):
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
    """Populate ``grad`` on every requires_grad node reachable from ``loss``.

    Repeated calls accumulate into existing ``grad`` buffers.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward needs a scalar root, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    tape = Tape(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(tape.nodes):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), back)


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
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding id out of range for table {table.shape}")
    data = table.data[ids]

    def back(g):
        full = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(full, ids, g)
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


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv

    def back(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _node(y, (a,), back)


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
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
        return (g * dy,)

    return _node(y, (a,), back)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None, train: bool = True) -> Tensor:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout with p > 0 needs an rng for reproducibility")
    keep = (rng.random(a.shape) >= p).astype(a.dtype) / (1.0 - p)

    def back(g):
        return (g * keep,)

    return _node(a.data * keep, (a,), back)


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
    """Masked negative log-likelihood of ``targets`` under row softmaxes.

    ``logits`` is (T, V); ``targets`` length-T int ids; ``loss_mask``
    length-T booleans selecting the positions that contribute. The
    default reduces by mean over masked-in positions; ``reduction="sum"``
    leaves the raw sum. An all-false mask yields 0 with a warning.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets, dtype=np.intp)
    mask = np.asarray(loss_mask, dtype=bool)
    T, V = logits.shape
    if targets.shape != (T,) or mask.shape != (T,):
        raise ShapeError(
            f"targets/mask must be length {T}, got {targets.shape} and {mask.shape}"
        )
    count = int(mask.sum())
    if count == 0:
        warnings.warn("cross_entropy_masked: empty mask, loss defined as 0", stacklevel=2)
        return Tensor(np.zeros((), dtype=logits.dtype))

    x = logits.data
    lp = log_softmax_rows(x)
    nll = -lp[np.arange(T), targets]
    total = nll[mask].sum()
    value = total / count if reduction == "mean" else total

    def back(g):
        p = np.exp(lp)
        d = p.copy()
        d[np.arange(T), targets] -= 1.0
        d[~mask] = 0.0
        if reduction == "mean":
            d /= count
        return (d * g,)

    return _node(np.asarray(value, dtype=logits.dtype), (logits,), back)
