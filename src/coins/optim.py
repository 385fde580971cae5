"""Adam with bias correction, plus optional global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class GradientError(RuntimeError):
    """A non-finite gradient was encountered; message names the parameter."""


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * p.grad.dtype.type(factor)
    return norm


def adam_update(params: dict[str, Tensor], state: AdamState, grad_clip: float | None = None) -> float:
    """One Adam step over every parameter; missing grads count as zero.
    Returns the global gradient norm before clipping.

    m_t = b1 m + (1-b1) g; v_t = b2 v + (1-b2) g^2; the bias-corrected
    moments drive w -= lr * m_hat / (sqrt(v_hat) + eps). Deterministic
    given the state; aborts on NaN/inf gradients naming the culprit.
    """
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise GradientError(f"non-finite gradient in parameter {name!r}")
    norm = global_grad_norm(params) if grad_clip is None else clip_grads(params, grad_clip)
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / p.data.dtype.type(bc1)
        v_hat = v / p.data.dtype.type(bc2)
        p.data = p.data - p.data.dtype.type(state.lr) * m_hat / (np.sqrt(v_hat) + p.data.dtype.type(state.eps))
    return norm
