"""Decoder-only causal transformer and the training losses built on it.

The two generators (rule model and sentence model) are two independent
instances of the same architecture: token + position embeddings, pre-norm
blocks of masked multi-head self-attention and a GELU MLP, and a softmax
head that by default reuses the token embedding as output projection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_arrays, save_arrays
from .errors import ConfigError
from .tensor import Tensor

LN_EPS = 1e-5

MODEL_ROLES = ("csi_gen", "csi_spec", "sentence", "baseline")


class LengthError(ValueError):
    """Input sequence exceeds the configured position budget."""


@dataclass
class LmConfig:
    vocab: int
    layers: int = 2
    hidden: int = 64
    heads: int = 2
    max_positions: int = 128
    dropout_p: float = 0.1
    tie_output_to_embedding: bool = True

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "LmConfig":
        return cls(**d)


def init_lm(config: LmConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameters, normal(0, 0.02) for projections, zeros for biases."""

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    H, V = config.hidden, config.vocab
    params: dict[str, Tensor] = {
        "tok_emb": normal(V, H),
        "pos_emb": normal(config.max_positions, H),
        "ln_f.g": ones(H),
        "ln_f.b": zeros(H),
    }
    if not config.tie_output_to_embedding:
        params["out_proj"] = normal(V, H)
    for b in range(config.layers):
        p = f"h{b}."
        params[p + "ln1.g"] = ones(H)
        params[p + "ln1.b"] = zeros(H)
        params[p + "attn.wq"] = normal(H, H)
        params[p + "attn.bq"] = zeros(H)
        params[p + "attn.wk"] = normal(H, H)
        params[p + "attn.bk"] = zeros(H)
        params[p + "attn.wv"] = normal(H, H)
        params[p + "attn.bv"] = zeros(H)
        params[p + "attn.wo"] = normal(H, H)
        params[p + "attn.bo"] = zeros(H)
        params[p + "ln2.g"] = ones(H)
        params[p + "ln2.b"] = zeros(H)
        params[p + "mlp.w1"] = normal(H, 4 * H)
        params[p + "mlp.b1"] = zeros(4 * H)
        params[p + "mlp.w2"] = normal(4 * H, H)
        params[p + "mlp.b2"] = zeros(H)
    return params


_MASK_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _causal_mask(t: int, dtype) -> np.ndarray:
    key = (t, np.dtype(dtype).name)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = np.triu(np.full((t, t), -np.inf, dtype=dtype), k=1)
        _MASK_CACHE[key] = m
    return m


def _affine_ln(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    return T.add(T.mul(T.layer_norm(x, LN_EPS), g), b)


def forward(
    params: dict[str, Tensor],
    config: LmConfig,
    ids,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits (T, V) for next-token prediction at every position.

    Position p's logits depend only on ids[:p+1]; attention to future
    positions is cut with a -inf additive mask, which zeroes their
    softmax weight exactly, so prefix logits are bit-stable under
    suffix edits.
    """
    ids = np.asarray(ids, dtype=np.intp)
    t = len(ids)
    if t == 0:
        raise LengthError("empty input sequence")
    if t > config.max_positions:
        raise LengthError(f"sequence length {t} exceeds max_positions {config.max_positions}")
    drop = config.dropout_p if train else 0.0
    H, nh = config.hidden, config.heads
    dh = H // nh
    att_scale = 1.0 / float(np.sqrt(dh))
    dtype = params["tok_emb"].dtype

    h = T.add(T.embedding_lookup(params["tok_emb"], ids), T.narrow(params["pos_emb"], 0, 0, t))
    h = T.dropout(h, drop, rng, train)
    mask = Tensor(_causal_mask(t, dtype))

    for b in range(config.layers):
        p = f"h{b}."
        a = _affine_ln(h, params[p + "ln1.g"], params[p + "ln1.b"])
        q = T.add(T.matmul(a, params[p + "attn.wq"]), params[p + "attn.bq"])
        k = T.add(T.matmul(a, params[p + "attn.wk"]), params[p + "attn.bk"])
        v = T.add(T.matmul(a, params[p + "attn.wv"]), params[p + "attn.bv"])
        heads = []
        for i in range(nh):
            qi = T.narrow(q, 1, i * dh, dh)
            ki = T.narrow(k, 1, i * dh, dh)
            vi = T.narrow(v, 1, i * dh, dh)
            scores = T.add(T.scale(T.matmul(qi, T.transpose(ki)), att_scale), mask)
            att = T.dropout(T.softmax(scores, axis=-1), drop, rng, train)
            heads.append(T.matmul(att, vi))
        o = T.add(T.matmul(T.concat(heads, axis=1), params[p + "attn.wo"]), params[p + "attn.bo"])
        h = T.add(h, T.dropout(o, drop, rng, train))

        m = _affine_ln(h, params[p + "ln2.g"], params[p + "ln2.b"])
        m = T.gelu(T.add(T.matmul(m, params[p + "mlp.w1"]), params[p + "mlp.b1"]))
        m = T.add(T.matmul(m, params[p + "mlp.w2"]), params[p + "mlp.b2"])
        h = T.add(h, T.dropout(m, drop, rng, train))

    hf = _affine_ln(h, params["ln_f.g"], params["ln_f.b"])
    proj = params["tok_emb"] if config.tie_output_to_embedding else params["out_proj"]
    return T.matmul(hf, T.transpose(proj))


KvCache = list[tuple[np.ndarray, np.ndarray]]


def _ln_array(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    return (x - mu) * inv * g + b


def forward_cached(
    params: dict[str, Tensor],
    config: LmConfig,
    ids,
    cache: KvCache | None = None,
) -> tuple[np.ndarray, np.ndarray, KvCache]:
    """Inference forward in plain numpy: no graph, no dropout.

    ``ids`` (B, s) are new tokens that continue the ``cache`` positions:
    one (keys, values) pair of shape (B, t, H) per layer, from an earlier
    call. Returns logits (B, s, V), final-norm hidden states (B, s, H)
    and the cache extended to t + s positions. Prefilling a prompt and
    then feeding one token at a time gives the logits of
    :func:`forward` on the whole sequence, up to float summation order.
    """
    ids = np.asarray(ids, dtype=np.intp)
    B, s = ids.shape
    t = 0 if cache is None else cache[0][0].shape[1]
    if s == 0:
        raise LengthError("empty input sequence")
    if t + s > config.max_positions:
        raise LengthError(f"sequence length {t + s} exceeds max_positions {config.max_positions}")
    w = {k: v.data for k, v in params.items()}
    H, nh = config.hidden, config.heads
    dh = H // nh
    att_scale = 1.0 / float(np.sqrt(dh))

    # rows are (batch, position) pairs, flattened for the projections
    h = (w["tok_emb"][ids] + w["pos_emb"][t : t + s]).reshape(B * s, H)
    mask = np.triu(np.full((s, t + s), -np.inf, dtype=h.dtype), k=t + 1)
    new_cache: KvCache = []
    for b in range(config.layers):
        p = f"h{b}."
        a = _ln_array(h, w[p + "ln1.g"], w[p + "ln1.b"])
        q = a @ w[p + "attn.wq"] + w[p + "attn.bq"]
        k = (a @ w[p + "attn.wk"] + w[p + "attn.bk"]).reshape(B, s, H)
        v = (a @ w[p + "attn.wv"] + w[p + "attn.bv"]).reshape(B, s, H)
        if cache is not None:
            k = np.concatenate([cache[b][0], k], axis=1)
            v = np.concatenate([cache[b][1], v], axis=1)
        new_cache.append((k, v))
        qh = q.reshape(B, s, nh, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, t + s, nh, dh).transpose(0, 2, 3, 1)
        vh = v.reshape(B, t + s, nh, dh).transpose(0, 2, 1, 3)
        scores = (qh @ kh) * att_scale + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        o = (att @ vh).transpose(0, 2, 1, 3).reshape(B * s, H)
        h = h + (o @ w[p + "attn.wo"] + w[p + "attn.bo"])

        m = _ln_array(h, w[p + "ln2.g"], w[p + "ln2.b"])
        m = T.gelu_tanh(m @ w[p + "mlp.w1"] + w[p + "mlp.b1"])[0]
        h = h + (m @ w[p + "mlp.w2"] + w[p + "mlp.b2"])

    hf = _ln_array(h, w["ln_f.g"], w["ln_f.b"])
    proj = w["tok_emb"] if config.tie_output_to_embedding else w["out_proj"]
    logits = hf @ proj.T
    return logits.reshape(B, s, -1), hf.reshape(B, s, H), new_cache


@dataclass(frozen=True)
class TrainSeq:
    """One serialized sequence with its loss span.

    ``ids`` is the full token sequence; positions [start, end) are the
    continuation being learned (target tokens plus the [EOS] terminator),
    everything before is conditioning context.
    """

    ids: np.ndarray
    start: int
    end: int

    def __post_init__(self):
        if not 0 < self.start <= self.end <= len(self.ids):
            raise ValueError(f"bad target span [{self.start}, {self.end}) for length {len(self.ids)}")

    @property
    def n_target_tokens(self) -> int:
        return self.end - self.start


def make_train_seq(prompt_ids: list[int], target_ids: list[int]) -> TrainSeq:
    ids = np.asarray(prompt_ids + target_ids, dtype=np.intp)
    return TrainSeq(ids=ids, start=len(prompt_ids), end=len(ids))


def masked_nll(
    params: dict[str, Tensor],
    config: LmConfig,
    seq: TrainSeq,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Mean (or summed) NLL of the sequence's target span.

    Row p of the logits predicts token p+1, so the span [start, end)
    over tokens maps to rows [start-1, end-1) over logits.
    """
    inputs = seq.ids[:-1]
    targets = seq.ids[1:]
    logits = forward(params, config, inputs, train=train, rng=rng)
    mask = np.zeros(len(targets), dtype=bool)
    mask[seq.start - 1 : seq.end - 1] = True
    return T.cross_entropy_masked(logits, targets, mask, reduction=reduction)


def csi_loss(
    beta: dict[str, Tensor],
    config: LmConfig,
    effect_seq: TrainSeq,
    cause_seq: TrainSeq,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Rule-generation objective: the Effect-rule NLL on its own serialized
    sequence plus the Cause-rule NLL on its own, each masked to rule tokens."""
    le = masked_nll(beta, config, effect_seq, train=train, rng=rng)
    lc = masked_nll(beta, config, cause_seq, train=train, rng=rng)
    return T.add(le, lc)


def sentence_loss(
    theta: dict[str, Tensor],
    config: LmConfig,
    seq: TrainSeq,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Sentence-generation objective: NLL of the gold next sentence given
    rules + context, masked to the sentence tokens."""
    return masked_nll(theta, config, seq, train=train, rng=rng)


def baseline_lm_loss(
    params: dict[str, Tensor],
    config: LmConfig,
    seq: TrainSeq,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Single-model objective over the middle sentences; shares the masked
    NLL core with sentence_loss (rule-free serialization)."""
    return masked_nll(params, config, seq, train=train, rng=rng)


@dataclass
class JointItem:
    """Teacher-forced inputs for one controller iteration.

    SEG iterations carry no Cause term, so ``cause_seq`` may be None.
    """

    sentence_seq: TrainSeq
    effect_seq: TrainSeq
    cause_seq: TrainSeq | None


def joint_step(
    theta: dict[str, Tensor],
    beta: dict[str, Tensor],
    config_theta: LmConfig,
    config_beta: LmConfig,
    item: JointItem,
    *,
    train: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """Add the sentence and rule losses and backprop both models at once.

    The two computation graphs are disjoint (the sentence model reads
    teacher-forced gold rules, not decoded ones), so each model's grads
    come purely from its own loss term. Returns (total, sentence, rule)
    loss values; gradients accumulate on the parameter tensors.
    """
    ls = sentence_loss(theta, config_theta, item.sentence_seq, train=train, rng=rng)
    if item.cause_seq is not None:
        li = csi_loss(beta, config_beta, item.effect_seq, item.cause_seq, train=train, rng=rng)
    else:
        li = masked_nll(beta, config_beta, item.effect_seq, train=train, rng=rng)
    total = T.add(ls, li)
    T.backward(total)
    return total.item(), ls.item(), li.item()


def perplexity(params: dict[str, Tensor], config: LmConfig, seqs: list[TrainSeq]) -> float:
    """exp(mean per-target-token NLL) over a corpus of serialized sequences."""
    if not seqs:
        raise ValueError("perplexity needs a non-empty corpus")
    total, count = 0.0, 0
    with T.no_grad():
        for seq in seqs:
            nll = masked_nll(params, config, seq, reduction="sum")
            total += nll.item()
            count += seq.n_target_tokens
    if count == 0:
        raise ValueError("perplexity: no target tokens in corpus")
    return float(np.exp(total / count))


@dataclass
class Lm:
    """A model handle: parameters + architecture + pipeline role."""

    params: dict[str, Tensor]
    config: LmConfig
    role: str = "sentence"

    def __post_init__(self):
        if self.role not in MODEL_ROLES:
            raise ConfigError(f"unknown model role {self.role!r}")


def save_model(directory, lm: Lm, name: str = "model") -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_arrays(
        directory / f"{name}.ckpt",
        {k: v.data for k, v in lm.params.items()},
        meta={"model_role": lm.role},
    )
    sidecar = {"model_role": lm.role, "config": lm.config.to_json()}
    (directory / f"{name}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_model(directory, name: str = "model") -> Lm:
    directory = Path(directory)
    sidecar = json.loads((directory / f"{name}.json").read_text())
    config = LmConfig.from_json(sidecar["config"])
    arrays, meta = load_arrays(directory / f"{name}.ckpt")
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return Lm(params=params, config=config, role=sidecar.get("model_role", meta.get("model_role", "sentence")))
