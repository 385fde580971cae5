"""Decoder-only causal transformer and the training loss built on it.

The two generators (rule model and sentence model) are two independent
instances of the same architecture: token + position embeddings, pre-norm
blocks of masked multi-head self-attention and a GELU MLP, and a softmax
head that by default reuses the token embedding as output projection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import files
from . import tensor as T
from .checkpoint import load_arrays, save_arrays
from .errors import ConfigError, MissingInputError, SchemaError
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


_MASK_CACHE: dict[tuple[int, np.dtype], np.ndarray] = {}


def _causal_mask(config: LmConfig, dtype: np.dtype) -> np.ndarray:
    """The additive (P, P) causal mask over all P = max_positions positions:
    -inf above the diagonal. Rows t..t+s and columns ..t+s of it mask s new
    positions that follow t cached ones."""
    key = (config.max_positions, dtype)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = np.triu(np.full((config.max_positions,) * 2, -np.inf, dtype=dtype), k=1)
        _MASK_CACHE[key] = m
    return m


def _check_length(new: int, total: int, config: LmConfig) -> None:
    if new == 0:
        raise LengthError("empty input sequence")
    if total > config.max_positions:
        raise LengthError(f"sequence length {total} exceeds max_positions {config.max_positions}")


def forward(
    params: dict[str, Tensor],
    config: LmConfig,
    ids,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits for next-token prediction at every position: (T, V) for one
    sequence of ids (T,), (B, T, V) for a right-padded batch (B, T).

    Position p's logits depend only on ids[..., :p+1]; attention to later
    positions is cut with a -inf additive mask, which zeroes their softmax
    weight exactly. So prefix logits are bit-stable under suffix edits,
    and padding after a row's last id never reaches its real positions.
    """
    ids = np.asarray(ids, dtype=np.intp)
    t = ids.shape[-1]
    _check_length(t, t, config)
    drop = config.dropout_p if train else 0.0
    mask = _causal_mask(config, params["tok_emb"].dtype)[:t, :t]

    h = T.add(T.embedding_lookup(params["tok_emb"], ids), T.narrow(params["pos_emb"], 0, 0, t))
    h = T.dropout(h, drop, rng, train)
    for b in range(config.layers):
        p = f"h{b}."
        a = T.layer_norm(h, params[p + "ln1.g"], params[p + "ln1.b"], LN_EPS)
        q = T.matmul(a, params[p + "attn.wq"], params[p + "attn.bq"])
        k = T.matmul(a, params[p + "attn.wk"], params[p + "attn.bk"])
        v = T.matmul(a, params[p + "attn.wv"], params[p + "attn.bv"])
        o = T.attention(q, k, v, config.heads, mask, drop, rng, train)
        o = T.matmul(o, params[p + "attn.wo"], params[p + "attn.bo"])
        h = T.add(h, T.dropout(o, drop, rng, train))

        m = T.layer_norm(h, params[p + "ln2.g"], params[p + "ln2.b"], LN_EPS)
        m = T.gelu(T.matmul(m, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        m = T.matmul(m, params[p + "mlp.w2"], params[p + "mlp.b2"])
        h = T.add(h, T.dropout(m, drop, rng, train))

    hf = T.layer_norm(h, params["ln_f.g"], params["ln_f.b"], LN_EPS)
    proj = params["tok_emb"] if config.tie_output_to_embedding else params["out_proj"]
    return T.matmul(hf, T.transpose(proj))


@dataclass(frozen=True)
class PackedWeights:
    """A model's weights as plain arrays laid out for :func:`forward_cached`.

    ``blocks`` holds one tuple per layer: ln1 gain and bias, the fused
    (H, 3H) query/key/value matrix and its (3H,) bias, the output
    projection and bias, ln2 gain and bias, and the MLP's two matrices and
    biases. Every array but the fused ones is the parameter's own buffer,
    so pack again after the weights change.
    """

    tok_emb: np.ndarray
    pos_emb: np.ndarray
    blocks: tuple[tuple[np.ndarray, ...], ...]
    ln_f: tuple[np.ndarray, np.ndarray]
    proj: np.ndarray


def pack_weights(params: dict[str, Tensor], config: LmConfig) -> PackedWeights:
    """Pack ``params`` once for any number of :func:`forward_cached` calls.
    One product with the fused matrix gives the same bits as three with
    the query, key and value matrices."""
    w = {k: v.data for k, v in params.items()}
    blocks = []
    for b in range(config.layers):
        p = f"h{b}."
        qkv = [p + "attn.wq", p + "attn.wk", p + "attn.wv"]
        bias = [p + "attn.bq", p + "attn.bk", p + "attn.bv"]
        blocks.append((
            w[p + "ln1.g"], w[p + "ln1.b"],
            np.concatenate([w[k] for k in qkv], axis=1), np.concatenate([w[k] for k in bias]),
            w[p + "attn.wo"], w[p + "attn.bo"], w[p + "ln2.g"], w[p + "ln2.b"],
            w[p + "mlp.w1"], w[p + "mlp.b1"], w[p + "mlp.w2"], w[p + "mlp.b2"],
        ))
    proj = w["tok_emb"] if config.tie_output_to_embedding else w["out_proj"]
    return PackedWeights(w["tok_emb"], w["pos_emb"], tuple(blocks), (w["ln_f.g"], w["ln_f.b"]), proj)


class KvCache:
    """Keys and values of the positions seen so far, in per-layer buffers
    of shape (capacity, max_positions, H) that :func:`forward_cached`
    fills in place. Positions [0, length) of the first ``rows`` rows hold
    data; attention reads views of them, with no copy per step."""

    def __init__(self, config: LmConfig, rows: int, dtype: np.dtype):
        shape = (rows, config.max_positions, config.hidden)
        self.keys = [np.empty(shape, dtype=dtype) for _ in range(config.layers)]
        self.values = [np.empty(shape, dtype=dtype) for _ in range(config.layers)]
        self.rows = rows
        self.length = 0

    def reset(self, rows: int) -> None:
        """Empty the cache for ``rows`` new sequences, reusing the buffers."""
        self.length = 0
        self.select([0] * rows)

    def select(self, parents: Sequence[int]) -> None:
        """Make row i continue cached row ``parents[i]``, for every i. Rows
        already in place (``parents`` is 0..n-1) are not touched."""
        n, t = len(parents), self.length
        if n <= self.keys[0].shape[0] and list(parents) == list(range(n)):
            self.rows = n
            return
        idx = np.asarray(parents, dtype=np.intp)
        for bufs in (self.keys, self.values):
            for i, buf in enumerate(bufs):
                out = buf if n <= buf.shape[0] else np.empty((n, *buf.shape[1:]), dtype=buf.dtype)
                out[:n, :t] = buf[idx, :t]  # the gather copies before the write
                bufs[i] = out
        self.rows = n


def forward_cached(
    weights: PackedWeights,
    config: LmConfig,
    ids,
    cache: KvCache | None = None,
) -> tuple[np.ndarray, np.ndarray, KvCache]:
    """Inference forward in plain numpy: no graph, no dropout, the same
    kernels as :func:`forward`, on weights from :func:`pack_weights`.

    ``ids`` (B, s) are new tokens that continue the B rows of ``cache``
    (a fresh cache when None) at its ``length`` positions. The call writes
    their keys and values into the cache in place and returns logits
    (B, s, V), final-norm hidden states (B, s, H) and the cache. Prefilling
    a prompt and then feeding one token at a time gives the logits of
    :func:`forward` on the whole sequence, up to float summation order.
    """
    ids = np.asarray(ids, dtype=np.intp)
    B, s = ids.shape
    if cache is None:
        cache = KvCache(config, B, weights.tok_emb.dtype)
    elif cache.rows != B:
        raise ValueError(f"{B} input rows for a cache of {cache.rows} rows")
    t = cache.length
    _check_length(s, t + s, config)
    H, end = config.hidden, t + s
    # one new position sees every cached one, so it needs no mask
    mask = None if s == 1 else _causal_mask(config, weights.tok_emb.dtype)[t:end, :end]

    # rows are (batch, position) pairs, flattened for the projections
    h = (weights.tok_emb[ids] + weights.pos_emb[t:end]).reshape(B * s, H)
    for block, keys, values in zip(weights.blocks, cache.keys, cache.values):
        ln1g, ln1b, wqkv, bqkv, wo, bo, ln2g, ln2b, w1, b1, w2, b2 = block
        a = T.layer_norm_array(h, ln1g, ln1b, LN_EPS)[0]
        qkv = (a @ wqkv + bqkv).reshape(B, s, 3 * H)
        keys[:B, t:end] = qkv[..., H : 2 * H]
        values[:B, t:end] = qkv[..., 2 * H :]
        o = T.attention_array(qkv[..., :H], keys[:B, :end], values[:B, :end], config.heads, mask)[0]
        h = h + (o.reshape(B * s, H) @ wo + bo)

        m = T.layer_norm_array(h, ln2g, ln2b, LN_EPS)[0]
        m = T.gelu_tanh(m @ w1 + b1)[0]
        h = h + (m @ w2 + b2)
    cache.length = end

    hf = T.layer_norm_array(h, *weights.ln_f, LN_EPS)[0]
    logits = hf @ weights.proj.T
    return logits.reshape(B, s, -1), hf.reshape(B, s, H), cache


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


def pad_batch(seqs: Sequence[TrainSeq]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model inputs, next-token targets and loss mask of the sequences,
    right-padded with id 0 into (B, T) arrays, T the longest input.

    Row p of a sequence's logits predicts token p+1, so its span
    [start, end) over tokens maps to positions [start-1, end-1) of the
    mask. Padding is masked out, and under the causal mask it never
    reaches a real position.
    """
    width = max(len(seq.ids) for seq in seqs) - 1
    inputs = np.zeros((len(seqs), width), dtype=np.intp)
    targets = np.zeros((len(seqs), width), dtype=np.intp)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, seq in enumerate(seqs):
        n = len(seq.ids) - 1
        inputs[i, :n] = seq.ids[:-1]
        targets[i, :n] = seq.ids[1:]
        mask[i, seq.start - 1 : seq.end - 1] = True
    return inputs, targets, mask


def sequence_nll(
    params: dict[str, Tensor],
    config: LmConfig,
    seqs: Sequence[TrainSeq],
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Each sequence's mean (or summed) NLL of its target span, shape
    (len(seqs),), from one forward over the right-padded batch."""
    inputs, targets, mask = pad_batch(seqs)
    logits = forward(params, config, inputs, train=train, rng=rng)
    return T.cross_entropy_masked(logits, targets, mask, reduction=reduction)


def masked_nll(
    params: dict[str, Tensor],
    config: LmConfig,
    seq: TrainSeq,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Mean (or summed) NLL of one sequence's target span: the one-row
    batch of :func:`sequence_nll`, as a scalar."""
    return T.tsum(sequence_nll(params, config, [seq], train=train, rng=rng, reduction=reduction))


Term = tuple[int, TrainSeq]  # (model index, sequence) of one loss term


@dataclass
class JointItem:
    """Teacher-forced inputs for one controller iteration.

    SEG iterations carry no Cause term, so ``cause_seq`` may be None.
    """

    sentence_seq: TrainSeq
    effect_seq: TrainSeq
    cause_seq: TrainSeq | None

    @property
    def terms(self) -> list[Term]:
        """Loss terms in training order: the sentence model (index 0),
        then the rule model (index 1) on the Effect and the Cause sequence."""
        terms = [(0, self.sentence_seq), (1, self.effect_seq)]
        if self.cause_seq is not None:
            terms.append((1, self.cause_seq))
        return terms


def item_loss(
    models: Sequence[tuple[dict[str, Tensor], LmConfig]],
    terms: Sequence[Term],
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[float]]:
    """The summed masked NLL of the terms (one item's, or a whole batch's),
    and each term's mean NLL, in term order.

    Each model runs one forward over its terms' sequences, right-padded
    into one batch, in model order. A term reads only its own model's
    parameters, so models' graphs are disjoint and backpropagating the
    sum gives each model the gradient of its own terms alone.
    """
    losses = [0.0] * len(terms)
    total = None
    for m, (params, config) in enumerate(models):
        rows = [i for i, (k, _) in enumerate(terms) if k == m]
        if not rows:
            continue
        nll = sequence_nll(params, config, [terms[i][1] for i in rows], train=train, rng=rng)
        for i, value in zip(rows, nll.data.tolist()):
            losses[i] = value
        part = T.tsum(nll)
        total = part if total is None else T.add(total, part)
    if total is None:
        raise ValueError("item_loss needs at least one term")
    return total, losses


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
    files.write_text(directory / f"{name}.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_model(directory, name: str = "model") -> Lm:
    path = Path(directory) / f"{name}.json"
    if not path.exists():
        raise MissingInputError(f"input not found: {path}")
    try:
        sidecar = json.loads(path.read_text())
        config = LmConfig.from_json(sidecar["config"])
    except (ValueError, TypeError, KeyError, ConfigError) as e:
        raise SchemaError(f"{path}: malformed model sidecar ({type(e).__name__}: {e})") from e
    arrays, meta = load_arrays(Path(directory) / f"{name}.ckpt")
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return Lm(params=params, config=config, role=sidecar.get("model_role", meta.get("model_role", "sentence")))
