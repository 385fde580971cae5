"""Teacher-forced sequence building, the training loop and the corpus NLL.

Training always conditions on gold context: at iteration i the context
holds the gold sentences up to s_i, and the rule targets come from gold
annotations or precomputed silver rules. Generated text only enters the
context at inference time.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tensor as T
from .data.rules import aggregate_rules, by_story, gold_rule_pairs
from .data.serialize import (
    MODE_FULL,
    MODE_IR_ONLY,
    MODE_IR_WO_SE,
    MODE_NO_IR_WO_SE,
    baseline_example,
    csi_source,
    join_rules,
    sentence_example,
    serialize_csi_example,
)
from .data.types import (
    Flavor,
    GlucoseRecord,
    NscExample,
    RelationType,
    SegExample,
    SilverPair,
    StoryState,
    initial_state,
    teacher_state,
)
from .errors import ConfigError, SchemaError
from .model import JointItem, LmConfig, Term, TrainSeq, item_loss, make_train_seq, sequence_nll
from .optim import AdamState, adam_update, zero_grads
from .tensor import Tensor
from .vocab import Vocab, encode

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    grad_clip: float | None = 1.0
    max_steps: int | None = None  # optional hard cap on optimizer updates
    target_nll: float | None = None  # early stop once mean per-token NLL dips below

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.learning_rate <= 0:
            raise ConfigError("batch_size, epochs and learning_rate must be positive")

    def to_json(self) -> dict:
        return asdict(self)


def _encode_pair(prompt: str, full: str, vocab: Vocab) -> TrainSeq:
    prompt_ids = encode(prompt, vocab)
    full_ids = encode(full, vocab)
    if full_ids[: len(prompt_ids)] != prompt_ids:
        raise SchemaError("prompt is not a token prefix of its training line")
    return make_train_seq(prompt_ids, full_ids[len(prompt_ids) :])


def _rule_seq(state: StoryState, selected: str, relation: RelationType, rules: list[str],
              vocab: Vocab) -> TrainSeq:
    """The rule model's sequence for one relation of one selected sentence."""
    line = serialize_csi_example(state, selected, relation, rules)
    return _encode_pair(csi_source(state, selected, relation), line, vocab)


def build_csi_seqs(example: NscExample, iteration: int, vocab: Vocab,
                   pair: SilverPair) -> tuple[TrainSeq, TrainSeq]:
    """(effect_seq, cause_seq) for one iteration of one example: Effect
    rules of the current sentence, Cause rules of the ending."""
    state = teacher_state(example, iteration)
    return (_rule_seq(state, state.current_sentence, RelationType.EFFECT, pair.effect.texts, vocab),
            _rule_seq(state, example.ending, RelationType.CAUSE, pair.cause.texts, vocab))


def build_sentence_seq(example: NscExample, iteration: int, vocab: Vocab, pair: SilverPair,
                       mode: str = MODE_FULL) -> TrainSeq:
    state = teacher_state(example, iteration)
    rules = [] if mode == MODE_NO_IR_WO_SE else pair.effect.texts + pair.cause.texts
    prompt, line = sentence_example(join_rules(rules), state, example.targets[iteration - 1], mode=mode)
    return _encode_pair(prompt, line, vocab)


def build_joint_items(
    examples: list[NscExample],
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord] | None,
    use_silver: bool = False,
    ablation_mix: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[JointItem]:
    """All teacher-forced iterations of a corpus, on each example's silver
    rule pairs or on the gold pairs of ``records``.

    ``ablation_mix`` > 0 appends that fraction of extra sentence-model
    items in the reduced-input serializations (rules-only, no-ending,
    rule-free) so inference-time input ablations stay in-distribution;
    the rule sequences are reused unchanged.
    """
    if ablation_mix and rng is None:
        raise ConfigError("ablation_mix needs an rng")
    if use_silver:
        missing = [ex.id for ex in examples if ex.silver_rules is None]
        if missing:
            raise SchemaError(f"no silver rules for examples {missing[:5]}")
        rule_pairs = [ex.silver_rules for ex in examples]
    elif records is None:
        raise ConfigError("gold rule records required when not training on silver rules")
    else:
        rule_pairs = gold_rule_pairs(examples, records, flavor)
    items: list[JointItem] = []
    extras: list[JointItem] = []
    variants = (MODE_IR_ONLY, MODE_IR_WO_SE, MODE_NO_IR_WO_SE)
    for ex, pairs in zip(examples, rule_pairs):
        for it in range(1, len(ex.targets) + 1):
            eff, cau = build_csi_seqs(ex, it, vocab, pairs[it])
            sent = build_sentence_seq(ex, it, vocab, pairs[it])
            items.append(JointItem(sentence_seq=sent, effect_seq=eff, cause_seq=cau))
            if ablation_mix and rng.random() < ablation_mix:
                mode = variants[int(rng.integers(len(variants)))]
                alt = build_sentence_seq(ex, it, vocab, pairs[it], mode=mode)
                extras.append(JointItem(sentence_seq=alt, effect_seq=eff, cause_seq=cau))
    return items + extras


def build_rule_seqs(
    examples: list[NscExample],
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord],
) -> list[TrainSeq]:
    """The Effect then the Cause sequence of every iteration, from gold
    rules: the training set of a rule model trained on its own."""
    seqs: list[TrainSeq] = []
    for ex, pairs in zip(examples, gold_rule_pairs(examples, records, flavor)):
        for it in range(1, len(ex.targets) + 1):
            seqs.extend(build_csi_seqs(ex, it, vocab, pairs[it]))
    return seqs


def build_baseline_seqs(examples: list[NscExample] | list[SegExample], vocab: Vocab) -> list[TrainSeq]:
    """The rule-free prompt and gold continuation of every example: an NSC
    example's middles after its beginning and ending, or a SEG example's
    ending after its four context sentences (the state ``run_seg`` starts
    from)."""
    out = []
    for ex in examples:
        if isinstance(ex, SegExample):
            state, targets = StoryState(prefix=ex.context, ending=""), (ex.target,)
        else:
            state, targets = initial_state(ex), ex.targets
        prompt, line = baseline_example(state, targets)
        out.append(_encode_pair(prompt, line, vocab))
    return out


def decoded_rule_items(
    examples: list[NscExample],
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord],
    beta: dict[str, Tensor],
    config_beta: LmConfig,
    max_rule_tokens: int = 48,
) -> list[JointItem]:
    """Joint items whose sentence inputs carry the rule model's own greedy
    decodes instead of gold rules; no gradient crosses the discrete token
    boundary. Rule targets stay gold so the rule model keeps learning."""
    from .data.silver import enrich_with_silver
    from .decode import DecodeConfig
    from .model import Lm

    role = "csi_gen" if flavor is Flavor.GENERAL else "csi_spec"
    csi = Lm(params=beta, config=config_beta, role=role)
    cfg = DecodeConfig(beam_width=1, max_new_tokens=max_rule_tokens, stop_token=vocab.eos)
    enriched = enrich_with_silver(csi, examples, vocab, flavor, decode_cfg=cfg)
    items = []
    for ex, gold, silver_ex in zip(examples, gold_rule_pairs(examples, records, flavor), enriched):
        for it in range(1, len(ex.targets) + 1):
            eff, cau = build_csi_seqs(ex, it, vocab, gold[it])
            sent = build_sentence_seq(ex, it, vocab, silver_ex.silver_rules[it])
            items.append(JointItem(sentence_seq=sent, effect_seq=eff, cause_seq=cau))
    return items


def build_seg_items(
    examples: list[SegExample],
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord],
) -> list[JointItem]:
    """SEG trains on one iteration per story: Effect rules for the last
    context sentence; the Cause sequence degenerates to an empty target."""
    grouped = by_story(records)
    items = []
    for ex in examples:
        state = StoryState(prefix=ex.context, ending="")
        rules = aggregate_rules(grouped[ex.id], 4, RelationType.EFFECT, flavor).texts
        prompt, line = sentence_example(join_rules(rules), state, ex.target)
        effect = _rule_seq(state, state.current_sentence, RelationType.EFFECT, rules, vocab)
        items.append(JointItem(sentence_seq=_encode_pair(prompt, line, vocab), effect_seq=effect, cause_seq=None))
    return items


@dataclass
class TrainHistory:
    epoch_loss: list[float] = field(default_factory=list)
    epoch_nll: list[float] = field(default_factory=list)  # per-token, target spans only
    # per epoch, one value per model: the mean global gradient norm before
    # clipping, and the share of steps whose gradient was clipped
    grad_norm: list[list[float]] = field(default_factory=list)
    clip_rate: list[list[float]] = field(default_factory=list)
    steps: int = 0
    stopped_early: bool = False


def check_lengths(seqs: Iterable[TrainSeq], config: LmConfig) -> None:
    """Refuse sequences whose model input (every id but the last) is longer
    than the model's position table, before any training starts."""
    longest = max((len(seq.ids) - 1 for seq in seqs), default=0)
    if longest > config.max_positions:
        raise ConfigError(f"training sequence length {longest} exceeds max_positions {config.max_positions}")


CHUNK_POSITIONS = 256  # padded positions per forward in training and evaluation


def _chunks(terms: list[Term]) -> list[list[Term]]:
    """Terms split into padded forwards of one model each, longest sequence
    first, of at most CHUNK_POSITIONS padded positions (or one sequence):
    this bounds the activations held at once."""
    chunks: list[list[Term]] = []
    for term in sorted(terms, key=lambda term: (term[0], -len(term[1].ids))):
        head = chunks[-1][0] if chunks else None
        width = 0 if head is None else len(head[1].ids) - 1
        if head and head[0] == term[0] and (len(chunks[-1]) + 1) * width <= CHUNK_POSITIONS:
            chunks[-1].append(term)
        else:
            chunks.append([term])
    return chunks


def train_models(
    models: Sequence[tuple[dict[str, Tensor], LmConfig]],
    items: list[list[Term]],
    tcfg: TrainConfig,
    refresh_items: Callable[[int], list[list[Term]]] | None = None,
) -> TrainHistory:
    """The training loop: N models, one Adam optimizer each.

    Each item lists its (model index, sequence) loss terms. A step takes a
    batch of items, runs :func:`item_loss` over their terms in padded
    chunks of one model each, backpropagates each chunk's summed loss
    scaled by 1/batch_size, and makes one Adam update of every model, in
    list order. ``refresh_items(epoch)``, when given, rebuilds the item
    list at the start of every epoch (used to condition the sentence
    model on the rule model's current decodes).
    """
    if not items and refresh_items is None:
        raise ConfigError("no training items")
    rng = np.random.default_rng(tcfg.seed)
    opts = [AdamState(lr=tcfg.learning_rate) for _ in models]
    hist = TrainHistory()
    for epoch in range(tcfg.epochs):
        if refresh_items is not None:
            items = refresh_items(epoch)
            if not items:
                raise ConfigError("refresh_items produced no training items")
        order = rng.permutation(len(items))
        total_loss, total_nll, total_tok = 0.0, 0.0, 0
        norms: list[list[float]] = [[] for _ in models]
        for params, _ in models:
            zero_grads(params)
        for start in range(0, len(order), tcfg.batch_size):
            terms = [term for idx in order[start : start + tcfg.batch_size] for term in items[int(idx)]]
            for chunk in _chunks(terms):
                total, losses = item_loss(models, chunk, train=True, rng=rng)
                T.backward(T.scale(total, 1.0 / tcfg.batch_size))
                total_loss += total.item()
                total_nll += sum(loss * seq.n_target_tokens for loss, (_, seq) in zip(losses, chunk))
            total_tok += sum(seq.n_target_tokens for _, seq in terms)
            for (params, _), opt, seen in zip(models, opts, norms):
                seen.append(adam_update(params, opt, grad_clip=tcfg.grad_clip))
                zero_grads(params)
            hist.steps += 1
            if tcfg.max_steps is not None and hist.steps >= tcfg.max_steps:
                break
        hist.epoch_loss.append(total_loss / len(order))
        hist.epoch_nll.append(total_nll / max(1, total_tok))
        hist.grad_norm.append([float(np.mean(seen)) for seen in norms])
        clip = np.inf if tcfg.grad_clip is None else tcfg.grad_clip
        hist.clip_rate.append([float(np.mean([n > clip for n in seen])) for seen in norms])
        log.info(
            "epoch %d: loss %.4f nll/tok %.4f (%d steps)",
            epoch + 1,
            hist.epoch_loss[-1],
            hist.epoch_nll[-1],
            hist.steps,
        )
        if tcfg.target_nll is not None and hist.epoch_nll[-1] < tcfg.target_nll:
            hist.stopped_early = True
            break
        if tcfg.max_steps is not None and hist.steps >= tcfg.max_steps:
            break
    return hist


def corpus_nll(params: dict[str, Tensor], config: LmConfig, seqs: list[TrainSeq]) -> float:
    """Mean per-target-token NLL with dropout off (evaluation mode), from
    padded forwards as in training; its exp is the corpus perplexity."""
    if not seqs:
        raise ValueError("corpus_nll needs a non-empty corpus")
    count = sum(seq.n_target_tokens for seq in seqs)
    if count == 0:
        raise ValueError("corpus_nll: no target tokens in corpus")
    total = 0.0
    with T.no_grad():
        for chunk in _chunks([(0, seq) for seq in seqs]):
            nll = sequence_nll(params, config, [seq for _, seq in chunk], reduction="sum")
            total += sum(nll.data.tolist())
    return total / count
