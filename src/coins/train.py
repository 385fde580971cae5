"""Teacher-forced sequence building, the training loop and the corpus NLL.

Training always conditions on gold context: at iteration i the context
holds the gold sentences up to s_i, and the rule targets come from gold
annotations or precomputed silver rules. Generated text only enters the
context at inference time.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tensor as T
from .data.rules import aggregate_rules
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
    StoryState,
    initial_state,
    teacher_state,
)
from .errors import ConfigError, SchemaError
from .model import JointItem, LmConfig, Term, TrainSeq, item_loss, make_train_seq, masked_nll
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


def _by_story(records: list[GlucoseRecord]) -> dict[str, list[GlucoseRecord]]:
    """Gold records grouped by story id, each group in input order, so that
    building a corpus's items scans the records once, not once per item."""
    grouped: dict[str, list[GlucoseRecord]] = defaultdict(list)
    for r in records:
        grouped[r.story_id].append(r)
    return grouped


def iteration_rules(
    example: NscExample,
    iteration: int,
    relation: RelationType,
    flavor: Flavor,
    records: list[GlucoseRecord] | None,
    use_silver: bool,
) -> list[str]:
    """Rules for one iteration, from the example's silver rules or from gold
    annotations: Effect rules attach to the current sentence, Cause rules to
    the ending sentence. ``records`` may hold other stories' records too;
    only the example's own are read."""
    if use_silver:
        if not example.silver_rules or iteration not in example.silver_rules:
            raise SchemaError(f"example {example.id!r}: no silver rules for iteration {iteration}")
        pair = example.silver_rules[iteration]
        return (pair.effect if relation is RelationType.EFFECT else pair.cause).texts
    if records is None:
        raise ConfigError("gold rule records required when not training on silver rules")
    story_records = [r for r in records if r.story_id == example.id]
    index = (iteration + 1) if relation is RelationType.EFFECT else example.n_sentences
    return aggregate_rules(story_records, index, relation, flavor).texts


def build_csi_seqs(
    example: NscExample,
    iteration: int,
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord] | None,
    use_silver: bool = False,
) -> tuple[TrainSeq, TrainSeq]:
    """(effect_seq, cause_seq) for one iteration of one example."""
    state = teacher_state(example, iteration)
    out = []
    for relation, selected in (
        (RelationType.EFFECT, state.current_sentence),
        (RelationType.CAUSE, example.ending),
    ):
        rules = iteration_rules(example, iteration, relation, flavor, records, use_silver)
        prompt = csi_source(state, selected, relation)
        line = serialize_csi_example(state, selected, relation, rules)
        out.append(_encode_pair(prompt, line, vocab))
    return out[0], out[1]


def build_sentence_seq(
    example: NscExample,
    iteration: int,
    vocab: Vocab,
    flavor: Flavor,
    records: list[GlucoseRecord] | None,
    use_silver: bool = False,
    mode: str = MODE_FULL,
) -> TrainSeq:
    state = teacher_state(example, iteration)
    rules: list[str] = []
    if mode != MODE_NO_IR_WO_SE:
        rules = iteration_rules(example, iteration, RelationType.EFFECT, flavor, records, use_silver)
        rules += iteration_rules(example, iteration, RelationType.CAUSE, flavor, records, use_silver)
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
    """All teacher-forced iterations of a corpus.

    ``ablation_mix`` > 0 appends that fraction of extra sentence-model
    items in the reduced-input serializations (rules-only, no-ending,
    rule-free) so inference-time input ablations stay in-distribution;
    the rule sequences are reused unchanged.
    """
    if ablation_mix and rng is None:
        raise ConfigError("ablation_mix needs an rng")
    items: list[JointItem] = []
    extras: list[JointItem] = []
    variants = (MODE_IR_ONLY, MODE_IR_WO_SE, MODE_NO_IR_WO_SE)
    by_story = _by_story(records or [])
    for ex in examples:
        recs = None if records is None else by_story[ex.id]
        for it in range(1, len(ex.targets) + 1):
            eff, cau = build_csi_seqs(ex, it, vocab, flavor, recs, use_silver)
            sent = build_sentence_seq(ex, it, vocab, flavor, recs, use_silver)
            items.append(JointItem(sentence_seq=sent, effect_seq=eff, cause_seq=cau))
            if ablation_mix and rng.random() < ablation_mix:
                mode = variants[int(rng.integers(len(variants)))]
                alt = build_sentence_seq(ex, it, vocab, flavor, recs, use_silver, mode=mode)
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
    by_story = _by_story(records)
    seqs: list[TrainSeq] = []
    for ex in examples:
        for it in range(1, len(ex.targets) + 1):
            seqs.extend(build_csi_seqs(ex, it, vocab, flavor, by_story[ex.id]))
    return seqs


def build_baseline_seqs(examples: list[NscExample], vocab: Vocab) -> list[TrainSeq]:
    out = []
    for ex in examples:
        prompt, line = baseline_example(initial_state(ex), ex.targets)
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
    by_story = _by_story(records)
    items = []
    for ex, silver_ex in zip(examples, enriched):
        for it in range(1, len(ex.targets) + 1):
            eff, cau = build_csi_seqs(ex, it, vocab, flavor, by_story[ex.id])
            sent = build_sentence_seq(silver_ex, it, vocab, flavor, None, use_silver=True)
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
    by_story = _by_story(records)
    items = []
    for ex in examples:
        state = StoryState(prefix=ex.context, ending="")
        rules = aggregate_rules(by_story[ex.id], 4, RelationType.EFFECT, flavor).texts
        eff_prompt = csi_source(state, state.current_sentence, RelationType.EFFECT)
        eff_line = serialize_csi_example(state, state.current_sentence, RelationType.EFFECT, rules)
        prompt, line = sentence_example(join_rules(rules), state, ex.target)
        items.append(
            JointItem(
                sentence_seq=_encode_pair(prompt, line, vocab),
                effect_seq=_encode_pair(eff_prompt, eff_line, vocab),
                cause_seq=None,
            )
        )
    return items


@dataclass
class TrainHistory:
    epoch_loss: list[float] = field(default_factory=list)
    epoch_nll: list[float] = field(default_factory=list)  # per-token, target spans only
    steps: int = 0
    stopped_early: bool = False


def check_lengths(seqs: Iterable[TrainSeq], config: LmConfig) -> None:
    """Refuse sequences whose model input (every id but the last) is longer
    than the model's position table, before any training starts."""
    longest = max((len(seq.ids) - 1 for seq in seqs), default=0)
    if longest > config.max_positions:
        raise ConfigError(f"training sequence length {longest} exceeds max_positions {config.max_positions}")


def train_models(
    models: Sequence[tuple[dict[str, Tensor], LmConfig]],
    items: list[list[Term]],
    tcfg: TrainConfig,
    refresh_items: Callable[[int], list[list[Term]]] | None = None,
) -> TrainHistory:
    """The training loop: N models, one Adam optimizer each.

    Each item lists its (model index, sequence) loss terms, added by
    :func:`item_loss`. A step is one Adam update of every model, in list
    order, over a batch of items. ``refresh_items(epoch)``, when given,
    rebuilds the item list at the start of every epoch (used to condition
    the sentence model on the rule model's current decodes).
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
        batch = 0
        for params, _ in models:
            zero_grads(params)
        for j, idx in enumerate(order):
            total, parts = item_loss(models, items[int(idx)], train=True, rng=rng)
            T.backward(T.scale(total, 1.0 / tcfg.batch_size))
            total_loss += total.item()
            total_nll += sum(p.item() * n for p, n in parts)
            total_tok += sum(n for _, n in parts)
            batch += 1
            if batch == tcfg.batch_size or j == len(order) - 1:
                for (params, _), opt in zip(models, opts):
                    adam_update(params, opt, grad_clip=tcfg.grad_clip)
                    zero_grads(params)
                batch = 0
                hist.steps += 1
                if tcfg.max_steps is not None and hist.steps >= tcfg.max_steps:
                    break
        hist.epoch_loss.append(total_loss / len(order))
        hist.epoch_nll.append(total_nll / max(1, total_tok))
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
    """Mean per-target-token NLL with dropout off (evaluation mode); its
    exp is the corpus perplexity."""
    if not seqs:
        raise ValueError("corpus_nll needs a non-empty corpus")
    total, count = 0.0, 0
    with T.no_grad():
        for seq in seqs:
            total += masked_nll(params, config, seq, reduction="sum").item()
            count += seq.n_target_tokens
    if count == 0:
        raise ValueError("corpus_nll: no target tokens in corpus")
    return total / count
