"""The recursive completion loop: generate rules, generate a sentence,
update the context, repeat.

Each iteration i (from 2, over the most recent context sentence) asks
the rule model for Effect rules of that sentence and Cause rules of the
ending, concatenates them, and hands them with the current context to
the sentence model. The generated sentence is inserted before the gap
marker and the loop advances; an n-sentence task takes exactly n-3
iterations. Every iteration is recorded in a trace (inputs, rules,
scores, decode settings) and the final hidden states of the rule block
are appended to an inspectable rule memory.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .data.serialize import (
    ABLATION_MODES,
    MODE_FULL,
    MODE_NO_IR_WO_SE,
    MODE_ORACLE,
    MODE_SEG,
    baseline_prompt,
    join_rules,
    sentence_prompt,
    split_rules,
)
from .data.types import RelationType, SilverPair, StoryState
from .decode import DecodeConfig, DecodeResult, beam_search, decode_rules, lm_logprob_fn
from .errors import SchemaError
from .model import Lm, forward_cached
from .vocab import Vocab, detokenize, encode as vocab_encode

log = logging.getLogger(__name__)

DEFAULT_MAX_RULE_TOKENS = 96


@dataclass
class RuleMemory:
    """Append-only store of final-layer hidden states for each iteration's
    rule block, zero-padded to a fixed (max_rule_tokens, hidden) shape."""

    max_rule_tokens: int
    hidden: int
    blocks: list[np.ndarray] = field(default_factory=list)

    def append(self, states: np.ndarray) -> None:
        block = np.zeros((self.max_rule_tokens, self.hidden), dtype=np.float32)
        n = min(len(states), self.max_rule_tokens)
        if n:
            block[:n] = states[:n]
        self.blocks.append(block)

    def __len__(self) -> int:
        return len(self.blocks)

    def as_array(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros((0, self.max_rule_tokens, self.hidden), dtype=np.float32)
        return np.stack(self.blocks)


@dataclass
class IterationRecord:
    iteration: int  # 1-based controller iteration
    effect_rules: list[str]
    cause_rules: list[str]
    rules_text: str
    sentence: str
    sentence_score: float
    sentence_finished: bool
    csi_inputs: dict[str, str]
    sentence_input: str
    decode: dict
    error: str | None = None

    def to_row(self) -> dict:
        return asdict(self)

    @classmethod
    def from_row(cls, row: dict) -> "IterationRecord":
        return cls(**row)


@dataclass
class GenerationTrace:
    example_id: str
    mode: str
    records: list[IterationRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"example_id": self.example_id, "mode": self.mode}, ensure_ascii=True)]
        lines.extend(json.dumps(r.to_row(), ensure_ascii=True) for r in self.records)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "GenerationTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = json.loads(lines[0])
        trace = cls(example_id=head["example_id"], mode=head["mode"])
        trace.records = [IterationRecord.from_row(json.loads(ln)) for ln in lines[1:]]
        return trace


@dataclass
class CoinsModels:
    sentence: Lm
    csi: Lm | None = None


@dataclass
class ControllerConfig:
    rule_decode: DecodeConfig
    sentence_decode: DecodeConfig
    max_rule_tokens: int = DEFAULT_MAX_RULE_TOKENS
    # "default": Effect for the current sentence + Cause for the ending;
    # "all": both relations for every context sentence (experimental)
    rule_scope: str = "default"


def default_controller_config(vocab: Vocab, beam: int = 5, max_sentence_tokens: int = 16,
                              max_rule_tokens_per_decode: int = 48) -> ControllerConfig:
    return ControllerConfig(
        rule_decode=DecodeConfig(beam_width=beam, max_new_tokens=max_rule_tokens_per_decode,
                                 stop_token=vocab.eos),
        sentence_decode=DecodeConfig(beam_width=beam, max_new_tokens=max_sentence_tokens,
                                     stop_token=vocab.eos),
    )


def gen_inference_rules(
    csi: Lm,
    vocab: Vocab,
    state: StoryState,
    selected: str,
    relation: RelationType,
    cfg: ControllerConfig,
) -> tuple[list[str], str]:
    """Decode the rule model on (context, selected sentence, relation) with
    the controller's rule-decode settings. Returns (rules, prompt)."""
    rules, prompt = decode_rules(csi, vocab, state, selected, relation, cfg.rule_decode)
    if not rules:
        log.warning("empty rule decode for relation %s on %r", relation.value, selected)
    return rules, prompt


def concat_rules(effect: list[str], cause: list[str], vocab: Vocab, max_rule_tokens: int) -> str:
    """Effect rules first, then Cause rules, delimiter-joined; over-budget
    bundles drop whole trailing rules rather than splitting one."""
    kept: list[str] = []
    used = 0
    for rule in [*effect, *cause]:
        cost = len(vocab_encode(rule, vocab)) + (1 if kept else 0)  # +1 for the delimiter
        if used + cost > max_rule_tokens:
            break
        kept.append(rule)
        used += cost
    return join_rules(kept)


def _fit_sentence_prompt(
    rules_text: str,
    state: StoryState,
    mode: str,
    vocab: Vocab,
    cfg: ControllerConfig,
    max_positions: int,
) -> tuple[str, str]:
    """Left-truncate the rule block (whole rules first) until prompt plus
    generation budget fits the model's position limit. Returns the prompt
    and the rule text actually kept in it."""
    rules = split_rules(rules_text) if rules_text else []
    while True:
        kept = join_rules(rules)
        prompt = sentence_prompt(kept, state, mode=mode)
        needed = len(vocab_encode(prompt, vocab)) + cfg.sentence_decode.max_new_tokens
        if needed <= max_positions or not rules:
            return prompt, kept
        rules = rules[1:]


def gen_next_sentence(
    sentence_model: Lm,
    vocab: Vocab,
    rules_text: str,
    state: StoryState,
    cfg: ControllerConfig,
    mode: str = MODE_FULL,
) -> tuple[str, DecodeResult, str, str]:
    """Beam-decode the next sentence from (rules, context). Returns the
    detokenized sentence, the raw decode result, the prompt used, and the
    rule text that survived prompt fitting."""
    prompt, kept_rules = _fit_sentence_prompt(rules_text, state, mode, vocab, cfg,
                                              sentence_model.config.max_positions)
    ids = vocab_encode(prompt, vocab)
    result = beam_search(lm_logprob_fn(sentence_model), ids, cfg.sentence_decode)
    sentence = detokenize(result.ids[len(ids) :], vocab)
    if not sentence:
        log.warning("empty sentence decode at state %r", state.prefix[-1])
    return sentence, result, prompt, kept_rules


def update_context(state: StoryState, sentence: str) -> StoryState:
    """Insert the generated sentence directly before the gap marker."""
    return state.with_sentence(sentence)


def _rule_block_states(sentence_model: Lm, vocab: Vocab, prompt: str, rules_text: str) -> np.ndarray:
    """Final-layer hidden states over the rule-token span of the sentence
    model's input; empty rule blocks yield a zero-row block."""
    if not rules_text.strip():
        return np.zeros((0, sentence_model.config.hidden), dtype=np.float32)
    ids = vocab_encode(prompt, vocab)
    rule_ids = vocab_encode(rules_text, vocab)
    _, hf, _ = forward_cached(sentence_model.params, sentence_model.config, [ids])
    return np.asarray(hf[0, 1 : 1 + len(rule_ids)], dtype=np.float32)


def _run_loop(
    models: CoinsModels,
    vocab: Vocab,
    state: StoryState,
    n_iterations: int,
    cfg: ControllerConfig,
    mode: str,
    example_id: str,
    silver_rules: dict[int, SilverPair] | None = None,
) -> tuple[list[str], RuleMemory, GenerationTrace]:
    memory = RuleMemory(max_rule_tokens=cfg.max_rule_tokens, hidden=models.sentence.config.hidden)
    trace = GenerationTrace(example_id=example_id, mode=mode)
    generated: list[str] = []

    for it in range(1, n_iterations + 1):
        csi_inputs: dict[str, str] = {}
        try:
            if mode == MODE_ORACLE:
                if silver_rules is None or it not in silver_rules:
                    raise SchemaError(f"oracle mode: no provided rules for iteration {it}")
                pair = silver_rules[it]
                effect, cause = pair.effect.texts, pair.cause.texts
            elif mode == MODE_SEG:
                if models.csi is None:
                    raise SchemaError("rule model required for SEG runs")
                effect, eff_prompt = gen_inference_rules(
                    models.csi, vocab, state, state.current_sentence, RelationType.EFFECT, cfg
                )
                cause = []
                csi_inputs["effect"] = eff_prompt
            elif mode == MODE_NO_IR_WO_SE:
                effect, cause = [], []
            elif cfg.rule_scope == "all":
                if models.csi is None:
                    raise SchemaError("rule model required unless running oracle or rule-free modes")
                effect, cause = [], []
                for pos, sent in enumerate([*state.prefix, state.ending], start=1):
                    e, ep = gen_inference_rules(models.csi, vocab, state, sent,
                                                RelationType.EFFECT, cfg)
                    c, cp = gen_inference_rules(models.csi, vocab, state, sent,
                                                RelationType.CAUSE, cfg)
                    effect.extend(e)
                    cause.extend(c)
                    csi_inputs[f"effect_{pos}"] = ep
                    csi_inputs[f"cause_{pos}"] = cp
            else:
                if models.csi is None:
                    raise SchemaError("rule model required unless running oracle or rule-free modes")
                effect, eff_prompt = gen_inference_rules(
                    models.csi, vocab, state, state.current_sentence, RelationType.EFFECT, cfg
                )
                cause, cause_prompt = gen_inference_rules(
                    models.csi, vocab, state, state.ending, RelationType.CAUSE, cfg
                )
                csi_inputs["effect"] = eff_prompt
                csi_inputs["cause"] = cause_prompt

            rules_text = concat_rules(effect, cause, vocab, cfg.max_rule_tokens)
            sent_mode = MODE_FULL if mode in (MODE_ORACLE, MODE_SEG) else mode
            sentence, result, prompt, kept_rules = gen_next_sentence(
                models.sentence, vocab, rules_text, state, cfg, mode=sent_mode
            )
            if sent_mode == MODE_NO_IR_WO_SE:
                kept_rules = ""  # the prompt carries no rule block in this mode
            memory.append(_rule_block_states(models.sentence, vocab, prompt, kept_rules))
            generated.append(sentence)
            trace.records.append(
                IterationRecord(
                    iteration=it,
                    effect_rules=effect,
                    cause_rules=cause,
                    rules_text=kept_rules,
                    sentence=sentence,
                    sentence_score=result.score,
                    sentence_finished=result.finished,
                    csi_inputs=csi_inputs,
                    sentence_input=prompt,
                    decode=cfg.sentence_decode.to_json(),
                )
            )
            state = update_context(state, sentence) if sentence else state
        except SchemaError:
            raise
        except Exception as e:  # partial trace with an error marker
            log.exception("iteration %d failed for %s", it, example_id)
            trace.records.append(
                IterationRecord(
                    iteration=it,
                    effect_rules=[],
                    cause_rules=[],
                    rules_text="",
                    sentence="",
                    sentence_score=float("-inf"),
                    sentence_finished=False,
                    csi_inputs=csi_inputs,
                    sentence_input="",
                    decode=cfg.sentence_decode.to_json(),
                    error=f"{type(e).__name__}: {e}",
                )
            )
            break
    return generated, memory, trace


def run_coins(
    models: CoinsModels,
    vocab: Vocab,
    state: StoryState,
    n_sentences: int,
    cfg: ControllerConfig,
    example_id: str = "",
) -> tuple[list[str], RuleMemory, GenerationTrace]:
    """Full recursive run: n_sentences-3 iterations of rules + sentence."""
    return run_ablation(MODE_FULL, models, vocab, state, n_sentences, cfg, example_id)


def run_oracle(
    models: CoinsModels,
    vocab: Vocab,
    state: StoryState,
    n_sentences: int,
    silver_rules: dict[int, SilverPair],
    cfg: ControllerConfig,
    example_id: str = "",
) -> tuple[list[str], RuleMemory, GenerationTrace]:
    """Skip rule decoding; condition generation on the provided bundles."""
    return run_ablation(MODE_ORACLE, models, vocab, state, n_sentences, cfg, example_id, silver_rules)


def run_ablation(
    mode: str,
    models: CoinsModels,
    vocab: Vocab,
    state: StoryState,
    n_sentences: int,
    cfg: ControllerConfig,
    example_id: str = "",
    silver_rules: dict[int, SilverPair] | None = None,
) -> tuple[list[str], RuleMemory, GenerationTrace]:
    """A completion run in any input mode: n_sentences-3 iterations.

    Rule decoding always sees the intact context (Cause rules are still
    grounded in the ending); only the sentence model's input drops parts.
    Oracle mode reads ``silver_rules`` in place of rule decodes.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    if n_sentences < 4:
        raise ValueError(f"need n >= 4 sentences, got {n_sentences}")
    if mode == MODE_ORACLE and silver_rules is None:
        raise SchemaError("oracle mode requires provided rules")
    return _run_loop(models, vocab, state, n_sentences - 3, cfg, mode, example_id, silver_rules)


def run_seg(
    models: CoinsModels,
    vocab: Vocab,
    context: Iterable[str],
    cfg: ControllerConfig,
    example_id: str = "",
) -> tuple[str, RuleMemory, GenerationTrace]:
    """One-iteration ending generation: Effect rules for the last context
    sentence only, no Cause term, then decode the ending."""
    sentences = tuple(context)
    if len(sentences) != 4:
        raise SchemaError(f"SEG needs a 4-sentence context, got {len(sentences)}")
    state = StoryState(prefix=sentences, ending="")
    generated, memory, trace = _run_loop(models, vocab, state, 1, cfg, MODE_SEG, example_id)
    return (generated[0] if generated else ""), memory, trace


def complete_baseline(lm: Lm, vocab: Vocab, states: Iterable[StoryState], cfg: DecodeConfig) -> list[str]:
    """Rule-free completion: for each incomplete story, one decode of all
    its missing sentences from the plain context. One log-prob source
    serves every decode."""
    fn = lm_logprob_fn(lm)
    texts = []
    for state in states:
        ids = vocab_encode(baseline_prompt(state), vocab)
        texts.append(detokenize(beam_search(fn, ids, cfg).ids[len(ids) :], vocab))
    return texts
