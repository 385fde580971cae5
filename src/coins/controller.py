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

import logging
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

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
from .decode import (
    DecodeConfig,
    DecodeResult,
    RuleRequest,
    beam_search,
    decode_many,
    decode_rules,
    lm_logprob_fn,
)
from .errors import SchemaError
from .model import Lm, forward_cached, pack_weights
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


@dataclass
class GenerationTrace:
    example_id: str
    mode: str
    records: list[IterationRecord] = field(default_factory=list)

    def rows(self) -> Iterator[dict]:
        """The trace as JSONL rows: a header, then one row per iteration."""
        yield {"example_id": self.example_id, "mode": self.mode}
        for record in self.records:
            yield asdict(record)


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
    requests: list[RuleRequest],
    cfg: ControllerConfig,
) -> list[tuple[list[str], str]]:
    """Decode the rule model on every (context, selected sentence,
    relation) request in one batch, with the controller's rule-decode
    settings. Returns (rules, prompt) per request; a failed decode
    raises."""
    out = decode_rules(csi, vocab, requests, cfg.rule_decode)
    for (_, selected, relation), result in zip(requests, out):
        if isinstance(result, Exception):
            raise result
        if not result[0]:
            log.warning("empty rule decode for relation %s on %r", relation.value, selected)
    return out


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


def _rule_block_states(sentence_model: Lm, vocab: Vocab, prompt: str, rules_text: str) -> np.ndarray:
    """Final-layer hidden states over the rule-token span of the sentence
    model's input; empty rule blocks yield a zero-row block."""
    if not rules_text.strip():
        return np.zeros((0, sentence_model.config.hidden), dtype=np.float32)
    ids = vocab_encode(prompt, vocab)
    rule_ids = vocab_encode(rules_text, vocab)
    weights = pack_weights(sentence_model.params, sentence_model.config)
    _, hf, _ = forward_cached(weights, sentence_model.config, [ids])
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
    if models.csi is None and mode not in (MODE_ORACLE, MODE_NO_IR_WO_SE):
        raise SchemaError(f"mode {mode} needs a rule model")
    memory = RuleMemory(max_rule_tokens=cfg.max_rule_tokens, hidden=models.sentence.config.hidden)
    trace = GenerationTrace(example_id=example_id, mode=mode)
    generated: list[str] = []

    for it in range(1, n_iterations + 1):
        csi_inputs: dict[str, str] = {}
        try:
            if mode == MODE_ORACLE:
                effect, cause = silver_rules[it].effect.texts, silver_rules[it].cause.texts
            elif mode == MODE_NO_IR_WO_SE:
                effect, cause = [], []
            else:
                # one batch: Effect rules for the current sentence (and
                # Cause rules for the ending), or under rule_scope "all"
                # both relations for every sentence
                if mode == MODE_SEG:
                    asked = {"effect": (state.current_sentence, RelationType.EFFECT)}
                elif cfg.rule_scope == "all":
                    asked = {}
                    for pos, sent in enumerate([*state.prefix, state.ending], start=1):
                        asked[f"effect_{pos}"] = (sent, RelationType.EFFECT)
                        asked[f"cause_{pos}"] = (sent, RelationType.CAUSE)
                else:
                    asked = {"effect": (state.current_sentence, RelationType.EFFECT),
                             "cause": (state.ending, RelationType.CAUSE)}
                decoded = gen_inference_rules(
                    models.csi, vocab, [(state, sent, rel) for sent, rel in asked.values()], cfg
                )
                effect, cause = [], []
                for key, (rules, prompt) in zip(asked, decoded):
                    (effect if key.startswith("effect") else cause).extend(rules)
                    csi_inputs[key] = prompt

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
            state = state.with_sentence(sentence) if sentence else state
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
    Oracle mode reads the rule pair ``silver_rules[i]`` (gold or silver) in
    place of rule decodes at iteration i.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    if n_sentences < 4:
        raise ValueError(f"need n >= 4 sentences, got {n_sentences}")
    n_iterations = n_sentences - 3
    if mode == MODE_ORACLE and not set(range(1, n_iterations + 1)) <= set(silver_rules or ()):
        raise SchemaError(f"oracle mode needs a rule pair for each of iterations 1..{n_iterations}")
    return _run_loop(models, vocab, state, n_iterations, cfg, mode, example_id, silver_rules)


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
    its missing sentences from the plain context, every story's decode
    in one batched search."""
    prompts = [vocab_encode(baseline_prompt(state), vocab) for state in states]
    texts = []
    for ids, result in zip(prompts, decode_many(lm, prompts, [cfg] * len(prompts))):
        if isinstance(result, Exception):
            raise result
        texts.append(detokenize(result.ids[len(ids) :], vocab))
    return texts
