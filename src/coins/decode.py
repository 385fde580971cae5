"""Beam-search decoding (greedy at width 1) over any batched next-token log-prob source.

The decoder only needs a callable ``logprob_fn(batch) -> (n, V)
log-probs``, called once per step with the ids of every live hypothesis
in beam order (of every prompt, when independent prompts are decoded in
lockstep), so trained transformers and hand-built tabular test models
share the same code path. Everything is deterministic: candidate
ordering breaks score ties by token id, then lexicographically by
sequence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .data.serialize import csi_source, split_rules
from .data.types import RelationType, StoryState
from .model import KvCache, Lm, forward_cached, pack_weights
from .vocab import Vocab, detokenize, encode

LogprobFn = Callable[[Sequence[tuple[int, ...]]], np.ndarray]


@dataclass
class DecodeConfig:
    beam_width: int = 5
    max_new_tokens: int = 16
    stop_token: int | None = None
    length_normalization: bool = False

    def __post_init__(self):
        if self.beam_width < 1 or self.max_new_tokens < 1:
            raise ValueError("beam_width and max_new_tokens must be >= 1")

    def fit(self, prompt_len: int, max_positions: int) -> "DecodeConfig":
        """This config with the token budget capped at the positions left
        after a ``prompt_len``-token prompt (at least one token)."""
        budget = max(1, min(self.max_new_tokens, max_positions - prompt_len))
        return dataclasses.replace(self, max_new_tokens=budget)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class BeamHypothesis:
    ids: tuple[int, ...]
    logprob: float
    finished: bool = False


@dataclass
class DecodeResult:
    ids: list[int]  # prefix + generated tokens (stop token included)
    score: float  # sum of generated-token log-probs (normalized if configured)
    finished: bool
    n_generated: int = 0


def _ranked(cands: list[BeamHypothesis], normalize: bool, prefix_len: int) -> list[BeamHypothesis]:
    def key(h: BeamHypothesis):
        n = max(1, len(h.ids) - prefix_len)
        s = h.logprob / n if normalize else h.logprob
        return (-s, h.ids)

    return sorted(cands, key=key)


def _result(live: list[BeamHypothesis], finished: list[BeamHypothesis], config: DecodeConfig,
            prefix_len: int) -> DecodeResult:
    pool = finished if finished else live
    best = _ranked(pool, config.length_normalization, prefix_len)[0]
    n_gen = len(best.ids) - prefix_len
    score = best.logprob / max(1, n_gen) if config.length_normalization else best.logprob
    return DecodeResult(ids=list(best.ids), score=score, finished=best.finished, n_generated=n_gen)


def _error(logprob_fn: LogprobFn, prefix: tuple[int, ...]) -> Exception | None:
    """The exception a first step on ``prefix`` alone raises, if any."""
    try:
        logprob_fn([prefix])
    except Exception as e:
        return e
    return None


def beam_search_many(
    logprob_fn: LogprobFn,
    prefixes: Sequence[Sequence[int]],
    configs: Sequence[DecodeConfig],
) -> list[DecodeResult | Exception]:
    """Beam search on every prefix in lockstep, each under its own config.

    Each step is one ``logprob_fn`` call over the live hypotheses of
    every unfinished prompt, prompt after prompt, each in beam order. A
    prompt leaves the batch when it finishes, with the result a search on
    it alone gives. A prompt whose first step fails when run alone gets
    that exception in place of a result, and the others go on; any other
    failed call is the result of every prompt in it.
    """
    prefixes = [tuple(int(i) for i in p) for p in prefixes]
    out: list[DecodeResult | Exception | None] = [None] * len(prefixes)
    live = {i: [BeamHypothesis(ids=p, logprob=0.0)] for i, p in enumerate(prefixes)}
    finished: dict[int, list[BeamHypothesis]] = {i: [] for i in live}
    step = 0
    while live:
        try:
            lps = np.asarray(logprob_fn([h.ids for i in live for h in live[i]]), dtype=np.float64)
        except Exception as err:
            errors = {}
            if step == 0 and len(live) > 1:
                errors = {i: e for i in live if (e := _error(logprob_fn, prefixes[i])) is not None}
            for i, e in (errors or dict.fromkeys(live, err)).items():
                out[i] = e
                del live[i]
            continue
        # every row's top tokens by descending log-prob, ties to the lowest id
        width = max(configs[i].beam_width for i in live)
        tops = np.argsort(-lps, axis=1, kind="stable")[:, :width].tolist()
        row = 0
        for i in list(live):
            config, prefix_len = configs[i], len(prefixes[i])
            cands: list[BeamHypothesis] = []
            for hyp in live[i]:
                lp = lps[row]
                for tok in tops[row][: config.beam_width]:
                    cands.append(
                        BeamHypothesis(
                            ids=hyp.ids + (tok,),
                            logprob=hyp.logprob + float(lp[tok]),
                            finished=config.stop_token is not None and tok == config.stop_token,
                        )
                    )
                row += 1
            cands = _ranked(cands, config.length_normalization, prefix_len)
            finished[i].extend(h for h in cands if h.finished)
            live[i] = [h for h in cands if not h.finished][: config.beam_width]
            # live scores can only decrease, so a strictly better finished
            # hypothesis can never be overtaken
            settled = (live[i] and finished[i] and not config.length_normalization
                       and _ranked(finished[i], False, prefix_len)[0].logprob > live[i][0].logprob)
            if step + 1 == config.max_new_tokens or not live[i] or settled:
                out[i] = _result(live.pop(i), finished[i], config, prefix_len)
        step += 1
    return out


def beam_search(logprob_fn: LogprobFn, prefix: Sequence[int], config: DecodeConfig) -> DecodeResult:
    """Best finished hypothesis under sum-of-log-probs beam search: the
    one-prompt :func:`beam_search_many`, raising its failure.

    Finished hypotheses collect in a separate pool and compete with the
    live beam at the end; if nothing finishes within the token budget the
    best live hypothesis is returned flagged unfinished.
    """
    result = beam_search_many(logprob_fn, [prefix], [config])[0]
    if isinstance(result, Exception):
        raise result
    return result


def lm_logprob_fn(lm: Lm) -> LogprobFn:
    """Batched next-token log-probs from a transformer, with a key/value cache.

    The model's weights are packed once, when the source is made. A call
    whose hypotheses each extend a row of the previous call by one token
    moves those parent rows into place in the cache (at width 1 they
    already are, until a prompt leaves) and runs one (n, 1) step, each
    row at its own position; any other call (the first of a decode)
    prefills each hypothesis alone into its own row of the same buffers.
    """
    weights = pack_weights(lm.params, lm.config)
    cache = KvCache(lm.config, 1, weights.tok_emb.dtype)
    rows: dict[tuple[int, ...], int] = {}

    def fn(batch: Sequence[tuple[int, ...]]) -> np.ndarray:
        nonlocal rows
        batch = [tuple(ids) for ids in batch]
        known, rows = rows, {}  # forgotten unless this call succeeds
        parents = [known.get(ids[:-1]) for ids in batch]
        if known and None not in parents:
            cache.select(parents)
            logits = forward_cached(weights, lm.config, [ids[-1:] for ids in batch], cache)[0][:, -1]
        else:
            cache.reset(len(batch))
            logits = np.concatenate([forward_cached(weights, lm.config, [ids], cache, row=i)[0][:, -1]
                                     for i, ids in enumerate(batch)])
        rows = {ids: i for i, ids in enumerate(batch)}
        return T.log_softmax_rows(logits.astype(np.float64))

    return fn


DECODE_POSITIONS = 4096  # cached positions per batched decode: hypotheses x max_positions


def decode_many(lm: Lm, prompts: Sequence[Sequence[int]],
                configs: Sequence[DecodeConfig]) -> list[DecodeResult | Exception]:
    """:func:`beam_search_many` of ``lm`` on every prompt, in order, in
    groups whose hypotheses (beam widths summed) at ``max_positions``
    each fill at most DECODE_POSITIONS cache positions. One log-prob
    source serves every group."""
    fn = lm_logprob_fn(lm)
    limit = DECODE_POSITIONS // lm.config.max_positions
    groups: list[list[int]] = [[]]
    rows = 0
    for i, config in enumerate(configs):
        if groups[-1] and rows + config.beam_width > limit:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += config.beam_width
    return [result for group in groups if group
            for result in beam_search_many(fn, [prompts[i] for i in group], [configs[i] for i in group])]


RuleRequest = tuple[StoryState, str, RelationType]  # (context, selected sentence, relation)


def decode_rules(
    csi: Lm,
    vocab: Vocab,
    requests: Sequence[RuleRequest],
    cfg: DecodeConfig,
) -> list[tuple[list[str], str] | Exception]:
    """Decode the rule model on every request in one :func:`decode_many`
    and split each output on the rule delimiter. Each token budget is
    capped at the positions its prompt leaves free. Returns (rules,
    prompt) per request, or the exception its decode failed with."""
    prompts = [csi_source(state, selected, relation) for state, selected, relation in requests]
    ids = [encode(prompt, vocab) for prompt in prompts]
    configs = [cfg.fit(len(x), csi.config.max_positions) for x in ids]
    return [r if isinstance(r, Exception) else (split_rules(detokenize(r.ids[len(x):], vocab)), prompt)
            for r, x, prompt in zip(decode_many(csi, ids, configs), ids, prompts)]
