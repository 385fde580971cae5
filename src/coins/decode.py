"""Greedy and beam-search decoding over any batched next-token log-prob source.

The decoder only needs a callable ``logprob_fn(batch) -> (n, V)
log-probs``, called once per step with the ids of every live hypothesis
in beam order, so trained transformers and hand-built tabular test
models share the same code path. Everything is deterministic: candidate
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


def beam_search(logprob_fn: LogprobFn, prefix: Sequence[int], config: DecodeConfig) -> DecodeResult:
    """Best finished hypothesis under sum-of-log-probs beam search.

    Finished hypotheses collect in a separate pool and compete with the
    live beam at the end; if nothing finishes within the token budget the
    best live hypothesis is returned flagged unfinished.
    """
    prefix = tuple(int(i) for i in prefix)
    width = config.beam_width
    live: list[BeamHypothesis] = [BeamHypothesis(ids=prefix, logprob=0.0)]
    finished: list[BeamHypothesis] = []

    for _ in range(config.max_new_tokens):
        cands: list[BeamHypothesis] = []
        lps = np.asarray(logprob_fn([hyp.ids for hyp in live]), dtype=np.float64)
        # every row's top tokens by descending log-prob, ties to the lowest id
        tops = np.argsort(-lps, axis=1, kind="stable")[:, :width].tolist()
        for hyp, lp, top in zip(live, lps, tops):
            for tok in top:
                cands.append(
                    BeamHypothesis(
                        ids=hyp.ids + (tok,),
                        logprob=hyp.logprob + float(lp[tok]),
                        finished=config.stop_token is not None and tok == config.stop_token,
                    )
                )
        cands = _ranked(cands, config.length_normalization, len(prefix))
        finished.extend(h for h in cands if h.finished)
        live = [h for h in cands if not h.finished][:width]
        if not live:
            break
        if finished and not config.length_normalization:
            # live scores can only decrease, so a strictly better finished
            # hypothesis can never be overtaken
            best_fin = _ranked(finished, False, len(prefix))[0]
            if best_fin.logprob > live[0].logprob:
                break

    pool = finished if finished else live
    best = _ranked(pool, config.length_normalization, len(prefix))[0]
    n_gen = len(best.ids) - len(prefix)
    score = best.logprob / max(1, n_gen) if config.length_normalization else best.logprob
    return DecodeResult(ids=list(best.ids), score=score, finished=best.finished, n_generated=n_gen)


def greedy(logprob_fn: LogprobFn, prefix: Sequence[int], config: DecodeConfig) -> DecodeResult:
    """Width-1 beam: argmax token each step, ties to the lowest token id."""
    return beam_search(logprob_fn, prefix, dataclasses.replace(config, beam_width=1))


def lm_logprob_fn(lm: Lm) -> LogprobFn:
    """Batched next-token log-probs from a transformer, with a key/value cache.

    The model's weights are packed once, when the source is made. A call
    whose hypotheses each extend a row of the previous call by one token
    moves those parent rows into place in the cache (at width 1 they
    already are) and runs one (n, 1) step; any other call (the first of a
    decode) prefills its hypotheses whole into the same buffers.
    """
    weights = pack_weights(lm.params, lm.config)
    cache = KvCache(lm.config, 1, weights.tok_emb.dtype)
    rows: dict[tuple[int, ...], int] = {}

    def fn(batch: Sequence[tuple[int, ...]]) -> np.ndarray:
        nonlocal rows
        batch = [tuple(ids) for ids in batch]
        parents = [rows.get(ids[:-1]) for ids in batch]
        if rows and None not in parents:
            cache.select(parents)
            new = [ids[-1:] for ids in batch]
        else:
            cache.reset(len(batch))
            new = batch
        logits = forward_cached(weights, lm.config, new, cache)[0]
        rows = {ids: i for i, ids in enumerate(batch)}
        return T.log_softmax_rows(logits[:, -1].astype(np.float64))

    return fn


def decode_rules(
    csi: Lm,
    vocab: Vocab,
    state: StoryState,
    selected: str,
    relation: RelationType,
    cfg: DecodeConfig,
) -> tuple[list[str], str]:
    """Decode the rule model on (context, selected sentence, relation) and
    split the output on the rule delimiter. The token budget is capped at
    the positions the prompt leaves free. Returns (rules, prompt)."""
    prompt = csi_source(state, selected, relation)
    ids = encode(prompt, vocab)
    result = beam_search(lm_logprob_fn(csi), ids, cfg.fit(len(ids), csi.config.max_positions))
    return split_rules(detokenize(result.ids[len(ids) :], vocab)), prompt
