"""Silver-rule enrichment: decode a trained rule model over a corpus once
and store the results on each example, one (Effect, Cause) pair per
controller iteration."""

from __future__ import annotations

import dataclasses
import logging

from ..decode import DecodeConfig, RuleRequest, decode_rules
from ..model import Lm
from ..vocab import Vocab
from .types import (
    Flavor,
    NscExample,
    RelationType,
    SilverPair,
    bundle_from_texts,
    teacher_state,
)

log = logging.getLogger(__name__)


def _decode_rules(
    csi: Lm,
    vocab: Vocab,
    requests: list[RuleRequest],
    cfg: DecodeConfig,
) -> list[list[str]]:
    """Each request's decoded rules, all decoded in one batch, or none
    for a request whose decode fails."""
    out = []
    for (_, selected, relation), result in zip(requests, decode_rules(csi, vocab, requests, cfg)):
        if isinstance(result, Exception):
            log.error("rule decode failed for %s of %r", relation.value, selected[:60], exc_info=result)
            out.append([])
        else:
            out.append(result[0])
    return out


def enrich_with_silver(
    csi: Lm,
    examples: list[NscExample],
    vocab: Vocab,
    flavor: Flavor,
    decode_cfg: DecodeConfig | None = None,
) -> list[NscExample]:
    """Fill ``silver_rules`` on every example by decoding the rule model.

    Decoding is greedy by default (pass a wider ``decode_cfg`` to use
    beam search). Contexts are teacher-forced: iteration i sees the gold
    sentences up to s_i, so every Effect and Cause decode of the corpus
    is independent and all of them run in one batched search. A failed
    decode records an empty bundle and the example is kept.
    """
    if csi.role not in ("csi_gen", "csi_spec"):
        raise ValueError(f"enrichment needs a rule model, got role {csi.role!r}")
    cfg = decode_cfg or DecodeConfig(beam_width=1, max_new_tokens=48, stop_token=vocab.eos)
    requests: list[RuleRequest] = []
    for ex in examples:
        for it in range(1, len(ex.targets) + 1):
            state = teacher_state(ex, it)
            requests += [(state, state.current_sentence, RelationType.EFFECT),
                         (state, ex.ending, RelationType.CAUSE)]
    rules = iter(_decode_rules(csi, vocab, requests, cfg))
    out: list[NscExample] = []
    for ex in examples:
        silver = {
            it: SilverPair(effect=bundle_from_texts(next(rules), RelationType.EFFECT, flavor),
                           cause=bundle_from_texts(next(rules), RelationType.CAUSE, flavor))
            for it in range(1, len(ex.targets) + 1)
        }
        out.append(dataclasses.replace(ex, silver_rules=silver))
    return out
