"""Silver-rule enrichment: decode a trained rule model over a corpus once
and store the results on each example, one (Effect, Cause) pair per
controller iteration."""

from __future__ import annotations

import dataclasses
import logging

from ..decode import DecodeConfig, decode_rules
from ..model import Lm
from ..vocab import Vocab
from .types import Flavor, NscExample, RelationType, SilverPair, StoryState, bundle_from_texts

log = logging.getLogger(__name__)


def _decode_rules(
    csi: Lm,
    vocab: Vocab,
    state: StoryState,
    selected: str,
    relation: RelationType,
    cfg: DecodeConfig,
) -> list[str]:
    """The decoded rules, or none when the decode fails."""
    try:
        return decode_rules(csi, vocab, state, selected, relation, cfg)[0]
    except Exception:
        log.exception("rule decode failed for %s of %r", relation.value, selected[:60])
        return []


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
    sentences up to s_i. A failed decode records an empty bundle and the
    example is kept.
    """
    if csi.role not in ("csi_gen", "csi_spec"):
        raise ValueError(f"enrichment needs a rule model, got role {csi.role!r}")
    cfg = decode_cfg or DecodeConfig(beam_width=1, max_new_tokens=48, stop_token=vocab.eos)
    out: list[NscExample] = []
    for ex in examples:
        silver: dict[int, SilverPair] = {}
        for it in range(1, len(ex.targets) + 1):
            state = StoryState(prefix=(*ex.beginning, *ex.targets[: it - 1]), ending=ex.ending)
            effect = _decode_rules(csi, vocab, state, state.current_sentence, RelationType.EFFECT, cfg)
            cause = _decode_rules(csi, vocab, state, ex.ending, RelationType.CAUSE, cfg)
            silver[it] = SilverPair(
                effect=bundle_from_texts(effect, RelationType.EFFECT, flavor),
                cause=bundle_from_texts(cause, RelationType.CAUSE, flavor),
            )
        out.append(dataclasses.replace(ex, silver_rules=silver))
    return out
