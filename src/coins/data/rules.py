"""Dimension clustering, rule parsing, and per-sentence rule aggregation."""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable

from .types import Flavor, GlucoseRecord, NscExample, RelationType, RuleBundle, RuleText, SilverPair

# canonical connective spellings, matched case-insensitively with loose spacing;
# longest-first so "causes/enables" wins over "causes"
CONNECTIVES = (
    ">Causes/Enables>",
    ">Results in>",
    ">Motivates>",
    ">Enables>",
    ">Causes>",
)

_CONNECTIVE_RE = re.compile(
    r">\s*(causes\s*/\s*enables|results?\s+in|motivates|enables|causes)\s*>",
    re.IGNORECASE,
)

_CANONICAL = {
    "causes/enables": ">Causes/Enables>",
    "results in": ">Results in>",
    "result in": ">Results in>",
    "motivates": ">Motivates>",
    "enables": ">Enables>",
    "causes": ">Causes>",
}


def cluster_dimension(d: int) -> RelationType:
    """Map a rule dimension to its relation cluster: 1-5 Cause, 6-10 Effect."""
    if not 1 <= d <= 10:
        raise ValueError(f"dimension must be in 1..10, got {d}")
    return RelationType.CAUSE if d <= 5 else RelationType.EFFECT


def parse_rule(raw: str) -> RuleText:
    """Split a rule string on its first recognized connective.

    Unrecognized inputs are preserved verbatim with empty parts rather
    than rejected; downstream code falls back to ``raw``.
    """
    m = _CONNECTIVE_RE.search(raw)
    if m is None:
        return RuleText(antecedent="", connective="", consequent="", raw=raw)
    key = re.sub(r"\s+", " ", m.group(1).lower().replace(" /", "/").replace("/ ", "/"))
    return RuleText(
        antecedent=raw[: m.start()].strip(),
        connective=_CANONICAL[key],
        consequent=raw[m.end() :].strip(),
        raw=raw,
    )


def render_rule(rule: RuleText) -> str:
    if not rule.parsed:
        return rule.raw
    return f"{rule.antecedent} {rule.connective} {rule.consequent}"


def aggregate_rules(
    records: Iterable[GlucoseRecord],
    sentence_index: int,
    relation: RelationType,
    flavor: Flavor,
) -> RuleBundle:
    """Collect one sentence's rules from the requested relation cluster,
    ascending by dimension (stable within a dimension)."""
    picked = [
        r
        for r in records
        if r.sentence_index == sentence_index and cluster_dimension(r.dimension) is relation
    ]
    picked.sort(key=lambda r: r.dimension)
    return RuleBundle(
        relation=relation,
        rules=tuple((r.dimension, r.rule(flavor)) for r in picked),
        flavor=flavor,
    )


def by_story(records: Iterable[GlucoseRecord]) -> dict[str, list[GlucoseRecord]]:
    """Records grouped by story id, each group in input order."""
    grouped: dict[str, list[GlucoseRecord]] = defaultdict(list)
    for r in records:
        grouped[r.story_id].append(r)
    return grouped


def gold_rule_pairs(
    examples: list[NscExample],
    records: Iterable[GlucoseRecord],
    flavor: Flavor,
) -> list[dict[int, SilverPair]]:
    """Each example's gold rule pair per 1-based iteration: at iteration i,
    the Effect rules of the current sentence s_{i+1} and the Cause rules of
    the ending s_n."""
    grouped = by_story(records)
    pairs = []
    for ex in examples:
        recs = grouped.get(ex.id, [])
        cause = aggregate_rules(recs, ex.n_sentences, RelationType.CAUSE, flavor)
        pairs.append({
            it: SilverPair(effect=aggregate_rules(recs, it + 1, RelationType.EFFECT, flavor), cause=cause)
            for it in range(1, len(ex.targets) + 1)
        })
    return pairs
