"""Corpus builders and JSONL input/output.

All files are UTF-8, one record per line, with a fixed field order so
reruns diff cleanly. Importers escape reserved token surfaces before
any text reaches the tokenizer.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import SchemaError
from ..files import atomic_open
from ..vocab import escape_specials
from .rules import parse_rule, render_rule
from .types import (
    Flavor,
    GlucoseRecord,
    NscExample,
    RelationType,
    RuleBundle,
    SegExample,
    SilverPair,
    Story,
    bundle_from_texts,
)

log = logging.getLogger(__name__)

SEPARATOR_FIELD = "[SEP]"


def build_nsc(story: Story) -> NscExample | None:
    """First two sentences + ending as context; the middles become targets.

    Stories shorter than 4 sentences cannot carry a target and are
    skipped with a warning.
    """
    if len(story) < 4:
        log.warning("skipping story %s: %d sentences, need >= 4", story.id, len(story))
        return None
    s = story.sentences
    return NscExample(id=story.id, beginning=(s[0], s[1]), ending=s[-1], targets=s[2:-1])


def build_seg(story: Story) -> SegExample | None:
    """Four context sentences, fifth sentence as gold ending."""
    if len(story) != 5:
        log.warning("skipping story %s: SEG needs exactly 5 sentences, got %d", story.id, len(story))
        return None
    s = story.sentences
    return SegExample(id=story.id, context=(s[0], s[1], s[2], s[3]), target=s[4])


def build_nsc_corpus(stories: Iterable[Story]) -> list[NscExample]:
    return [ex for ex in (build_nsc(s) for s in stories) if ex is not None]


def build_seg_corpus(stories: Iterable[Story]) -> list[SegExample]:
    return [ex for ex in (build_seg(s) for s in stories) if ex is not None]


def split_by_story_id(stories: list[Story], dev_fraction: float, seed: int) -> tuple[list[Story], list[Story]]:
    """Deterministic disjoint train/dev split keyed on story ids."""
    ids = sorted(s.id for s in stories)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_dev = int(round(len(ids) * dev_fraction))
    dev_ids = {ids[i] for i in perm[:n_dev]}
    train = [s for s in stories if s.id not in dev_ids]
    dev = [s for s in stories if s.id in dev_ids]
    return train, dev


# ---------------------------------------------------------------------------
# JSONL


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for every non-blank line; a line that is not
    UTF-8 text holding a JSON object raises SchemaError naming the file
    and line."""
    # undecodable bytes become lone surrogates, which UTF-8 cannot encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise SchemaError(f"{path}:{lineno}: not UTF-8 text") from e
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            except (ValueError, RecursionError) as e:  # an overlong integer, too deep a nesting
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({e})") from e
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: expected an object per line")
            yield lineno, row


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=True) + "\n")


def require(row: dict, keys: list[str], where: str) -> None:
    """Raise SchemaError at ``where`` unless ``row`` has every key."""
    missing = [k for k in keys if k not in row]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")


def read_stories(path) -> list[Story]:
    out = []
    for lineno, row in read_jsonl(path):
        require(row, ["id", "sentences"], f"{path}:{lineno}")
        if not isinstance(row["sentences"], list):
            raise SchemaError(f"{path}:{lineno}: 'sentences' must be a list")
        out.append(
            Story(id=str(row["id"]), sentences=tuple(escape_specials(str(s)) for s in row["sentences"]))
        )
    return out


def write_stories(path, stories: Iterable[Story]) -> None:
    write_jsonl(path, ({"id": s.id, "sentences": list(s.sentences)} for s in stories))


def read_glucose(path) -> list[GlucoseRecord]:
    out = []
    for lineno, row in read_jsonl(path):
        require(row, ["story_id", "sentence_index", "dimension", "specific", "general"], f"{path}:{lineno}")
        try:
            out.append(
                GlucoseRecord(
                    story_id=str(row["story_id"]),
                    sentence_index=int(row["sentence_index"]),
                    dimension=int(row["dimension"]),
                    specific=parse_rule(escape_specials(str(row["specific"]))),
                    general=parse_rule(escape_specials(str(row["general"]))),
                )
            )
        except (TypeError, ValueError) as e:
            raise SchemaError(f"{path}:{lineno}: {e}") from e
    return out


def write_glucose(path, records: Iterable[GlucoseRecord]) -> None:
    write_jsonl(
        path,
        (
            {
                "story_id": r.story_id,
                "sentence_index": r.sentence_index,
                "dimension": r.dimension,
                "specific": r.specific.raw,
                "general": r.general.raw,
            }
            for r in records
        ),
    )


def import_glucose_delimited(path, delimiter: str = "\t") -> list[GlucoseRecord]:
    """Importer for delimiter-separated rule dumps.

    Expected columns: story_id, sentence_index, dimension, specific, general.
    A header row naming the first column 'story_id' is tolerated.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split(delimiter)
            if lineno == 1 and cols and cols[0].strip().lower() == "story_id":
                continue
            if len(cols) < 5:
                raise SchemaError(f"{path}:{lineno}: expected 5 columns, got {len(cols)}")
            try:
                out.append(
                    GlucoseRecord(
                        story_id=cols[0].strip(),
                        sentence_index=int(cols[1]),
                        dimension=int(cols[2]),
                        specific=parse_rule(escape_specials(cols[3].strip())),
                        general=parse_rule(escape_specials(cols[4].strip())),
                    )
                )
            except ValueError as e:
                raise SchemaError(f"{path}:{lineno}: {e}") from e
    return out


def _bundle_to_texts(bundle: RuleBundle) -> list[str]:
    return [render_rule(rt) for _, rt in bundle.rules]


def nsc_to_row(ex: NscExample) -> dict:
    row: dict = {
        "id": ex.id,
        "context": [ex.beginning[0], ex.beginning[1], SEPARATOR_FIELD, ex.ending],
        "targets": list(ex.targets),
    }
    if ex.silver_rules is not None:
        row["silver_rules"] = {
            str(i): {
                "effect": _bundle_to_texts(pair.effect),
                "cause": _bundle_to_texts(pair.cause),
            }
            for i, pair in sorted(ex.silver_rules.items())
        }
    return row


def nsc_from_row(row: dict, where: str, flavor: Flavor = Flavor.GENERAL) -> NscExample:
    require(row, ["id", "context", "targets"], where)
    ctx = row["context"]
    if not (isinstance(ctx, list) and len(ctx) == 4 and ctx[2] == SEPARATOR_FIELD):
        raise SchemaError(f"{where}: context must be [s1, s2, '{SEPARATOR_FIELD}', s_n]")
    silver = None
    if "silver_rules" in row and row["silver_rules"] is not None:
        silver = {}
        for key, pair in row["silver_rules"].items():
            require(pair, ["effect", "cause"], f"{where} silver_rules[{key}]")
            silver[int(key)] = SilverPair(
                effect=bundle_from_texts(pair["effect"], RelationType.EFFECT, flavor),
                cause=bundle_from_texts(pair["cause"], RelationType.CAUSE, flavor),
            )
    return NscExample(
        id=str(row["id"]),
        beginning=(str(ctx[0]), str(ctx[1])),
        ending=str(ctx[3]),
        targets=tuple(str(t) for t in row["targets"]),
        silver_rules=silver,
    )


def read_nsc(path, flavor: Flavor = Flavor.GENERAL) -> list[NscExample]:
    return [nsc_from_row(row, f"{path}:{lineno}", flavor) for lineno, row in read_jsonl(path)]


def write_nsc(path, examples: Iterable[NscExample]) -> None:
    write_jsonl(path, (nsc_to_row(ex) for ex in examples))


def read_seg(path) -> list[SegExample]:
    out = []
    for lineno, row in read_jsonl(path):
        require(row, ["id", "context", "target"], f"{path}:{lineno}")
        ctx = row["context"]
        if not (isinstance(ctx, list) and len(ctx) == 4):
            raise SchemaError(f"{path}:{lineno}: SEG context must be 4 sentences")
        out.append(SegExample(id=str(row["id"]), context=tuple(str(s) for s in ctx), target=str(row["target"])))
    return out


def write_seg(path, examples: Iterable[SegExample]) -> None:
    write_jsonl(path, ({"id": e.id, "context": list(e.context), "target": e.target} for e in examples))


def corpus_text_lines(path) -> list[str]:
    """All natural-language strings in a stories/nsc/seg/glucose JSONL file,
    for vocabulary training."""
    path = Path(path)
    lines: list[str] = []
    for _, row in read_jsonl(path):
        if "sentences" in row:
            lines.extend(str(s) for s in row["sentences"])
        elif "targets" in row:
            lines.extend(str(s) for s in row["context"] if s != SEPARATOR_FIELD)
            lines.extend(str(t) for t in row["targets"])
            for pair in (row.get("silver_rules") or {}).values():
                lines.extend(str(r) for r in pair.get("effect", []))
                lines.extend(str(r) for r in pair.get("cause", []))
        elif "target" in row:
            lines.extend(str(s) for s in row["context"])
            lines.append(str(row["target"]))
        elif "specific" in row:
            lines.append(str(row["specific"]))
            lines.append(str(row["general"]))
        else:
            raise SchemaError(f"{path}: unrecognized record shape for vocab training")
    return lines
