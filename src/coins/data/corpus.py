"""Corpus builders and JSONL input/output.

All files are UTF-8, one record per line, with a fixed field order so
reruns diff cleanly. Importers escape reserved token surfaces before
any text reaches the tokenizer.
"""

from __future__ import annotations

import json
import logging
import re
from typing import Iterable, Iterator

import numpy as np

from ..errors import SchemaError
from ..files import atomic_open
from ..vocab import escape_specials
from .rules import parse_rule
from .types import (
    Flavor,
    GlucoseRecord,
    NscExample,
    SEPARATOR,
    RelationType,
    SegExample,
    SilverPair,
    Story,
    bundle_from_texts,
)

log = logging.getLogger(__name__)


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


def _text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every non-blank line of a text file, newline
    removed; a line that is not UTF-8 raises SchemaError naming the file
    and line."""
    # undecodable bytes become lone surrogates, which UTF-8 cannot encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise SchemaError(f"{path}:{lineno}: not UTF-8 text") from e
            yield lineno, line.rstrip("\n")


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for every non-blank line; a line that is not
    UTF-8 text holding a JSON object raises SchemaError naming the file
    and line."""
    for lineno, line in _text_lines(path):
        try:
            row = json.loads(line.strip())
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


def _strings(value, where: str) -> list[str]:
    """``value`` if it is a list of strings; SchemaError at ``where`` if not."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


def story_from_row(row: dict, where: str) -> Story:
    require(row, ["id", "sentences"], where)
    if not isinstance(row["sentences"], list):
        raise SchemaError(f"{where}: 'sentences' must be a list")
    try:
        return Story(id=str(row["id"]), sentences=tuple(escape_specials(str(s)) for s in row["sentences"]))
    except SchemaError as e:
        raise SchemaError(f"{where}: {e}") from e


def read_stories(path) -> list[Story]:
    return [story_from_row(row, f"{path}:{lineno}") for lineno, row in read_jsonl(path)]


def write_stories(path, stories: Iterable[Story]) -> None:
    write_jsonl(path, ({"id": s.id, "sentences": list(s.sentences)} for s in stories))


_GLUCOSE_FIELDS = ["story_id", "sentence_index", "dimension", "specific", "general"]


def glucose_from_row(row: dict, where: str) -> GlucoseRecord:
    """The one GlucoseRecord constructor for outside input, JSONL or
    delimited."""
    require(row, _GLUCOSE_FIELDS, where)
    try:
        return GlucoseRecord(
            story_id=str(row["story_id"]),
            sentence_index=int(row["sentence_index"]),
            dimension=int(row["dimension"]),
            specific=parse_rule(escape_specials(str(row["specific"]))),
            general=parse_rule(escape_specials(str(row["general"]))),
        )
    except (TypeError, ValueError, OverflowError, SchemaError) as e:
        raise SchemaError(f"{where}: {e}") from e


def read_glucose(path) -> list[GlucoseRecord]:
    return [glucose_from_row(row, f"{path}:{lineno}") for lineno, row in read_jsonl(path)]


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
    for lineno, line in _text_lines(path):
        cols = line.split(delimiter)
        if lineno == 1 and cols[0].strip().lower() == "story_id":
            continue
        if len(cols) < 5:
            raise SchemaError(f"{path}:{lineno}: expected 5 columns, got {len(cols)}")
        out.append(glucose_from_row(dict(zip(_GLUCOSE_FIELDS, (c.strip() for c in cols))), f"{path}:{lineno}"))
    return out


def nsc_to_row(ex: NscExample) -> dict:
    row: dict = {
        "id": ex.id,
        "context": list(ex.context),
        "targets": list(ex.targets),
    }
    if ex.silver_rules is not None:
        row["silver_rules"] = {
            str(i): {"effect": pair.effect.texts, "cause": pair.cause.texts}
            for i, pair in sorted(ex.silver_rules.items())
        }
    return row


_ITERATION_KEY = re.compile(r"[1-9][0-9]{0,8}")


def _silver_pairs(silver, where: str, flavor: Flavor) -> dict[int, SilverPair]:
    """An NSC row's ``silver_rules`` object, checked to be keyed by
    iteration numbers with ``effect`` and ``cause`` lists of strings."""
    if not isinstance(silver, dict):
        raise SchemaError(f"{where}: silver_rules must be an object")
    pairs = {}
    for key, pair in silver.items():
        at = f"{where}: silver_rules[{key!r}]"
        if not _ITERATION_KEY.fullmatch(key):
            raise SchemaError(f"{at}: key must be an iteration number")
        if not isinstance(pair, dict):
            raise SchemaError(f"{at}: expected an object")
        require(pair, ["effect", "cause"], at)
        pairs[int(key)] = SilverPair(
            effect=bundle_from_texts(_strings(pair["effect"], f"{at}.effect"), RelationType.EFFECT, flavor),
            cause=bundle_from_texts(_strings(pair["cause"], f"{at}.cause"), RelationType.CAUSE, flavor),
        )
    return pairs


def nsc_from_row(row: dict, where: str, flavor: Flavor = Flavor.GENERAL) -> NscExample:
    require(row, ["id", "context", "targets"], where)
    ctx = row["context"]
    if not (isinstance(ctx, list) and len(ctx) == 4 and ctx[2] == SEPARATOR):
        raise SchemaError(f"{where}: context must be [s1, s2, '{SEPARATOR}', s_n]")
    targets = tuple(_strings(row["targets"], f"{where}: targets"))
    silver = row.get("silver_rules")
    silver = None if silver is None else _silver_pairs(silver, where, flavor)
    try:
        return NscExample(id=str(row["id"]), beginning=(str(ctx[0]), str(ctx[1])), ending=str(ctx[3]),
                          targets=targets, silver_rules=silver)
    except SchemaError as e:
        raise SchemaError(f"{where}: {e}") from e


def read_nsc(path, flavor: Flavor = Flavor.GENERAL) -> list[NscExample]:
    return [nsc_from_row(row, f"{path}:{lineno}", flavor) for lineno, row in read_jsonl(path)]


def write_nsc(path, examples: Iterable[NscExample]) -> None:
    write_jsonl(path, (nsc_to_row(ex) for ex in examples))


def seg_from_row(row: dict, where: str) -> SegExample:
    require(row, ["id", "context", "target"], where)
    ctx = row["context"]
    if not (isinstance(ctx, list) and len(ctx) == 4):
        raise SchemaError(f"{where}: SEG context must be 4 sentences")
    return SegExample(id=str(row["id"]), context=tuple(str(s) for s in ctx), target=str(row["target"]))


def read_seg(path) -> list[SegExample]:
    return [seg_from_row(row, f"{path}:{lineno}") for lineno, row in read_jsonl(path)]


def write_seg(path, examples: Iterable[SegExample]) -> None:
    write_jsonl(path, ({"id": e.id, "context": list(e.context), "target": e.target} for e in examples))


def corpus_text_lines(path) -> list[str]:
    """All natural-language strings in a stories/nsc/seg/glucose JSONL file,
    as its reader returns them (reserved surfaces escaped in stories and
    rules), for vocabulary training. Each row must pass its reader's
    checks."""
    lines: list[str] = []
    for lineno, row in read_jsonl(path):
        where = f"{path}:{lineno}"
        if "sentences" in row:
            texts = list(story_from_row(row, where).sentences)
        elif "targets" in row:
            ex = nsc_from_row(row, where)
            texts = [*ex.beginning, ex.ending, *ex.targets]
            for pair in (ex.silver_rules or {}).values():
                texts += pair.effect.texts + pair.cause.texts
        elif "target" in row:
            seg = seg_from_row(row, where)
            texts = [*seg.context, seg.target]
        elif "specific" in row:
            record = glucose_from_row(row, where)
            texts = [record.specific.raw, record.general.raw]
        else:
            raise SchemaError(f"{where}: unrecognized record shape for vocab training")
        lines.extend(texts)
    return lines
