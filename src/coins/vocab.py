"""Word-level vocabulary with a reserved special-token set.

Both language models share one vocabulary. Special ids sit at the low
end and are never produced by corpus counting; corpus importers run
:func:`escape_specials` so raw text can never collide with a reserved
surface form. Tokenization is whitespace + punctuation splitting with
optional lowercasing; a subword tokenizer could be swapped in behind
the same encode/decode interface.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ConfigError

VOCAB_FORMAT_VERSION = 1

# registry name -> reserved surface form, in id order starting at 0
SPECIALS: dict[str, str] = {
    "PAD": "[PAD]",
    "UNK": "[UNK]",
    "SOS": "[SOS]",
    "EOS": "[EOS]",
    "SEP": "[SEP]",
    "EOK": "[EOK]",
    "MASK": "[MASK]",
    "REL_EFFECT": "[EFFECT]",
    "REL_CAUSE": "[CAUSE]",
}

_SURFACE_TO_NAME = {s.lower(): n for n, s in SPECIALS.items()}
_SPECIAL_RE = re.compile(
    r"\[(" + "|".join(s.strip("[]").lower() for s in SPECIALS.values()) + r")\]",
    re.IGNORECASE,
)
_WORD_RE = re.compile(r"[a-z0-9_']+|[^\sa-z0-9_']", re.IGNORECASE)


def escape_specials(text: str) -> str:
    """Defuse reserved surfaces (and the '#' field delimiter) in raw text."""
    return _SPECIAL_RE.sub(lambda m: m.group(1).lower(), text).replace("#", " ")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split into word/punctuation tokens, passing special surfaces through."""
    out: list[str] = []
    for chunk in text.split():
        name = _SURFACE_TO_NAME.get(chunk.lower())
        if name is not None:
            out.append(SPECIALS[name])
            continue
        if lowercase:
            chunk = chunk.lower()
        out.extend(_WORD_RE.findall(chunk))
    return out


@dataclass
class Vocab:
    id_to_token: list[str]
    lowercase: bool = True
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigError("vocabulary contains duplicate tokens")
        for i, (name, surface) in enumerate(SPECIALS.items()):
            if i >= len(self.id_to_token) or self.id_to_token[i] != surface:
                raise ConfigError(f"special token {name} missing or misplaced (id {i})")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def specials(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(SPECIALS)}

    def special(self, name: str) -> int:
        return list(SPECIALS).index(name)

    @property
    def pad(self) -> int:
        return 0

    @property
    def unk(self) -> int:
        return 1

    @property
    def sos(self) -> int:
        return 2

    @property
    def eos(self) -> int:
        return 3

    @property
    def sep(self) -> int:
        return 4

    @property
    def eok(self) -> int:
        return 5

    @property
    def rel_effect(self) -> int:
        return 7

    @property
    def rel_cause(self) -> int:
        return 8

    def relation_id(self, relation) -> int:
        # accepts a RelationType or its string value
        value = getattr(relation, "value", relation)
        return self.rel_cause if str(value).lower() == "cause" else self.rel_effect

    def save(self, path) -> None:
        payload = {
            "version": VOCAB_FORMAT_VERSION,
            "lowercase": self.lowercase,
            "specials": self.specials,
            "tokens": self.id_to_token,
        }
        Path(path).write_text(json.dumps(payload, ensure_ascii=True, indent=0) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != VOCAB_FORMAT_VERSION:
            raise ConfigError(f"{path}: unsupported vocab version {payload.get('version')}")
        return cls(id_to_token=list(payload["tokens"]), lowercase=bool(payload["lowercase"]))


def train_vocab(
    corpus: Iterable[str],
    max_size: int = 8192,
    min_freq: int = 1,
    lowercase: bool = True,
) -> Vocab:
    """Count surface tokens and keep the most frequent ones after the specials.

    Deterministic for a given corpus order: ties are broken
    lexicographically. Reserved surfaces are skipped even if present.
    """
    n_special = len(SPECIALS)
    if max_size < n_special:
        raise ConfigError(f"max_size {max_size} smaller than the {n_special} reserved specials")
    counts: Counter[str] = Counter()
    for line in corpus:
        for tok in tokenize(line, lowercase=lowercase):
            if tok.lower() not in _SURFACE_TO_NAME:
                counts[tok] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, c in ranked if c >= min_freq][: max_size - n_special]
    return Vocab(id_to_token=list(SPECIALS.values()) + kept, lowercase=lowercase)


def encode(text: str, vocab: Vocab) -> list[int]:
    unk = vocab.unk
    return [vocab.token_to_id.get(t, unk) for t in tokenize(text, lowercase=vocab.lowercase)]


def decode(ids: Iterable[int], vocab: Vocab) -> str:
    return " ".join(vocab.id_to_token[int(i)] for i in ids)


def detokenize(ids: Iterable[int], vocab: Vocab) -> str:
    """Generated text: the decoded ids with [EOS] blanked out and the ends trimmed."""
    return decode(ids, vocab).replace(SPECIALS["EOS"], " ").strip()
