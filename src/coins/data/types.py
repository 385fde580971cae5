"""Domain records for stories, inference rules, and task examples."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from ..errors import SchemaError

SEPARATOR = "[SEP]"


class RelationType(Enum):
    CAUSE = "Cause"
    EFFECT = "Effect"


class Flavor(Enum):
    """Which rule wording a model is trained on: placeholder-role (general)
    or story-entity (specific)."""

    GENERAL = "gr"
    SPECIFIC = "sr"


_WS = re.compile(r"\s+")


def _norm(text: str) -> str:
    return _WS.sub(" ", text).strip()


@dataclass(frozen=True)
class Story:
    id: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        cleaned = tuple(_norm(s) for s in self.sentences)
        object.__setattr__(self, "sentences", cleaned)
        if len(cleaned) < 3:
            raise SchemaError(f"story {self.id!r}: needs at least 3 sentences, got {len(cleaned)}")
        if any(not s for s in cleaned):
            raise SchemaError(f"story {self.id!r}: empty sentence after normalization")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class RuleText:
    """One semi-structured rule: antecedent >connective> consequent.

    Unparsable inputs keep ``raw`` populated with empty parts.
    """

    antecedent: str
    connective: str
    consequent: str
    raw: str

    @property
    def parsed(self) -> bool:
        return bool(self.connective)


@dataclass(frozen=True)
class GlucoseRecord:
    story_id: str
    sentence_index: int  # 1-based index of the selected sentence
    dimension: int
    specific: RuleText
    general: RuleText

    def __post_init__(self):
        if not 1 <= self.dimension <= 10:
            raise SchemaError(f"rule for {self.story_id!r}: dimension {self.dimension} outside 1..10")
        if self.sentence_index < 1:
            raise SchemaError(f"rule for {self.story_id!r}: sentence_index must be 1-based")

    def rule(self, flavor: Flavor) -> RuleText:
        return self.general if flavor is Flavor.GENERAL else self.specific


@dataclass(frozen=True)
class RuleBundle:
    relation: RelationType
    rules: tuple[tuple[int, RuleText], ...]  # (dimension, rule), ascending dimension
    flavor: Flavor

    def __post_init__(self):
        lo, hi = (1, 5) if self.relation is RelationType.CAUSE else (6, 10)
        for dim, _ in self.rules:
            if not lo <= dim <= hi:
                raise SchemaError(f"dimension {dim} not valid for a {self.relation.value} bundle")

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def texts(self) -> list[str]:
        from .rules import render_rule

        return [render_rule(rt) for _, rt in self.rules]


def bundle_from_texts(texts, relation: RelationType, flavor: Flavor) -> RuleBundle:
    """Wrap decoded rule strings (no dimension info) in a bundle.

    Decoded rules carry no dimension; the cluster's lowest dimension is
    used as a placeholder so bundle invariants still hold.
    """
    from .rules import parse_rule

    dim = 1 if relation is RelationType.CAUSE else 6
    rules = tuple((dim, parse_rule(t)) for t in texts if t.strip())
    return RuleBundle(relation=relation, rules=rules, flavor=flavor)


@dataclass(frozen=True)
class SilverPair:
    """One iteration's rule pair, gold or silver: the Effect rules of the
    current sentence and the Cause rules of the ending."""

    effect: RuleBundle
    cause: RuleBundle


@dataclass(frozen=True)
class NscExample:
    """Story completion item: (s_1, s_2, [SEP], s_n) plus the gold middles."""

    id: str
    beginning: tuple[str, str]
    ending: str
    targets: tuple[str, ...]
    silver_rules: dict[int, SilverPair] | None = None  # keyed by 1-based iteration

    def __post_init__(self):
        if len(self.beginning) != 2 or not self.targets:
            raise SchemaError(f"example {self.id!r}: needs 2 beginning sentences and >=1 target")
        if self.silver_rules is not None and set(self.silver_rules) != set(range(1, len(self.targets) + 1)):
            raise SchemaError(f"example {self.id!r}: silver_rules must hold iterations 1..{len(self.targets)}, "
                              f"got {list(self.silver_rules)}")

    @property
    def n_sentences(self) -> int:
        return len(self.targets) + 3

    @property
    def context(self) -> tuple[str, ...]:
        return (*self.beginning, SEPARATOR, self.ending)

    @property
    def all_sentences(self) -> tuple[str, ...]:
        return (*self.beginning, *self.targets, self.ending)


@dataclass(frozen=True)
class SegExample:
    """Ending generation item: four context sentences, one target ending."""

    id: str
    context: tuple[str, str, str, str]
    target: str

    def __post_init__(self):
        if len(self.context) != 4:
            raise SchemaError(f"example {self.id!r}: SEG context must be 4 sentences")


@dataclass(frozen=True)
class StoryState:
    """Evolving completion context: prefix sentences, the gap, the ending."""

    prefix: tuple[str, ...]
    ending: str

    def with_sentence(self, sentence: str) -> "StoryState":
        return StoryState(prefix=(*self.prefix, _norm(sentence)), ending=self.ending)

    @property
    def current_sentence(self) -> str:
        return self.prefix[-1]

    def render(self, include_ending: bool = True) -> str:
        parts = [*self.prefix, SEPARATOR]
        if include_ending:
            parts.append(self.ending)
        return " ".join(parts)

    def render_full(self, middles: tuple[str, ...]) -> str:
        return " ".join([*self.prefix, *middles, self.ending])


def initial_state(example: NscExample) -> StoryState:
    return StoryState(prefix=example.beginning, ending=example.ending)


def teacher_state(example: NscExample, iteration: int) -> StoryState:
    """Context before iteration i (1-based): beginning + gold middles so far."""
    return StoryState(
        prefix=(*example.beginning, *example.targets[: iteration - 1]),
        ending=example.ending,
    )
