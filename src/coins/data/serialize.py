"""Serialized training/decoding sequences for both models.

Rule-generator sequences follow the semi-structured four-field layout,
'#'-delimited:

    [SOS] <context> # <selected sentence> # <relation token> # <rules> [EOS]

with individual rules inside the last field joined by [SEP]. The
sentence-generator reads

    [SOS] <rules> [EOK] <context>

and is trained to continue with the target sentence plus [EOS]; when
the rule block is empty the [EOK] marker is dropped, which makes the
rule-free baseline a special case of the same serialization.
"""

from __future__ import annotations

from ..errors import SchemaError
from .types import RelationType, StoryState

FIELD_SEP = "#"
RULE_SEP = "[SEP]"
SOS = "[SOS]"
EOS = "[EOS]"
EOK = "[EOK]"

RELATION_TOKEN = {RelationType.EFFECT: "[EFFECT]", RelationType.CAUSE: "[CAUSE]"}
_TOKEN_RELATION = {v: k for k, v in RELATION_TOKEN.items()}


def join_rules(texts: list[str]) -> str:
    return f" {RULE_SEP} ".join(t.strip() for t in texts if t.strip())


def split_rules(text: str) -> list[str]:
    return [part.strip() for part in text.split(RULE_SEP) if part.strip()]


def csi_source(context: StoryState, selected: str, relation: RelationType) -> str:
    """Decoding prompt for the rule generator, up to the target field."""
    return f"{SOS} {context.render()} {FIELD_SEP} {selected} {FIELD_SEP} {RELATION_TOKEN[relation]} {FIELD_SEP}"


def serialize_csi_example(
    context: StoryState,
    selected: str,
    relation: RelationType,
    rule_texts: list[str],
) -> str:
    source = csi_source(context, selected, relation)
    rules = join_rules(rule_texts)
    return f"{source} {rules} {EOS}" if rules else f"{source} {EOS}"


def deserialize_csi_example(text: str) -> tuple[str, str, RelationType, list[str]]:
    """Recover (context, selected, relation, rules) from a serialized line."""
    body = text.strip()
    if body.startswith(SOS):
        body = body[len(SOS) :].strip()
    if body.endswith(EOS):
        body = body[: -len(EOS)].strip()
    fields = [f.strip() for f in body.split(FIELD_SEP)]
    if len(fields) != 4:
        raise SchemaError(f"expected 4 '#'-delimited fields, got {len(fields)}")
    context, selected, rel_token, rules = fields
    if rel_token not in _TOKEN_RELATION:
        raise SchemaError(f"unknown relation token {rel_token!r}")
    return context, selected, _TOKEN_RELATION[rel_token], split_rules(rules)


# sentence-generator input variants (inference-time input ablations included)

MODE_FULL = "full"
MODE_ORACLE = "oracle"
MODE_IR_ONLY = "ir_only"
MODE_NO_IR_WO_SE = "no_ir_wo_se"
MODE_IR_WO_SE = "ir_wo_se"
MODE_SEG = "seg"
ABLATION_MODES = (MODE_FULL, MODE_ORACLE, MODE_IR_ONLY, MODE_NO_IR_WO_SE, MODE_IR_WO_SE)


def sentence_prompt(rules_text: str, context: StoryState, mode: str = MODE_FULL) -> str:
    """Prompt the sentence generator continues from, per input mode."""
    if mode in (MODE_FULL, MODE_ORACLE, MODE_SEG):
        ctx: str | None = context.render()
    elif mode == MODE_IR_ONLY:
        ctx = None
    elif mode in (MODE_NO_IR_WO_SE, MODE_IR_WO_SE):
        ctx = context.render(include_ending=False)
    else:
        raise ValueError(f"unknown input mode {mode!r}")
    if mode == MODE_NO_IR_WO_SE:
        rules_text = ""
    parts = [SOS]
    if rules_text.strip():
        parts.extend([rules_text.strip(), EOK])
    if ctx is not None:
        parts.append(ctx)
    return " ".join(parts)


def sentence_example(rules_text: str, context: StoryState, target: str, mode: str = MODE_FULL) -> tuple[str, str]:
    """(prompt, full training line) for one teacher-forced iteration."""
    prompt = sentence_prompt(rules_text, context, mode=mode)
    return prompt, f"{prompt} {target.strip()} {EOS}"


def baseline_prompt(context: StoryState) -> str:
    """Rule-free single-model prompt: the plain incomplete context."""
    return sentence_prompt("", context, mode=MODE_FULL)


def baseline_example(context: StoryState, targets: tuple[str, ...]) -> tuple[str, str]:
    """The baseline predicts every missing sentence in one continuation."""
    return sentence_example("", context, " ".join(targets), mode=MODE_FULL)
