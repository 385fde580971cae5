import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coins.data import synthetic
from coins.data.corpus import (
    build_nsc,
    build_nsc_corpus,
    build_seg,
    build_seg_corpus,
    corpus_text_lines,
    import_glucose_delimited,
    read_glucose,
    read_nsc,
    read_seg,
    read_stories,
    split_by_story_id,
    write_glucose,
    write_nsc,
    write_seg,
    write_stories,
)
from coins.data.serialize import (
    MODE_IR_ONLY,
    MODE_IR_WO_SE,
    MODE_NO_IR_WO_SE,
    baseline_example,
    csi_source,
    deserialize_csi_example,
    sentence_example,
    sentence_prompt,
    serialize_csi_example,
)
from coins.data.types import RelationType, SilverPair, Story, StoryState, bundle_from_texts, Flavor, initial_state
from coins.errors import CoinsError, SchemaError


def story(n, sid="s0"):
    return Story(id=sid, sentences=tuple(f"sentence number {i} ." for i in range(1, n + 1)))


# builders


def test_build_nsc_five_sentences():
    ex = build_nsc(story(5))
    assert ex.context == ("sentence number 1 .", "sentence number 2 .", "[SEP]", "sentence number 5 .")
    assert ex.targets == ("sentence number 3 .", "sentence number 4 .")


def test_build_nsc_reconstructs_story():
    s = story(6)
    ex = build_nsc(s)
    assert ex.all_sentences == s.sentences


def test_build_nsc_four_sentences_single_target():
    ex = build_nsc(story(4))
    assert len(ex.targets) == 1


def test_build_nsc_skips_short_story(caplog):
    with caplog.at_level(logging.WARNING):
        assert build_nsc(story(3)) is None
    assert "skipping" in caplog.text


def test_build_nsc_corpus_is_bijective_on_well_formed():
    stories = [story(5, f"s{i}") for i in range(10)]
    assert len(build_nsc_corpus(stories)) == 10


def test_build_seg():
    ex = build_seg(story(5))
    assert len(ex.context) == 4 and ex.target == "sentence number 5 ."
    assert build_seg(story(3)) is None


def test_seg_corpus_counts_five_sentence_stories():
    stories = [story(5, "a"), story(4, "b"), story(5, "c"), story(6, "d")]
    assert len(build_seg_corpus(stories)) == 2


def test_story_invariants():
    with pytest.raises(SchemaError):
        Story(id="bad", sentences=("one", "two"))
    with pytest.raises(SchemaError):
        Story(id="bad", sentences=("one", "  ", "three"))


def test_split_disjoint_by_id():
    stories = [story(5, f"s{i}") for i in range(20)]
    train, dev = split_by_story_id(stories, 0.25, seed=3)
    assert len(dev) == 5 and len(train) == 15
    assert {s.id for s in train}.isdisjoint({s.id for s in dev})


# serialization of the rule-generator format


def ctx_state():
    return StoryState(prefix=("a .", "b ."), ending="e .")


def test_csi_serialization_counts():
    line = serialize_csi_example(ctx_state(), "b .", RelationType.EFFECT, ["rule one", "rule two"])
    assert line.count("#") == 3
    assert line.count("[SEP]") == 2  # one in the context, one between rules
    assert line.startswith("[SOS]") and line.endswith("[EOS]")


def test_csi_serialization_empty_bundle():
    line = serialize_csi_example(ctx_state(), "b .", RelationType.CAUSE, [])
    head, tail = line.rsplit("#", 1)
    assert tail.strip() == "[EOS]"


def test_csi_round_trip():
    state = ctx_state()
    line = serialize_csi_example(state, "b .", RelationType.EFFECT, ["r one", "r two"])
    ctx, selected, rel, rules = deserialize_csi_example(line)
    assert ctx == state.render()
    assert selected == "b ."
    assert rel is RelationType.EFFECT
    assert rules == ["r one", "r two"]


def test_csi_prompt_is_prefix_of_line():
    state = ctx_state()
    prompt = csi_source(state, "b .", RelationType.CAUSE)
    line = serialize_csi_example(state, "b .", RelationType.CAUSE, ["x"])
    assert line.startswith(prompt)


# sentence-generator serializations


def test_sentence_example_with_rules():
    prompt, line = sentence_example("r one [SEP] r two", ctx_state(), "target .")
    assert "[EOK]" in prompt and prompt.startswith("[SOS]")
    assert line == prompt + " target . [EOS]"


def test_sentence_example_empty_rules_matches_baseline():
    state = ctx_state()
    no_rules = sentence_example("", state, "t .")
    base = baseline_example(state, ("t .",))
    assert no_rules == base
    assert "[EOK]" not in no_rules[0]


def test_ablation_prompts():
    state = ctx_state()
    full = sentence_prompt("r", state)
    ir_only = sentence_prompt("r", state, mode=MODE_IR_ONLY)
    no_ir = sentence_prompt("r", state, mode=MODE_NO_IR_WO_SE)
    ir_wo_se = sentence_prompt("r", state, mode=MODE_IR_WO_SE)
    assert "e ." in full and "[EOK]" in full
    assert "e ." not in ir_only and "[SEP]" not in ir_only
    assert "[EOK]" not in no_ir and "e ." not in no_ir
    assert "[EOK]" in ir_wo_se and "e ." not in ir_wo_se


# JSONL round trips


def test_stories_round_trip(tmp_path):
    stories = [story(5, f"s{i}") for i in range(4)]
    p = tmp_path / "stories.jsonl"
    write_stories(p, stories)
    assert read_stories(p) == stories
    write_stories(tmp_path / "again.jsonl", read_stories(p))
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()


def test_nsc_round_trip_with_silver(tmp_path):
    ex = build_nsc(story(5))
    silver = {
        1: SilverPair(
            effect=bundle_from_texts(["a >Enables> b"], RelationType.EFFECT, Flavor.GENERAL),
            cause=bundle_from_texts(["c >Causes> d"], RelationType.CAUSE, Flavor.GENERAL),
        ),
        2: SilverPair(
            effect=bundle_from_texts([], RelationType.EFFECT, Flavor.GENERAL),
            cause=bundle_from_texts(["e >Motivates> f"], RelationType.CAUSE, Flavor.GENERAL),
        ),
    }
    enriched = type(ex)(id=ex.id, beginning=ex.beginning, ending=ex.ending, targets=ex.targets,
                        silver_rules=silver)
    p = tmp_path / "nsc.jsonl"
    write_nsc(p, [enriched])
    back = read_nsc(p)[0]
    assert back.id == ex.id and back.targets == ex.targets
    assert back.silver_rules[1].effect.texts == ["a >Enables> b"]
    assert back.silver_rules[2].cause.texts == ["e >Motivates> f"]
    write_nsc(tmp_path / "again.jsonl", [back])
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()


def test_nsc_example_needs_a_pair_per_iteration():
    ex = build_nsc(story(5))
    pair = SilverPair(effect=bundle_from_texts([], RelationType.EFFECT, Flavor.GENERAL),
                      cause=bundle_from_texts([], RelationType.CAUSE, Flavor.GENERAL))
    fields = dict(id=ex.id, beginning=ex.beginning, ending=ex.ending, targets=ex.targets)
    assert type(ex)(**fields, silver_rules={1: pair, 2: pair}).silver_rules[2] == pair
    for keys in ((1,), (1, 2, 3), (0, 1), (2, 3), ()):
        with pytest.raises(SchemaError, match="iterations 1..2"):
            type(ex)(**fields, silver_rules={k: pair for k in keys})


# JSON-object fuzzing: every reader either loads a file or raises CoinsError

FIELDS = ["id", "sentences", "context", "targets", "silver_rules", "target", "story_id",
          "sentence_index", "dimension", "specific", "general", "effect", "cause", "1", "2"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), kids, max_size=4),
    max_leaves=16,
)
# valid rows of each kind, so that overriding a few fields reaches the
# checks behind the first one
BASE_ROWS = [
    {},
    {"id": "s", "sentences": ["a .", "b .", "c .", "d .", "e ."]},
    {"id": "s", "context": ["a .", "b .", "[SEP]", "e ."], "targets": ["c .", "d ."],
     "silver_rules": {"1": {"effect": ["x >Causes> y"], "cause": []},
                      "2": {"effect": [], "cause": ["z >Enables> w"]}}},
    {"id": "s", "context": ["a .", "b .", "c .", "d ."], "target": "e ."},
    {"story_id": "s", "sentence_index": 2, "dimension": 6, "specific": "a >Causes> b",
     "general": "A >Causes> B"},
]
rows = st.lists(
    st.tuples(st.sampled_from(BASE_ROWS), st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3)),
    min_size=1, max_size=3,
)


@pytest.mark.parametrize("read", [read_nsc, read_seg, read_stories, read_glucose, corpus_text_lines],
                         ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None)
@given(lines=rows)
def test_fuzz_readers_load_or_raise_coins_error(tmp_path_factory, read, lines):
    path = tmp_path_factory.mktemp("fuzz") / "x.jsonl"
    path.write_text("".join(json.dumps({**base, **fields}) + "\n" for base, fields in lines))
    try:
        read(path)
    except CoinsError:
        pass


def test_seg_round_trip(tmp_path):
    segs = build_seg_corpus([story(5, f"s{i}") for i in range(3)])
    p = tmp_path / "seg.jsonl"
    write_seg(p, segs)
    assert read_seg(p) == segs


def test_glucose_round_trip(tmp_path):
    _, records = synthetic.generate(4, seed=0)
    p = tmp_path / "glucose.jsonl"
    write_glucose(p, records)
    back = read_glucose(p)
    assert [r.story_id for r in back] == [r.story_id for r in records]
    assert [r.specific.raw for r in back] == [r.specific.raw for r in records]
    write_glucose(tmp_path / "again.jsonl", back)
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()


def test_glucose_schema_violations(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"story_id": "x", "sentence_index": 1, "dimension": 11,
                             "specific": "a", "general": "b"}) + "\n")
    with pytest.raises(SchemaError):
        read_glucose(p)
    p.write_text(json.dumps({"story_id": "x"}) + "\n")
    with pytest.raises(SchemaError, match="missing fields"):
        read_glucose(p)
    p.write_text("not json\n")
    with pytest.raises(SchemaError, match="invalid JSON"):
        read_glucose(p)
    p.write_text('{"story_id": "x", "sentence_index": Infinity, "dimension": 6, '
                 '"specific": "a", "general": "b"}\n')
    with pytest.raises(SchemaError, match="bad.jsonl:1"):
        read_glucose(p)


def test_import_glucose_delimited(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_text(
        "story_id\tsentence_index\tdimension\tspecific\tgeneral\n"
        "s1\t2\t6\ta >Enables> b\tA >Enables> B\n",
        encoding="utf-8",
    )
    records = import_glucose_delimited(p)
    assert len(records) == 1 and records[0].dimension == 6
    assert records[0].general.antecedent == "A"


def test_imported_stories_are_escaped(tmp_path):
    p = tmp_path / "stories.jsonl"
    rows = [{"id": "s", "sentences": ["one [SEP] here .", "two # two .", "three .", "four .", "five ."]}]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    s = read_stories(p)[0]
    assert "[SEP]" not in s.sentences[0] and "#" not in s.sentences[1]


# synthetic generator contracts


def test_synthetic_deterministic_and_distinct():
    s1, r1 = synthetic.generate(50, seed=9)
    s2, _ = synthetic.generate(50, seed=9)
    assert [x.sentences for x in s1] == [x.sentences for x in s2]
    assert len({x.sentences for x in s1}) == 50
    assert all(len(x) == 5 for x in s1)
    assert len(r1) == 4 * 50


def test_synthetic_thousand_story_invariants():
    stories, _ = synthetic.generate(1000, seed=1)
    examples = build_nsc_corpus(stories)
    assert len(examples) == 1000
    for ex in examples:
        assert ex.all_sentences == stories[int(ex.id.split("-")[1])].sentences
        assert len(ex.targets) == 2
    segs = build_seg_corpus(stories)
    assert len(segs) == 1000


def test_initial_state_render():
    ex = build_nsc(story(5))
    state = initial_state(ex)
    assert state.render() == "sentence number 1 . sentence number 2 . [SEP] sentence number 5 ."
    assert state.render(include_ending=False).endswith("[SEP]")
