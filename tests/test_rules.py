import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coins.data.rules import (
    CONNECTIVES,
    aggregate_rules,
    cluster_dimension,
    gold_rule_pairs,
    parse_rule,
    render_rule,
)
from coins.data.types import Flavor, GlucoseRecord, NscExample, RelationType, RuleBundle
from coins.errors import SchemaError


def rec(dim, idx=2, story="s1"):
    rule = parse_rule(f"antecedent {dim} >Causes/Enables> consequent {dim}")
    return GlucoseRecord(story_id=story, sentence_index=idx, dimension=dim, specific=rule, general=rule)


# dimension clustering, per the published relation-type table


def test_cluster_dimension_full_table():
    for d in range(1, 6):
        assert cluster_dimension(d) is RelationType.CAUSE
    for d in range(6, 11):
        assert cluster_dimension(d) is RelationType.EFFECT


@pytest.mark.parametrize("bad", [0, 11, -3])
def test_cluster_dimension_range_error(bad):
    with pytest.raises(ValueError):
        cluster_dimension(bad)


@given(st.integers(1, 10))
def test_cluster_partitions_exactly(d):
    rel = cluster_dimension(d)
    assert rel is (RelationType.CAUSE if d <= 5 else RelationType.EFFECT)


# rule parsing


def test_parse_rule_example():
    rt = parse_rule("Jane loves cooking >Causes/Enables> Jane learns everything there is to learn")
    assert rt.antecedent == "Jane loves cooking"
    assert rt.connective == ">Causes/Enables>"
    assert rt.consequent == "Jane learns everything there is to learn"


def test_parse_rule_no_connective_keeps_raw():
    rt = parse_rule("no connective here")
    assert rt.raw == "no connective here"
    assert rt.antecedent == "" and rt.consequent == "" and not rt.parsed


@pytest.mark.parametrize(
    "variant,canonical",
    [
        (">causes/enables>", ">Causes/Enables>"),
        ("> Results in >", ">Results in>"),
        (">result in>", ">Results in>"),
        (">ENABLES>", ">Enables>"),
        (">Motivates>", ">Motivates>"),
        (">causes>", ">Causes>"),
    ],
)
def test_connective_normalization(variant, canonical):
    rt = parse_rule(f"a {variant} b")
    assert rt.connective == canonical


def norm_ws(s):
    return " ".join(s.split())


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="abc xyz", min_size=1, max_size=20),
    st.sampled_from(CONNECTIVES),
    st.text(alphabet="abc xyz", min_size=1, max_size=20),
)
def test_render_parse_round_trip(ante, conn, cons):
    raw = f"{ante.strip()} {conn} {cons.strip()}"
    assume_ok = ante.strip() and cons.strip()
    if not assume_ok:
        return
    assert norm_ws(render_rule(parse_rule(raw))) == norm_ws(raw)


# aggregation


def test_aggregate_filters_by_cluster():
    records = [rec(1), rec(4), rec(7)]
    cause = aggregate_rules(records, 2, RelationType.CAUSE, Flavor.GENERAL)
    assert [d for d, _ in cause.rules] == [1, 4]
    effect = aggregate_rules(records, 2, RelationType.EFFECT, Flavor.GENERAL)
    assert [d for d, _ in effect.rules] == [7]


def test_aggregate_empty_bundle_allowed():
    bundle = aggregate_rules([rec(1)], 5, RelationType.EFFECT, Flavor.GENERAL)
    assert len(bundle) == 0


def test_aggregate_orders_by_dimension_stably():
    records = [rec(9), rec(6), rec(8), rec(6)]
    bundle = aggregate_rules(records, 2, RelationType.EFFECT, Flavor.SPECIFIC)
    assert [d for d, _ in bundle.rules] == [6, 6, 8, 9]


def test_gold_rule_pairs_schedule():
    # a 6-sentence story: iteration i pairs the Effect rules of s_{i+1}
    # with the Cause rules of the ending s_6; other stories' records and
    # the other cluster stay out
    def sentence_rec(dim, idx, story="s1"):
        rule = parse_rule(f"s{idx} d{dim} >Causes> x")
        return GlucoseRecord(story_id=story, sentence_index=idx, dimension=dim, specific=rule, general=rule)

    ex = NscExample(id="s1", beginning=("a", "b"), ending="f", targets=("c", "d", "e"))
    records = [sentence_rec(dim, idx) for idx in range(1, 7) for dim in (2, 7)]
    records += [sentence_rec(8, 3, story="s2"), sentence_rec(3, 6, story="s2")]
    (pairs,) = gold_rule_pairs([ex], records, Flavor.GENERAL)
    assert {it: pair.effect.texts for it, pair in pairs.items()} == {
        1: ["s2 d7 >Causes> x"], 2: ["s3 d7 >Causes> x"], 3: ["s4 d7 >Causes> x"]}
    assert all(pair.cause.texts == ["s6 d2 >Causes> x"] for pair in pairs.values())
    (none,) = gold_rule_pairs([ex], [], Flavor.GENERAL)
    assert set(none) == {1, 2, 3} and all(not p.effect and not p.cause for p in none.values())


def test_bundle_rejects_cross_cluster_dimension():
    rule = parse_rule("a >Enables> b")
    with pytest.raises(SchemaError):
        RuleBundle(relation=RelationType.CAUSE, rules=((7, rule),), flavor=Flavor.GENERAL)
