import numpy as np
import pytest

from coins.controller import (
    CoinsModels,
    GenerationTrace,
    IterationRecord,
    concat_rules,
    default_controller_config,
    run_ablation,
    run_seg,
)
from coins.data.rules import gold_rule_pairs
from coins.data.corpus import read_jsonl, write_jsonl
from coins.data.serialize import (
    MODE_FULL,
    MODE_IR_ONLY,
    MODE_IR_WO_SE,
    MODE_NO_IR_WO_SE,
    MODE_ORACLE,
    csi_source,
)
from coins.data.types import Flavor, RelationType, StoryState, initial_state
from coins.decode import beam_search, lm_logprob_fn
from coins.errors import SchemaError
from coins.model import Lm, LmConfig, init_lm
from coins.vocab import detokenize, encode, train_vocab


def random_models(vocab, seed=0):
    cfg = LmConfig(vocab=len(vocab), layers=1, hidden=32, heads=2, max_positions=128, dropout_p=0.0)
    theta = Lm(init_lm(cfg, np.random.default_rng(seed)), cfg, "sentence")
    beta = Lm(init_lm(cfg, np.random.default_rng(seed + 1)), cfg, "csi_gen")
    return CoinsModels(sentence=theta, csi=beta)


@pytest.fixture(scope="module")
def untrained():
    vocab = train_vocab(["one two three four five six seven eight .", "#"])
    models = random_models(vocab)
    cfg = default_controller_config(vocab, beam=2, max_sentence_tokens=6, max_rule_tokens_per_decode=8)
    return vocab, models, cfg


def state_of(n):
    return StoryState(prefix=("one two .", "three four ."), ending="seven eight .")


# context update


def test_update_context_inserts_before_separator():
    s = StoryState(prefix=("s1", "s2"), ending="s5")
    s2 = s.with_sentence("s3'")
    assert s2.render() == "s1 s2 s3' [SEP] s5"
    s3 = s2.with_sentence("s4'")
    assert s3.render() == "s1 s2 s3' s4' [SEP] s5"
    assert s3.ending == s.ending


# loop shape


@pytest.mark.parametrize("n,want", [(5, 2), (4, 1), (6, 3)])
def test_run_coins_iteration_counts(untrained, n, want):
    vocab, models, cfg = untrained
    sentences, memory, trace = run_ablation(MODE_FULL, models, vocab, state_of(n), n, cfg, example_id="x")
    assert len(sentences) == len(memory) == len(trace.records) == want


def test_rule_decodes_fit_position_budget():
    # prompt plus the 48-token rule budget overflows 80 positions; the
    # decode must shrink to fit instead of failing the iteration
    vocab = train_vocab(["one two three four five six seven eight .", "#"])
    cfg = LmConfig(vocab=len(vocab), layers=1, hidden=32, heads=2, max_positions=80, dropout_p=0.0)
    models = CoinsModels(sentence=Lm(init_lm(cfg, np.random.default_rng(0)), cfg, "sentence"),
                         csi=Lm(init_lm(cfg, np.random.default_rng(1)), cfg, "csi_gen"))
    state = StoryState(prefix=("one two three four five six seven eight .",) * 3,
                       ending="seven eight .")
    sentences, _, trace = run_ablation(MODE_FULL, models, vocab, state, 5, default_controller_config(vocab, beam=1))
    assert len(sentences) == 2
    assert [rec.error for rec in trace.records] == [None, None]


def test_failed_rule_decode_ends_iteration_with_its_error(untrained):
    # the Cause prompt (context + long ending) overflows max_positions
    # while the Effect prompt fits; they share one batch, and the
    # iteration ends with the Cause decode's error
    vocab, models, cfg = untrained
    ending = " ".join(["seven eight ."] * 20)
    state = StoryState(prefix=("one two .", "three four ."), ending=ending)
    limit = models.csi.config.max_positions
    assert len(encode(csi_source(state, ending, RelationType.CAUSE), vocab)) > limit
    assert len(encode(csi_source(state, "three four .", RelationType.EFFECT), vocab)) <= limit
    sentences, _, trace = run_ablation(MODE_FULL, models, vocab, state, 5, cfg, example_id="x")
    assert sentences == [] and len(trace.records) == 1
    assert trace.records[0].error.startswith("LengthError: sequence length")


def test_run_coins_rejects_short_story(untrained):
    vocab, models, cfg = untrained
    with pytest.raises(ValueError):
        run_ablation(MODE_FULL, models, vocab, state_of(3), 3, cfg)


def test_final_story_keeps_positional_order(untrained):
    vocab, models, cfg = untrained
    state = state_of(5)
    sentences, _, _ = run_ablation(MODE_FULL, models, vocab, state, 5, cfg)
    full = state.render_full(tuple(sentences)).split()
    assert full[: len("one two . three four .".split())] == "one two . three four .".split()
    assert full[-len("seven eight .".split()) :] == "seven eight .".split()


def test_rule_memory_shapes_and_append_only(untrained):
    vocab, models, cfg = untrained
    _, memory, _ = run_ablation(MODE_FULL, models, vocab, state_of(5), 5, cfg)
    arr = memory.as_array()
    assert arr.shape == (2, cfg.max_rule_tokens, models.sentence.config.hidden)
    before = len(memory)
    memory.append(np.zeros((3, models.sentence.config.hidden)))
    assert len(memory) == before + 1


def test_trace_round_trip(untrained, tmp_path):
    vocab, models, cfg = untrained
    _, _, trace = run_ablation(MODE_FULL, models, vocab, state_of(5), 5, cfg, example_id="story-7")
    write_jsonl(tmp_path / "trace.jsonl", trace.rows())
    back = [row for _, row in read_jsonl(tmp_path / "trace.jsonl")]
    assert back == list(trace.rows())
    assert back[0] == {"example_id": "story-7", "mode": MODE_FULL}
    assert [IterationRecord(**row) for row in back[1:]] == trace.records


def test_trace_determinism_audit(untrained):
    # every recorded sentence is reproducible by re-decoding its recorded
    # serialized input with the recorded decode settings
    vocab, models, cfg = untrained
    _, _, trace = run_ablation(MODE_FULL, models, vocab, state_of(5), 5, cfg)
    for rec in trace.records:
        ids = encode(rec.sentence_input, vocab)
        redo = beam_search(lm_logprob_fn(models.sentence), ids, cfg.sentence_decode)
        text = detokenize(redo.ids[len(ids) :], vocab)
        assert text == rec.sentence

# rule concatenation


def test_concat_rules_counts(untrained):
    vocab, _, cfg = untrained
    out = concat_rules(["e one", "e two"], ["c one"], vocab, cfg.max_rule_tokens)
    assert out.count("[SEP]") == 2
    assert out.startswith("e one")
    assert out.index("e two") < out.index("c one")  # effect first


def test_concat_rules_empty(untrained):
    vocab, _, cfg = untrained
    assert concat_rules([], [], vocab, cfg.max_rule_tokens) == ""


def test_concat_rules_whole_rule_truncation(untrained):
    vocab, _, _ = untrained
    rules = ["one two three four", "five six seven eight", "one three five seven"]
    out = concat_rules(rules, [], vocab, max_rule_tokens=9)
    # 4 + (1+4) = 9 tokens fit; a third rule would split the budget
    assert out == "one two three four [SEP] five six seven eight"
    tight = concat_rules(rules, [], vocab, max_rule_tokens=8)
    assert tight == "one two three four"


# oracle runs


def gold_pairs(world, ex):
    return gold_rule_pairs([ex], world["records"], Flavor.GENERAL)[0]


def trained_models(world):
    return CoinsModels(
        sentence=Lm(world["theta"], world["cfg"], "sentence"),
        csi=Lm(world["beta"], world["cfg"], "csi_gen"),
    )


def test_oracle_with_gold_rules_reproduces_memorized_middles(overfit_world):
    w = overfit_world
    vocab = w["vocab"]
    models = trained_models(w)
    cfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14, max_rule_tokens_per_decode=40)
    hits = 0
    for ex in w["examples"]:
        sents, memory, trace = run_ablation(
            MODE_ORACLE, models, vocab, initial_state(ex), ex.n_sentences, cfg, example_id=ex.id,
            silver_rules=gold_pairs(w, ex),
        )
        assert trace.mode == "oracle"
        assert all(not r.csi_inputs for r in trace.records)  # no rule decoding
        assert memory.as_array().any()  # blocks come from encoding provided rules
        hits += tuple(sents) == ex.targets
    assert hits >= 7


def test_full_mode_reproduces_memorized_middles(overfit_world):
    w = overfit_world
    vocab = w["vocab"]
    models = trained_models(w)
    cfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14, max_rule_tokens_per_decode=40)
    hits = 0
    for ex in w["examples"]:
        sents, _, trace = run_ablation(MODE_FULL, models, vocab, initial_state(ex), ex.n_sentences, cfg, example_id=ex.id)
        assert len(trace.records) == 2
        hits += tuple(sents) == ex.targets
    assert hits >= 7


def test_gen_inference_rules_split_on_memorized_corpus(overfit_world):
    # iteration 1 effect + cause bundles both decode to at least one rule,
    # and the decoded text splits on the delimiter into individual rules
    w = overfit_world
    vocab = w["vocab"]
    models = trained_models(w)
    cfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14, max_rule_tokens_per_decode=40)
    ex = w["examples"][0]
    _, _, trace = run_ablation(MODE_FULL, models, vocab, initial_state(ex), ex.n_sentences, cfg)
    rec = trace.records[0]
    assert len(rec.effect_rules) >= 1 and len(rec.cause_rules) >= 1
    assert rec.rules_text.count("[SEP]") == len(rec.effect_rules) + len(rec.cause_rules) - 1


def test_oracle_missing_iteration_is_error(overfit_world):
    w = overfit_world
    models = trained_models(w)
    cfg = default_controller_config(w["vocab"], beam=2, max_sentence_tokens=8)
    ex = w["examples"][0]
    pairs = gold_pairs(w, ex)
    del pairs[2]
    with pytest.raises(SchemaError):
        run_ablation(MODE_ORACLE, models, w["vocab"], initial_state(ex), ex.n_sentences, cfg,
                     silver_rules=pairs)


# ablations


def test_ablation_serializations(untrained):
    vocab, models, cfg = untrained
    state = state_of(5)
    ending = state.ending
    for mode, has_eok, has_ending in [
        (MODE_IR_ONLY, True, False),
        (MODE_NO_IR_WO_SE, False, False),
        (MODE_IR_WO_SE, True, False),
        (MODE_FULL, True, True),
    ]:
        _, _, trace = run_ablation(mode, models, vocab, state, 5, cfg, example_id=mode)
        rec = trace.records[0]
        if mode == MODE_NO_IR_WO_SE:
            assert "[EOK]" not in rec.sentence_input
            assert not rec.effect_rules and not rec.cause_rules
        elif rec.rules_text:
            assert ("[EOK]" in rec.sentence_input) == has_eok
        assert (ending in rec.sentence_input) == has_ending
        if mode in (MODE_IR_WO_SE, MODE_IR_ONLY):
            # cause rules are still generated against the ending
            assert "cause" in rec.csi_inputs and ending in rec.csi_inputs["cause"]


def test_unknown_mode_rejected(untrained):
    vocab, models, cfg = untrained
    with pytest.raises(ValueError):
        run_ablation("bogus", models, vocab, state_of(5), 5, cfg)


def test_all_sentence_rule_scope(untrained):
    import dataclasses

    vocab, models, cfg = untrained
    wide = dataclasses.replace(cfg, rule_scope="all")
    _, _, trace = run_ablation(MODE_FULL, models, vocab, state_of(4), 4, wide, example_id="wide")
    rec = trace.records[0]
    # both relations queried for each of: two prefix sentences + the ending
    assert sorted(rec.csi_inputs) == [
        "cause_1", "cause_2", "cause_3", "effect_1", "effect_2", "effect_3",
    ]
    assert "[CAUSE]" in rec.csi_inputs["cause_2"] and "[EFFECT]" in rec.csi_inputs["effect_2"]


# SEG


def test_run_seg_shape(untrained):
    vocab, models, cfg = untrained
    ending, memory, trace = run_seg(models, vocab, ("a .", "b .", "c .", "d ."), cfg, example_id="seg-1")
    assert len(trace.records) == 1 and len(memory) == 1
    rec = trace.records[0]
    assert rec.cause_rules == []  # Effect rules only
    assert "cause" not in rec.csi_inputs
    assert trace.mode == "seg"


def test_run_seg_requires_four_sentences(untrained):
    vocab, models, cfg = untrained
    with pytest.raises(SchemaError):
        run_seg(models, vocab, ("a", "b", "c"), cfg)


def test_seg_memorized_reproduces_endings(seg_world):
    w = seg_world
    vocab = w["vocab"]
    models = CoinsModels(
        sentence=Lm(w["theta"], w["cfg"], "sentence"),
        csi=Lm(w["beta"], w["cfg"], "csi_gen"),
    )
    cfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14, max_rule_tokens_per_decode=40)
    hits = 0
    for seg in w["segs"]:
        ending, _, _ = run_seg(models, vocab, seg.context, cfg, example_id=seg.id)
        hits += ending == seg.target
    assert hits >= 5


def test_iteration_record_error_marker(tmp_path):
    rec = IterationRecord(
        iteration=1, effect_rules=[], cause_rules=[], rules_text="", sentence="",
        sentence_score=float("-inf"), sentence_finished=False, csi_inputs={},
        sentence_input="", decode={}, error="ValueError: boom",
    )
    trace = GenerationTrace(example_id="e", mode="full", records=[rec])
    write_jsonl(tmp_path / "trace.jsonl", trace.rows())
    rows = [row for _, row in read_jsonl(tmp_path / "trace.jsonl")]
    assert rows[1]["error"] == "ValueError: boom"
    assert rows[1]["sentence_score"] == float("-inf")
