import numpy as np
import pytest

from coins.controller import CoinsModels, default_controller_config, run_oracle
from coins.data.corpus import read_nsc, write_nsc
from coins.data.rules import render_rule
from coins.data.serialize import csi_source
from coins.data.silver import _decode_rules, enrich_with_silver
from coins.data.types import Flavor, RelationType, StoryState, initial_state
from coins.decode import DecodeConfig
from coins.model import Lm, LmConfig, init_lm
from coins.vocab import encode, tokenize, train_vocab


def csi_of(world):
    return Lm(world["beta"], world["cfg"], "csi_gen")


def test_enrichment_fills_every_iteration(overfit_world):
    w = overfit_world
    enriched = enrich_with_silver(csi_of(w), w["examples"], w["vocab"], Flavor.GENERAL)
    assert len(enriched) == len(w["examples"])
    pairs = 0
    for ex in enriched:
        assert set(ex.silver_rules) == {1, 2}
        pairs += len(ex.silver_rules)
    assert pairs == 2 * len(w["examples"])  # one (effect, cause) pair per iteration


def test_enrichment_deterministic(overfit_world):
    w = overfit_world
    a = enrich_with_silver(csi_of(w), w["examples"][:3], w["vocab"], Flavor.GENERAL)
    b = enrich_with_silver(csi_of(w), w["examples"][:3], w["vocab"], Flavor.GENERAL)
    for x, y in zip(a, b):
        for it in x.silver_rules:
            assert x.silver_rules[it].effect.texts == y.silver_rules[it].effect.texts
            assert x.silver_rules[it].cause.texts == y.silver_rules[it].cause.texts


def test_memorized_model_reproduces_training_rules(overfit_world):
    # silver rules from the overfit rule model match the gold annotations
    # once both sides are run through the shared tokenizer normalization
    w = overfit_world
    enriched = enrich_with_silver(csi_of(w), w["examples"], w["vocab"], Flavor.GENERAL)
    total, verbatim = 0, 0
    for ex in enriched:
        recs = [r for r in w["records"] if r.story_id == ex.id]
        for it in (1, 2):
            gold_eff = [render_rule(r.general) for r in recs if r.sentence_index == it + 1 and r.dimension >= 6]
            gold_cau = [render_rule(r.general) for r in recs if r.sentence_index == 5 and r.dimension <= 5]
            got = ex.silver_rules[it]
            total += 2
            verbatim += [tokenize(t) for t in got.effect.texts] == [tokenize(t) for t in gold_eff]
            verbatim += [tokenize(t) for t in got.cause.texts] == [tokenize(t) for t in gold_cau]
    assert verbatim >= total - 2  # allow a stray miss on the 8-story corpus


def test_enriched_corpus_round_trips_and_feeds_oracle(tmp_path, overfit_world):
    w = overfit_world
    vocab = w["vocab"]
    enriched = enrich_with_silver(csi_of(w), w["examples"][:4], vocab, Flavor.GENERAL)
    p = tmp_path / "nsc_silver.jsonl"
    write_nsc(p, enriched)
    back = read_nsc(p)
    for a, b in zip(enriched, back):
        for it in a.silver_rules:
            assert [tokenize(t) for t in a.silver_rules[it].effect.texts] == [
                tokenize(t) for t in b.silver_rules[it].effect.texts
            ]
    models = CoinsModels(sentence=Lm(w["theta"], w["cfg"], "sentence"), csi=csi_of(w))
    cfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14, max_rule_tokens_per_decode=40)
    ex = back[0]
    sents, _, trace = run_oracle(models, vocab, initial_state(ex), ex.n_sentences,
                                 ex.silver_rules, cfg, example_id=ex.id)
    assert trace.mode == "oracle" and len(sents) == 2


def test_enrichment_requires_rule_model(overfit_world):
    w = overfit_world
    wrong = Lm(w["theta"], w["cfg"], "sentence")
    with pytest.raises(ValueError):
        enrich_with_silver(wrong, w["examples"], w["vocab"], Flavor.GENERAL)


def test_rule_decode_fits_position_budget():
    # prompt plus the 48-token budget overflows 80 positions; the decode
    # must shrink to fit, not fail into an empty bundle
    vocab = train_vocab(["one two three four five six seven eight .", "#"])
    cfg = LmConfig(vocab=len(vocab), layers=1, hidden=32, heads=2, max_positions=80, dropout_p=0.0)
    csi = Lm(init_lm(cfg, np.random.default_rng(1)), cfg, "csi_gen")
    state = StoryState(prefix=("one two three four five six seven eight .",) * 3, ending="seven eight .")
    prompt = csi_source(state, state.current_sentence, RelationType.EFFECT)
    decode_cfg = DecodeConfig(beam_width=1, max_new_tokens=48, stop_token=vocab.eos)
    assert len(encode(prompt, vocab)) + decode_cfg.max_new_tokens > cfg.max_positions
    assert _decode_rules(csi, vocab, state, state.current_sentence, RelationType.EFFECT, decode_cfg)
