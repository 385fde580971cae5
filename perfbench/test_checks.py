"""Each of the benchmark's correctness checks must fail on a corrupted
output, and the traced token count must equal the one read back from
the written outputs.

    python3 -m pytest perfbench/test_checks.py -q

Runs the real pipeline on a 4-story corpus (about a minute).
"""

import copy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallComplete(W.CompleteBeam5):
    n_stories = 4


class SmallEnrich(W.EnrichGreedy):
    chunk = 2


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    comp = SmallComplete(work / "complete", seed=3)
    comp.setup()
    # enrichment decodes with the same trained rule model
    shutil.copytree(comp.work, work / "enrich", ignore=shutil.ignore_patterns("out", "chunks"))
    enr = SmallEnrich(work / "enrich", seed=3)
    enr.chunks = W.split_chunks(enr.work / "nsc" / "nsc.jsonl", enr.work / "chunks", enr.chunk)
    with Tracer().install() as tracer:
        for _ in range(4):
            comp.run_op()
    completion_tokens = tracer.values["decode.generated_tokens"]
    with Tracer().install() as tracer:
        for _ in range(2):
            enr.run_op()
    enrich_tokens = tracer.values["decode.generated_tokens"]
    rows, traces = comp.outputs()
    enriched = enr.outputs()
    return dict(
        work=comp.work, rows=rows, traces=traces, enriched=enriched,
        vocab=comp.vocab(), gold=comp.gold(),
        examples={ex["id"]: ex for ex in comp.examples()},
        completion_tokens=completion_tokens, enrich_tokens=enrich_tokens,
    )


def sentence_lm(w):
    return ref.ReferenceLm(w["work"] / "models", "sentence")


def rule_lm(w):
    return ref.ReferenceLm(w["work"] / "models", "csi")


def test_checks_pass_on_real_outputs(world):
    w = world
    assert len(w["rows"]) == 4 and len(w["enriched"]) == 4
    assert ref.check_completions(w["rows"], w["traces"], w["examples"], max_misses=0) == []
    assert ref.check_scores(sentence_lm(w), w["vocab"], w["traces"]) == []
    assert ref.check_gold_rules(w["enriched"], w["gold"], max_misses=0) == []
    assert ref.check_greedy(rule_lm(w), w["vocab"], w["enriched"]) == []
    assert ref.check_finite(w["work"] / "models") == []


def test_swapped_middle_sentence_fails(world):
    rows = copy.deepcopy(world["rows"])
    rows[0]["sentences"][0], rows[1]["sentences"][0] = rows[1]["sentences"][0], rows[0]["sentences"][0]
    bad = ref.check_completions(rows, world["traces"], world["examples"], max_misses=0)
    assert any("differ from the gold middles" in b for b in bad)


def test_missing_sentence_and_iteration_error_fail(world):
    rows, traces = copy.deepcopy(world["rows"]), copy.deepcopy(world["traces"])
    rows[0]["sentences"].pop()
    traces[1]["records"][0]["error"] = "LengthError: sequence length 81 exceeds max_positions 80"
    bad = ref.check_completions(rows, traces, world["examples"], max_misses=4)
    assert any("sentences, need" in b for b in bad)
    assert any("LengthError" in b for b in bad)


def test_score_off_by_a_tenth_fails(world):
    traces = copy.deepcopy(world["traces"])
    traces[0]["records"][0]["sentence_score"] += 0.1
    assert len(ref.check_scores(sentence_lm(world), world["vocab"], traces)) == 1


def test_non_argmax_greedy_token_fails(world):
    w = world
    enriched = copy.deepcopy(w["enriched"])
    effect = enriched[0]["silver_rules"]["1"]["effect"]
    words = effect[0].split()
    # the first emitted token becomes another story's name: a valid
    # vocabulary word the model did not pick
    words[0] = next(n for n in ("mia", "ben", "ava", "leo") if n != words[0])
    effect[0] = " ".join(words)
    bad = ref.check_greedy(rule_lm(w), w["vocab"], enriched)
    assert len(bad) == 1 and "token 0" in bad[0]
    assert ref.check_gold_rules(enriched, w["gold"], max_misses=0)


def test_perturbed_reference_weight_fails(world):
    lm = sentence_lm(world)
    lm.params["tok_emb"][ref.EOS, 0] += 1.0
    assert ref.check_scores(lm, world["vocab"], world["traces"])


def test_non_finite_parameter_fails(world, tmp_path):
    src = world["work"] / "models"
    raw = bytearray((src / "csi.ckpt").read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    (tmp_path / "csi.ckpt").write_bytes(bytes(raw))
    (tmp_path / "sentence.ckpt").write_bytes((src / "sentence.ckpt").read_bytes())
    assert ref.check_finite(tmp_path)


def test_untrained_model_fails_nll_check(world, tmp_path):
    w = world
    lm = sentence_lm(w)
    rng = np.random.default_rng(0)
    lm.params = {k: rng.normal(0.0, 0.02, size=v.shape) for k, v in lm.params.items()}
    examples = list(w["examples"].values())
    assert ref.check_nll(lm, w["vocab"], examples, w["gold"], W.JointTrain.nll_share)
    assert ref.check_nll(sentence_lm(w), w["vocab"], examples, w["gold"], W.JointTrain.nll_share) == []


def test_traced_generated_tokens_match_outputs(world):
    w = world
    from_completions = 0
    for t in w["traces"]:
        for r in t["records"]:
            from_completions += len(ref.tokenize(r["sentence"])) + 1
            from_completions += len(ref.rule_tokens(r["effect_rules"]))
            from_completions += len(ref.rule_tokens(r["cause_rules"]))
    assert w["completion_tokens"] == from_completions
    from_enriched = sum(len(ref.rule_tokens(rules)) for ex in w["enriched"]
                        for _, rules, _ in ref.enriched_decodes(ex))
    assert w["enrich_tokens"] == from_enriched
