"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavyweight fixtures (a memorization run and a 5-seed held-out
experiment) are built once per module and shared by the criteria that
read them. Run with ``pytest tests/test_acceptance.py -v -s`` to watch
the per-criterion lines as they complete.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coins import tensor as T
from coins.cli import main as cli_main
from coins.controller import (
    CoinsModels,
    complete_baseline,
    default_controller_config,
    run_ablation,
)
from coins.data import synthetic
from coins.data.corpus import (
    build_nsc_corpus,
    build_seg_corpus,
    read_glucose,
    read_nsc,
    read_stories,
    write_glucose,
    write_nsc,
    write_stories,
)
from coins.data.rules import aggregate_rules, cluster_dimension
from coins.data.serialize import (
    MODE_FULL,
    MODE_IR_WO_SE,
    MODE_NO_IR_WO_SE,
    MODE_ORACLE,
)
from coins.data.types import Flavor, RelationType, SilverPair, StoryState, initial_state
from coins.decode import DecodeConfig, beam_search, greedy
from coins.metrics import EvalPair, RatingMatrix, bleu, distinct_n, fleiss_kappa, rouge_l
from coins.model import Lm, LmConfig, TrainSeq, forward, init_lm, masked_nll
from coins.tensor import Tensor
from coins.train import (
    TrainConfig,
    build_baseline_seqs,
    build_joint_items,
    build_sentence_seq,
    corpus_nll,
    train_models,
)
from coins.vocab import train_vocab

from gradcheck import check_tensor_grad
from test_decode import TabularModel, enumerate_argmax


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def f64_leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, ops at 1e-4 and full toy model at 1e-3


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def fixed(*shape):
        return Tensor(rng.normal(size=shape))

    w46, w34, w44, w75 = fixed(4, 6), fixed(3, 4), fixed(4, 4), fixed(7, 5)
    ids = np.array([1, 3, 1, 6])
    op_cases = {
        "matmul": lambda a, b: T.tsum(T.matmul(a, b)),
        "add": lambda a, b: T.tsum(T.mul(T.add(a, b), w46)),
        "mul": lambda a, b: T.tsum(T.mul(T.mul(a, b), w34)),
        "scale": lambda a, b: T.tsum(T.scale(a, 1.7)),
        "softmax": lambda a, b: T.tsum(T.mul(T.softmax(a), w44)),
        "layer_norm": lambda a, b: T.tsum(T.mul(T.layer_norm(a), w44)),
        "gelu": lambda a, b: T.tsum(T.gelu(a)),
        "dropout": lambda a, b: T.tsum(T.dropout(a, 0.25, np.random.default_rng(5), train=True)),
        "transpose": lambda a, b: T.tsum(T.mul(T.transpose(a), w34)),
        "narrow": lambda a, b: T.tsum(T.narrow(a, 1, 1, 2)),
        "concat": lambda a, b: T.tsum(T.concat([a, a], axis=0)),
        "embedding": lambda a, b: T.tsum(T.mul(T.embedding_lookup(a, ids), w44)),
        "cross_entropy": lambda a, b: T.cross_entropy_masked(
            a, np.array([1, 0, 3]), np.array([True, False, True])
        ),
    }
    shapes = {
        "matmul": ((4, 5), (5, 3)), "add": ((4, 6), (6,)), "mul": ((3, 4), (3, 4)),
        "scale": ((5, 2), (1,)), "softmax": ((4, 4), (1,)), "layer_norm": ((4, 4), (1,)),
        "gelu": ((4, 4), (1,)), "dropout": ((4, 4), (1,)), "transpose": ((4, 3), (1,)),
        "narrow": ((3, 4), (1,)), "concat": ((3, 4), (1,)), "embedding": ((7, 4), (1,)),
        "cross_entropy": ((3, 5), (1,)),
    }
    for name, fn in op_cases.items():
        sa, sb = shapes[name]
        a, b = f64_leaf(rng, *sa), f64_leaf(rng, *sb)
        leaves = {"a": a} if name != "matmul" and name != "add" and name != "mul" else {"a": a, "b": b}
        check_tensor_grad(lambda: fn(a, b), leaves, rng, rel_tol=1e-4, h=1e-6)

    # full toy transformer: 2 layers, 64 hidden, 2 heads, every parameter tensor
    cfg = LmConfig(vocab=30, layers=2, hidden=64, heads=2, max_positions=32, dropout_p=0.0)
    params = init_lm(cfg, rng, dtype=np.float64)
    seq = TrainSeq(ids=rng.integers(0, 30, size=12), start=5, end=12)
    check_tensor_grad(
        lambda: masked_nll(params, cfg, seq), params, rng,
        rel_tol=1e-3, h=1e-6, max_entries_per_leaf=3,
    )
    elapsed = time.time() - t0
    ok = elapsed < 60
    report(1, ok, f"all ops + full 2x64x2 model match finite differences ({elapsed:.1f}s)")
    assert ok, f"gradient checks took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# criterion 2: causality under suffix perturbation, 1000 randomized sequences


def test_criterion_2_causality():
    t0 = time.time()
    cfg = LmConfig(vocab=40, layers=2, hidden=64, heads=2, max_positions=32, dropout_p=0.0)
    params = init_lm(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(1000):
        t = int(rng.integers(3, 24))
        p = int(rng.integers(0, t - 1))
        ids = rng.integers(0, cfg.vocab, size=t)
        other = ids.copy()
        other[p + 1] = (ids[p + 1] + 1 + int(rng.integers(cfg.vocab - 1))) % cfg.vocab
        if t > p + 2:
            other[p + 2 :] = rng.integers(0, cfg.vocab, size=t - p - 2)
        with T.no_grad():
            a = forward(params, cfg, ids).data[: p + 1]
            b = forward(params, cfg, other).data[: p + 1]
        assert np.array_equal(a, b), "prefix logits changed under suffix perturbation"
    elapsed = time.time() - t0
    ok = elapsed < 60
    report(2, ok, f"1000 randomized sequences bit-identical ({elapsed:.1f}s)")
    assert ok, f"causality sweep took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# criterion 3: memorization of a 32-story corpus within 2000 joint steps


@pytest.fixture(scope="module")
def memorization_world():
    t0 = time.time()
    stories, records = synthetic.generate(32, seed=0)
    examples = build_nsc_corpus(stories)
    lines = [s for st in stories for s in st.sentences] + [r.general.raw for r in records] + ["#"]
    vocab = train_vocab(lines)
    cfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)
    theta = init_lm(cfg, np.random.default_rng(1))
    beta = init_lm(cfg, np.random.default_rng(2))
    items = build_joint_items(examples, vocab, Flavor.GENERAL, records)
    hist = train_models(
        [(theta, cfg), (beta, cfg)], [item.terms for item in items],
        TrainConfig(batch_size=8, epochs=400, learning_rate=2e-3, seed=0,
                    target_nll=0.004, max_steps=2000),
    )
    return dict(examples=examples, vocab=vocab, cfg=cfg, theta=theta, beta=beta,
                items=items, hist=hist, train_time=time.time() - t0)


def test_criterion_3_memorization(memorization_world):
    w = memorization_world
    t0 = time.time()
    train_nll = corpus_nll(w["theta"], w["cfg"], [i.sentence_seq for i in w["items"]])
    assert w["hist"].steps <= 2000
    assert train_nll < 0.1, f"training-set NLL {train_nll:.3f} not below 0.1"

    models = CoinsModels(sentence=Lm(w["theta"], w["cfg"], "sentence"),
                         csi=Lm(w["beta"], w["cfg"], "csi_gen"))
    cfg = default_controller_config(w["vocab"], beam=5, max_sentence_tokens=14,
                                    max_rule_tokens_per_decode=40)
    hits = sum(
        tuple(run_ablation(MODE_FULL, models, w["vocab"], initial_state(ex), ex.n_sentences, cfg,
                           example_id=ex.id)[0]) == ex.targets
        for ex in w["examples"]
    )
    elapsed = w["train_time"] + (time.time() - t0)
    ok = hits >= 30 and elapsed < 600
    report(3, ok, f"nll {train_nll:.4f} in {w['hist'].steps} joint steps; "
                  f"reproduced {hits}/32 ({elapsed:.0f}s)")
    assert hits >= 30, f"only {hits}/32 stories reproduced exactly"
    assert elapsed < 600, f"memorization took {elapsed:.0f}s, budget 600s"


# ---------------------------------------------------------------------------
# criteria 4+5: held-out direction-of-effect orderings over 5 seeds


def _gold_pairs(records, ex):
    recs = [r for r in records if r.story_id == ex.id]
    return {
        it: SilverPair(
            effect=aggregate_rules(recs, it + 1, RelationType.EFFECT, Flavor.GENERAL),
            cause=aggregate_rules(recs, ex.n_sentences, RelationType.CAUSE, Flavor.GENERAL),
        )
        for it in range(1, len(ex.targets) + 1)
    }


@pytest.fixture(scope="module")
def direction_runs():
    t0 = time.time()
    stories, records = synthetic.generate(140, seed=100)
    split = np.random.default_rng(0).permutation(len(stories))
    eval_ids = {stories[i].id for i in split[:12]}
    train_ex = build_nsc_corpus([s for s in stories if s.id not in eval_ids])
    eval_ex = build_nsc_corpus([s for s in stories if s.id in eval_ids])
    lines = [s for st in stories if st.id not in eval_ids for s in st.sentences]
    vocab = train_vocab(lines + [r.general.raw for r in records] + ["#"])
    mcfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)

    oracle_eval = [build_sentence_seq(ex, it, vocab, Flavor.GENERAL, records)
                   for ex in eval_ex for it in (1, 2)]
    baseline_train = build_baseline_seqs(train_ex, vocab)
    baseline_eval = build_baseline_seqs(eval_ex, vocab)
    refs = {ex.id: " ".join(ex.targets) for ex in eval_ex}

    per_seed = []
    for seed in range(5):
        theta = init_lm(mcfg, np.random.default_rng(3 * seed + 11))
        beta = init_lm(mcfg, np.random.default_rng(3 * seed + 12))
        items = build_joint_items(train_ex, vocab, Flavor.GENERAL, records,
                                  ablation_mix=0.5, rng=np.random.default_rng(1000 + seed))
        train_models([(theta, mcfg), (beta, mcfg)], [item.terms for item in items],
                     TrainConfig(batch_size=8, epochs=60, learning_rate=2e-3, seed=seed,
                                 max_steps=700))
        base = init_lm(mcfg, np.random.default_rng(3 * seed + 13))
        train_models([(base, mcfg)], [[(0, seq)] for seq in baseline_train],
                     TrainConfig(batch_size=8, epochs=60, learning_rate=2e-3, seed=seed,
                                 max_steps=300))

        run = {
            "nll_oracle": corpus_nll(theta, mcfg, oracle_eval),
            "nll_baseline": corpus_nll(base, mcfg, baseline_eval),
        }
        models = CoinsModels(sentence=Lm(theta, mcfg, "sentence"), csi=Lm(beta, mcfg, "csi_gen"))
        ccfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14,
                                         max_rule_tokens_per_decode=40)
        for mode in (MODE_ORACLE, MODE_FULL, MODE_IR_WO_SE, MODE_NO_IR_WO_SE):
            pairs = []
            for ex in eval_ex:
                sents, _, _ = run_ablation(
                    mode, models, vocab, initial_state(ex), ex.n_sentences, ccfg,
                    example_id=ex.id,
                    silver_rules=_gold_pairs(records, ex) if mode == MODE_ORACLE else None,
                )
                pairs.append(EvalPair(candidate=" ".join(sents), references=(refs[ex.id],)))
            run[f"bleu_{mode}"] = bleu(pairs, max_n=1)

        dcfg = DecodeConfig(beam_width=5, max_new_tokens=28, stop_token=vocab.eos)
        texts = complete_baseline(Lm(base, mcfg, "baseline"), vocab,
                                  [initial_state(ex) for ex in eval_ex], dcfg)
        pairs = [EvalPair(candidate=text, references=(refs[ex.id],))
                 for ex, text in zip(eval_ex, texts)]
        run["bleu_baseline"] = bleu(pairs, max_n=1)
        per_seed.append(run)

    mean = {k: float(np.mean([r[k] for r in per_seed])) for k in per_seed[0]}
    return {"per_seed": per_seed, "mean": mean, "elapsed": time.time() - t0}


def test_criterion_4_direction_of_effect(direction_runs):
    m = direction_runs["mean"]
    elapsed = direction_runs["elapsed"]
    ok_a = m["nll_oracle"] < m["nll_baseline"] and m["bleu_oracle"] > m["bleu_baseline"]
    ok_b = m["bleu_oracle"] > m["bleu_full"] > m["bleu_no_ir_wo_se"]
    ok_time = elapsed < 1800
    report(4, ok_a and ok_b and ok_time,
           f"NLL oracle {m['nll_oracle']:.3f} < baseline {m['nll_baseline']:.3f}; "
           f"BLEU-1 oracle {m['bleu_oracle']:.3f} > full {m['bleu_full']:.3f} > "
           f"no-rules-no-ending {m['bleu_no_ir_wo_se']:.3f}; baseline {m['bleu_baseline']:.3f} "
           f"({elapsed:.0f}s, 5 seeds)")
    assert ok_a, f"oracle vs baseline ordering violated: {m}"
    assert ok_b, f"oracle > full > no_ir_wo_se ordering violated: {m}"
    assert ok_time, f"direction experiment took {elapsed:.0f}s, budget 1800s"


def test_criterion_5_ablation_contract(direction_runs):
    m = direction_runs["mean"]
    ok = m["bleu_ir_wo_se"] > m["bleu_no_ir_wo_se"]
    report(5, ok, f"BLEU-1 with rules w/o ending {m['bleu_ir_wo_se']:.3f} > "
                  f"without rules {m['bleu_no_ir_wo_se']:.3f} (5 seeds)")
    assert ok, f"adding rules without the ending did not help: {m}"


# ---------------------------------------------------------------------------
# criterion 6: loop shape


def test_criterion_6_algorithm_shape():
    vocab = train_vocab(["one two three four five .", "#"])
    cfg = LmConfig(vocab=len(vocab), layers=1, hidden=32, heads=2, max_positions=128, dropout_p=0.0)
    models = CoinsModels(
        sentence=Lm(init_lm(cfg, np.random.default_rng(0)), cfg, "sentence"),
        csi=Lm(init_lm(cfg, np.random.default_rng(1)), cfg, "csi_gen"),
    )
    ccfg = default_controller_config(vocab, beam=2, max_sentence_tokens=5,
                                     max_rule_tokens_per_decode=6)
    results = {}
    for n in (5, 4):
        state = StoryState(prefix=("one two .", "three four ."), ending="five .")
        sents, memory, trace = run_ablation(MODE_FULL, models, vocab, state, n, ccfg)
        results[n] = (len(sents), len(memory), len(trace.records))
    ok = results[5] == (2, 2, 2) and results[4] == (1, 1, 1)
    report(6, ok, f"n=5 -> {results[5]}, n=4 -> {results[4]} (sentences, memory blocks, trace entries)")
    assert ok, results


# ---------------------------------------------------------------------------
# criterion 7: metric oracles


def test_criterion_7_metric_oracles():
    checks = []
    checks.append(bleu([EvalPair("a b c", ("a b c",))], max_n=2) == pytest.approx(1.0))
    checks.append(rouge_l([EvalPair("a b c d", ("a c d",))]) == pytest.approx(6 / 7, abs=1e-9))
    checks.append(distinct_n(["a b a b"], 2) == pytest.approx(2 / 3, abs=1e-9))
    checks.append(fleiss_kappa(RatingMatrix([["w", "w", "w"], ["t", "t", "t"]])) == pytest.approx(1.0))
    checks.append(fleiss_kappa(RatingMatrix([["a", "b"], ["b", "a"]])) == pytest.approx(-1.0))
    cfg = LmConfig(vocab=8, layers=1, hidden=16, heads=2, max_positions=16, dropout_p=0.0)
    params = init_lm(cfg, np.random.default_rng(0), dtype=np.float64)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    seqs = [TrainSeq(ids=np.arange(8) % 8, start=2, end=8)]
    checks.append(np.exp(corpus_nll(params, cfg, seqs)) == pytest.approx(8.0, abs=1e-6))
    ok = all(checks)
    report(7, ok, "BLEU/ROUGE-L/Distinct/kappa/PPL hand values all match")
    assert ok, checks


# ---------------------------------------------------------------------------
# criterion 8: beam search vs exhaustive enumeration


def test_criterion_8_beam_search():
    for vocab_size in (2, 3, 4, 5):
        for seed in range(4):
            model = TabularModel(vocab_size, 1, seed=seed)
            want, want_score = enumerate_argmax(model, (0,), 3)
            got = beam_search(model.batch_logprob_fn, (0,),
                              DecodeConfig(beam_width=vocab_size**2, max_new_tokens=3))
            assert got.ids == want and got.score == pytest.approx(want_score)
            stop_model = TabularModel(vocab_size, 1, seed=100 + seed)
            want, want_score = enumerate_argmax(stop_model, (0,), 3, stop_token=0)
            got = beam_search(stop_model.batch_logprob_fn, (0,),
                              DecodeConfig(beam_width=vocab_size**2, max_new_tokens=3, stop_token=0))
            assert got.ids == want and got.score == pytest.approx(want_score)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        prefix = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(1, 5)))
        model = TabularModel(6, len(prefix), seed=seed)
        cfg = DecodeConfig(beam_width=1, max_new_tokens=4, stop_token=5)
        assert beam_search(model.batch_logprob_fn, prefix, cfg).ids == greedy(model.batch_logprob_fn, prefix, cfg).ids
    report(8, True, "beam equals enumeration (vocab<=5, len<=3, with and without stop); "
                    "beam-1 equals greedy on 100 prompts")


# ---------------------------------------------------------------------------
# criterion 9: data pipeline invariants at 1000 stories


def test_criterion_9_data_pipeline(tmp_path):
    for d, want in [(1, RelationType.CAUSE), (5, RelationType.CAUSE),
                    (6, RelationType.EFFECT), (10, RelationType.EFFECT)]:
        assert cluster_dimension(d) is want
    assert [cluster_dimension(d).value for d in range(1, 11)] == ["Cause"] * 5 + ["Effect"] * 5

    stories, records = synthetic.generate(1000, seed=1)
    examples = build_nsc_corpus(stories)
    segs = build_seg_corpus(stories)
    assert len(examples) == 1000 and len(segs) == 1000
    by_id = {s.id: s for s in stories}
    for ex in examples:
        assert ex.all_sentences == by_id[ex.id].sentences

    p1, p2 = tmp_path / "a", tmp_path / "b"
    p1.mkdir(), p2.mkdir()
    write_stories(p1 / "stories.jsonl", stories)
    write_stories(p2 / "stories.jsonl", read_stories(p1 / "stories.jsonl"))
    assert (p1 / "stories.jsonl").read_bytes() == (p2 / "stories.jsonl").read_bytes()
    write_glucose(p1 / "glucose.jsonl", records)
    write_glucose(p2 / "glucose.jsonl", read_glucose(p1 / "glucose.jsonl"))
    assert (p1 / "glucose.jsonl").read_bytes() == (p2 / "glucose.jsonl").read_bytes()
    write_nsc(p1 / "nsc.jsonl", examples)
    write_nsc(p2 / "nsc.jsonl", read_nsc(p1 / "nsc.jsonl"))
    assert (p1 / "nsc.jsonl").read_bytes() == (p2 / "nsc.jsonl").read_bytes()
    report(9, True, "dimension clustering exact; 1000-story builders and JSONL round-trips bit-exact")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism, byte-identical artifacts


def _run_pipeline_in(root: Path, monkeypatch) -> None:
    monkeypatch.chdir(root)
    runner = CliRunner()
    Path("config.json").write_text(json.dumps({
        "model": {"max_positions": 160},
        "train": {"learning_rate": 2e-3, "epochs": 12, "seed": 5},
    }))
    steps = [
        ["synth-corpus", "--out", "corpus", "--stories", 8, "--seed", 3],
        ["build-nsc", "--stories", "corpus/stories.jsonl", "--out", "nsc"],
        ["train-vocab", "--inputs", "corpus/stories.jsonl", "--inputs", "corpus/glucose.jsonl",
         "--out", "vocab"],
        ["train-coins", "--nsc", "nsc/nsc.jsonl", "--glucose", "corpus/glucose.jsonl",
         "--vocab", "vocab/vocab.json", "--config", "config.json", "--out", "models"],
        ["complete", "--nsc", "nsc/nsc.jsonl", "--models", "models", "--mode", "full",
         "--out", "run"],
        ["evaluate", "--system", "run", "--gold", "nsc/nsc.jsonl", "--out", "eval"],
    ]
    for args in steps:
        result = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output


def test_criterion_10_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    roots = [tmp_path / "r1", tmp_path / "r2"]
    for root in roots:
        root.mkdir()
        _run_pipeline_in(root, monkeypatch)
    compared = [
        "models/sentence.ckpt", "models/csi.ckpt", "models/history.json",
        "run/completions.jsonl", "run/trace.jsonl", "run/summary.json",
        "run/completed_stories.jsonl", "eval/report.json",
    ]
    for rel in compared:
        a = (roots[0] / rel).read_bytes()
        b = (roots[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical seeded runs"
    report(10, True, f"two seeded pipelines byte-identical across {len(compared)} artifacts "
                     f"({time.time() - t0:.0f}s)")
