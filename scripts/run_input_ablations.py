#!/usr/bin/env python3
"""Held-out input-ablation experiment: how much do rules and the story
ending each contribute to sentence generation?

Trains both generators on a synthetic split, then decodes a held-out
set under each inference-time input variant and prints a BLEU-1 /
ROUGE-L table (oracle rules, self-generated rules, rules without the
ending, no rules and no ending, plus the rule-free baseline model).

    python scripts/run_input_ablations.py --train 128 --eval 12 --seeds 2
"""

import argparse
import time

import numpy as np

from coins.controller import CoinsModels, complete_baseline, default_controller_config, run_ablation
from coins.data import synthetic
from coins.data.corpus import build_nsc_corpus
from coins.data.rules import gold_rule_pairs
from coins.data.serialize import (
    MODE_FULL,
    MODE_IR_ONLY,
    MODE_IR_WO_SE,
    MODE_NO_IR_WO_SE,
    MODE_ORACLE,
)
from coins.data.types import Flavor, initial_state
from coins.decode import DecodeConfig
from coins.metrics import EvalPair, bleu, rouge_l
from coins.model import Lm, LmConfig, init_lm
from coins.train import TrainConfig, build_baseline_seqs, build_joint_items, train_models
from coins.vocab import train_vocab

MODES = (MODE_ORACLE, MODE_FULL, MODE_IR_WO_SE, MODE_IR_ONLY, MODE_NO_IR_WO_SE)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", type=int, default=128)
    ap.add_argument("--eval", type=int, default=12)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--steps", type=int, default=700)
    args = ap.parse_args()

    stories, records = synthetic.generate(args.train + args.eval, seed=100)
    split = np.random.default_rng(0).permutation(len(stories))
    eval_ids = {stories[i].id for i in split[: args.eval]}
    train_ex = build_nsc_corpus([s for s in stories if s.id not in eval_ids])
    eval_ex = build_nsc_corpus([s for s in stories if s.id in eval_ids])
    vocab = train_vocab(
        [s for st in stories if st.id not in eval_ids for s in st.sentences]
        + [r.general.raw for r in records] + ["#"]
    )
    mcfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)
    refs = {ex.id: " ".join(ex.targets) for ex in eval_ex}
    baseline_train = build_baseline_seqs(train_ex, vocab)

    eval_pairs = gold_rule_pairs(eval_ex, records, Flavor.GENERAL)
    totals = {m: [] for m in (*MODES, "baseline")}
    rouge = {m: [] for m in totals}
    for seed in range(args.seeds):
        t0 = time.time()
        theta = init_lm(mcfg, np.random.default_rng(3 * seed + 11))
        beta = init_lm(mcfg, np.random.default_rng(3 * seed + 12))
        items = build_joint_items(train_ex, vocab, Flavor.GENERAL, records,
                                  ablation_mix=0.5, rng=np.random.default_rng(1000 + seed))
        train_models([(theta, mcfg), (beta, mcfg)], [item.terms for item in items],
                     TrainConfig(batch_size=8, epochs=80, learning_rate=2e-3, seed=seed,
                                 max_steps=args.steps))
        base = init_lm(mcfg, np.random.default_rng(3 * seed + 13))
        train_models([(base, mcfg)], [[(0, seq)] for seq in baseline_train],
                     TrainConfig(batch_size=8, epochs=80, learning_rate=2e-3, seed=seed, max_steps=300))

        models = CoinsModels(sentence=Lm(theta, mcfg, "sentence"), csi=Lm(beta, mcfg, "csi_gen"))
        ccfg = default_controller_config(vocab, beam=5, max_sentence_tokens=14,
                                         max_rule_tokens_per_decode=40)
        for mode in MODES:
            pairs = []
            for ex, gold in zip(eval_ex, eval_pairs):
                sents, _, _ = run_ablation(
                    mode, models, vocab, initial_state(ex), ex.n_sentences, ccfg, example_id=ex.id,
                    silver_rules=gold if mode == MODE_ORACLE else None)
                pairs.append(EvalPair(candidate=" ".join(sents), references=(refs[ex.id],)))
            totals[mode].append(bleu(pairs, max_n=1))
            rouge[mode].append(rouge_l(pairs))
        dcfg = DecodeConfig(beam_width=5, max_new_tokens=28, stop_token=vocab.eos)
        texts = complete_baseline(Lm(base, mcfg, "baseline"), vocab,
                                  [initial_state(ex) for ex in eval_ex], dcfg)
        pairs = [EvalPair(candidate=text, references=(refs[ex.id],))
                 for ex, text in zip(eval_ex, texts)]
        totals["baseline"].append(bleu(pairs, max_n=1))
        rouge["baseline"].append(rouge_l(pairs))
        print(f"seed {seed}: {time.time() - t0:.0f}s")

    print(f"\nheld-out results over {args.seeds} seed(s), {args.eval} stories:")
    print(f"{'input variant':<16} {'BLEU-1':>10} {'ROUGE-L':>10}")
    for mode in (*MODES, "baseline"):
        b = np.mean(totals[mode])
        r = np.mean(rouge[mode])
        print(f"{mode:<16} {b:>10.3f} {r:>10.3f}")


if __name__ == "__main__":
    main()
