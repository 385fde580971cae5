"""The three benchmark workloads, each driving the public ``coins`` CLI
in-process.

A workload has a set-up (corpus, vocabulary and, for the decoding
workloads, models trained until they reproduce their corpus), an
operation that the timed loop repeats (one CLI invocation on one chunk
of the corpus, always the same whole amount of work), and a correctness
check over everything the operations wrote.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from coins.cli import main as coins_main

import reference as ref


class CommandFailed(RuntimeError):
    """A coins command exited with a non-zero code."""


def coins(*args) -> None:
    """Run one ``coins`` subcommand in this process, output discarded."""
    argv = [str(a) for a in args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            coins_main.main(args=argv, prog_name="coins", standalone_mode=False)
    except SystemExit as e:
        if e.code not in (0, None):
            raise CommandFailed(f"coins {' '.join(argv)} exited with {e.code}") from None


def make_corpus(work: Path, n_stories: int, seed: int) -> None:
    coins("synth-corpus", "--out", work / "corpus", "--stories", n_stories, "--seed", seed)
    coins("build-nsc", "--stories", work / "corpus" / "stories.jsonl", "--out", work / "nsc")
    coins("train-vocab", "--inputs", work / "corpus" / "stories.jsonl",
          "--inputs", work / "corpus" / "glucose.jsonl", "--out", work / "vocab")


def split_chunks(src: Path, dst: Path, size: int) -> list[Path]:
    lines = [ln for ln in src.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) % size:
        raise ValueError(f"{len(lines)} examples do not split into chunks of {size}")
    dst.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(0, len(lines), size):
        p = dst / f"chunk{i // size:03d}.jsonl"
        p.write_text("\n".join(lines[i : i + size]) + "\n", encoding="utf-8")
        paths.append(p)
    return paths


class Workload:
    """Set-up, a repeatable operation returning (items, tokens), a check."""

    trace_ops: int  # operations a traced run repeats, once untraced and once traced

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.ops_done = 0  # operations started; picks the next chunk
        self.runs = 0  # commands run; names their output directories

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self) -> tuple[int, int]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    # shared readers
    def examples(self) -> list[dict]:
        return ref.read_jsonl(self.work / "nsc" / "nsc.jsonl")

    def gold(self):
        return ref.gold_rules(ref.read_jsonl(self.work / "corpus" / "glucose.jsonl"))

    def vocab(self) -> dict[str, int]:
        return ref.load_vocab(self.work / "vocab" / "vocab.json")


class JointTrain(Workload):
    """train-coins at the CLI-default model, batch 8, one whole epoch of
    a 64-story corpus per operation (16 joint steps, no early stop)."""

    n_stories = 64
    epochs = 1
    trace_ops = 2
    nll_share = 0.75  # trained NLL must sit below this share of ln(V)

    def setup(self) -> None:
        make_corpus(self.work, self.n_stories, self.seed)
        gold = self.gold()
        self.n_items, self.epoch_tokens = 0, 0
        for ex in self.examples():
            n = len(ex["targets"]) + 3
            for it, target in enumerate(ex["targets"], start=1):
                effect, cause = ref.iteration_rules(gold, ex["id"], it, n)
                self.n_items += 1
                self.epoch_tokens += (len(ref.tokenize(target)) + 1 + len(ref.rule_tokens(effect))
                                      + len(ref.rule_tokens(cause)))

    def run_op(self) -> tuple[int, int]:
        w = self.work
        coins("train-coins", "--nsc", w / "nsc" / "nsc.jsonl", "--glucose",
              w / "corpus" / "glucose.jsonl", "--vocab", w / "vocab" / "vocab.json",
              "--epochs", self.epochs, "--seed", self.seed, "--out", w / "models", "--force")
        self.ops_done += 1
        return self.epochs * self.n_items, self.epochs * self.epoch_tokens

    def check(self) -> list[str]:
        models = self.work / "models"
        bad = ref.check_finite(models)
        if bad:
            return bad
        lm = ref.ReferenceLm(models, "sentence")
        return ref.check_nll(lm, self.vocab(), self.examples(), self.gold(), self.nll_share)


# the acceptance gate's memorization settings; dropout off so the models
# can reproduce their corpus exactly
MEMORIZE_CONFIG = {
    "model": {"layers": 2, "hidden": 64, "heads": 2, "max_positions": 160, "dropout_p": 0.0},
    "train": {"batch_size": 8, "epochs": 400, "learning_rate": 2e-3,
              "target_nll": 0.004, "max_steps": 2000},
}


class Memorized(Workload):
    """Set-up shared by the decoding workloads: a 32-story corpus and
    models trained until they reproduce it."""

    n_stories = 32
    chunk: int  # examples per operation
    train_command = "train-coins"

    def setup(self) -> None:
        w = self.work
        make_corpus(w, self.n_stories, self.seed)
        config = w / "memorize.json"
        config.write_text(json.dumps(MEMORIZE_CONFIG))
        coins(self.train_command, "--nsc", w / "nsc" / "nsc.jsonl", "--glucose",
              w / "corpus" / "glucose.jsonl", "--vocab", w / "vocab" / "vocab.json",
              "--config", config, "--seed", self.seed, "--out", w / "models")
        self.chunks = split_chunks(w / "nsc" / "nsc.jsonl", w / "chunks", self.chunk)

    def next_chunk(self) -> tuple[Path, Path]:
        chunk = self.chunks[self.ops_done % len(self.chunks)]
        self.ops_done += 1
        self.runs += 1
        return chunk, self.work / "out" / f"run{self.runs:05d}"


class CompleteBeam5(Memorized):
    """complete --mode full --beam 5, one story per operation."""

    chunk = 1
    trace_ops = 4
    max_misses = 2  # the gate's memorization bar: 30 of 32 stories exact

    def run_op(self) -> tuple[int, int]:
        chunk, out = self.next_chunk()
        coins("complete", "--nsc", chunk, "--models", self.work / "models", "--mode", "full",
              "--beam", 5, "--out", out)
        rows = ref.read_jsonl(out / "completions.jsonl")
        tokens = sum(len(ref.tokenize(s)) + 1 for row in rows for s in row["sentences"])
        return len(rows), tokens

    def outputs(self) -> tuple[list[dict], list[dict]]:
        rows, traces = [], []
        for out in sorted((self.work / "out").iterdir()):
            rows += ref.read_jsonl(out / "completions.jsonl")
            for line in ref.read_jsonl(out / "trace.jsonl"):
                if "example_id" in line:
                    traces.append({**line, "records": []})
                else:
                    traces[-1]["records"].append(line)
        return rows, traces

    def check(self) -> list[str]:
        rows, traces = self.outputs()
        examples = {ex["id"]: ex for ex in self.examples()}
        # a story completed twice counts once towards the gold bar
        unique = list({row["id"]: row for row in rows}.values())
        bad = ref.check_completions(unique, traces, examples, self.max_misses)
        lm = ref.ReferenceLm(self.work / "models", "sentence")
        return bad + ref.check_scores(lm, self.vocab(), traces)


class EnrichGreedy(Memorized):
    """enrich --beam 1 over four examples per operation, with a rule
    model trained alone (train-csi), as the enrichment pipeline does."""

    chunk = 4
    train_command = "train-csi"
    trace_ops = 8
    max_misses = 2  # as for completion: 30 of 32 examples exact

    def run_op(self) -> tuple[int, int]:
        chunk, out = self.next_chunk()
        coins("enrich", "--nsc", chunk, "--csi", self.work / "models", "--beam", 1, "--out", out)
        rows = ref.read_jsonl(out / "nsc.jsonl")
        tokens = sum(len(ref.rule_tokens(rules)) for ex in rows
                     for _, rules, _ in ref.enriched_decodes(ex))
        return len(rows), tokens

    def outputs(self) -> list[dict]:
        return [ex for out in sorted((self.work / "out").iterdir())
                for ex in ref.read_jsonl(out / "nsc.jsonl")]

    def check(self) -> list[str]:
        enriched = list({ex["id"]: ex for ex in self.outputs()}.values())
        lm = ref.ReferenceLm(self.work / "models", "csi")
        return (ref.check_gold_rules(enriched, self.gold(), self.max_misses)
                + ref.check_greedy(lm, self.vocab(), enriched))


WORKLOADS = {"joint_train": JointTrain, "complete_beam5": CompleteBeam5,
             "enrich_greedy": EnrichGreedy}
