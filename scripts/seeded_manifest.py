#!/usr/bin/env python3
"""Seeded pipeline run whose outputs are fingerprinted for byte-identity checks.

Runs acceptance criterion 10's 8-story seeded pipeline (synth-corpus,
build-nsc, train-vocab, train-coins, complete --mode full, evaluate).
Then, on models trained for 150 epochs so that their decodes are many
tokens long, it runs train-coins, train-csi, enrich at beam 1 and beam
3, train-baseline, and complete in full, baseline, oracle and seg modes,
each evaluated. Every output file under DIR is listed in
DIR/manifest.json with its SHA-256; run_config.json is left out because
it records paths. A run takes about 30 s on two CPUs.

Two checkouts give the same program output exactly when their manifests
are equal:

    python3 scripts/seeded_manifest.py --out /tmp/a
    (other checkout) python3 scripts/seeded_manifest.py --out /tmp/b
    diff /tmp/a/manifest.json /tmp/b/manifest.json

The program is imported from src/ of the checkout the script sits in.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from coins.cli import main as cli  # noqa: E402

# criterion 10's configuration (tests/test_acceptance.py::_run_pipeline_in)
CONFIG = {
    "model": {"max_positions": 160},
    "train": {"learning_rate": 2e-3, "epochs": 12, "seed": 5},
}
# the other models train longer, so that their decodes run many steps
# before they stop instead of ending at the first token
LONG_CONFIG = {
    "model": {"max_positions": 160},
    "train": {"learning_rate": 2e-3, "epochs": 150, "seed": 5},
}
STEPS = [
    ["synth-corpus", "--out", "corpus", "--stories", 8, "--seed", 3],
    ["build-nsc", "--stories", "corpus/stories.jsonl", "--out", "nsc"],
    ["build-seg", "--stories", "corpus/stories.jsonl", "--out", "seg"],
    ["train-vocab", "--inputs", "corpus/stories.jsonl", "--inputs", "corpus/glucose.jsonl",
     "--out", "vocab"],
    ["train-coins", "--nsc", "nsc/nsc.jsonl", "--glucose", "corpus/glucose.jsonl",
     "--vocab", "vocab/vocab.json", "--config", "config.json", "--out", "models"],
    ["complete", "--nsc", "nsc/nsc.jsonl", "--models", "models", "--mode", "full", "--out", "run"],
    ["evaluate", "--system", "run", "--gold", "nsc/nsc.jsonl", "--out", "eval"],
    ["train-coins", "--nsc", "nsc/nsc.jsonl", "--glucose", "corpus/glucose.jsonl",
     "--vocab", "vocab/vocab.json", "--config", "long.json", "--out", "models_long"],
    ["train-csi", "--nsc", "nsc/nsc.jsonl", "--glucose", "corpus/glucose.jsonl",
     "--vocab", "vocab/vocab.json", "--config", "long.json", "--out", "csi"],
    ["enrich", "--nsc", "nsc/nsc.jsonl", "--csi", "csi", "--beam", 1, "--out", "silver_b1"],
    ["enrich", "--nsc", "nsc/nsc.jsonl", "--csi", "csi", "--beam", 3, "--out", "silver_b3"],
    ["train-baseline", "--nsc", "nsc/nsc.jsonl", "--vocab", "vocab/vocab.json",
     "--config", "long.json", "--out", "baseline"],
    ["complete", "--nsc", "nsc/nsc.jsonl", "--models", "baseline", "--mode", "full",
     "--out", "run_baseline"],
    ["complete", "--nsc", "silver_b3/nsc.jsonl", "--models", "models_long", "--mode", "oracle",
     "--out", "run_oracle"],
    ["complete", "--seg", "seg/seg.jsonl", "--models", "models_long", "--mode", "seg",
     "--out", "run_seg"],
    ["complete", "--nsc", "nsc/nsc.jsonl", "--models", "models_long", "--mode", "full",
     "--out", "run_long"],
    ["evaluate", "--system", "run_baseline", "--system", "run_oracle", "--system", "run_long",
     "--gold", "nsc/nsc.jsonl", "--ppl-model", "models_long", "--out", "eval_nsc"],
    ["evaluate", "--system", "run_seg", "--gold", "seg/seg.jsonl", "--out", "eval_seg"],
]
SKIPPED = {"run_config.json", "manifest.json", "config.json", "long.json"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="Work directory; emptied first.")
    args = ap.parse_args()

    root = Path(args.out).resolve()
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    os.chdir(root)  # relative paths, so no output records where the run was made
    Path("config.json").write_text(json.dumps(CONFIG))
    Path("long.json").write_text(json.dumps(LONG_CONFIG))
    runner = CliRunner()
    t0 = time.time()
    for step in STEPS:
        result = runner.invoke(cli, [str(a) for a in step], catch_exceptions=False)
        if result.exit_code != 0:
            print(result.output, file=sys.stderr)
            print(f"step failed (exit {result.exit_code}): coins {' '.join(map(str, step))}",
                  file=sys.stderr)
            return result.exit_code
    manifest = {str(p): sha256(p) for p in sorted(Path(".").rglob("*"))
                if p.is_file() and p.name not in SKIPPED}
    Path("manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest)} files in {root / 'manifest.json'} ({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
