import json
import re

import pytest
from click.testing import CliRunner

from coins.cli import main
from coins.metrics import MetricReport


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "model": {"max_positions": 160, "dropout_p": 0.0},
        "train": {"learning_rate": 2e-3, "target_nll": 0.01, "epochs": 150},
    }))

    def run(*args):
        result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    run("synth-corpus", "--out", root / "corpus", "--stories", 8, "--seed", 3)
    run("build-nsc", "--stories", root / "corpus/stories.jsonl", "--out", root / "nsc")
    run("build-seg", "--stories", root / "corpus/stories.jsonl", "--out", root / "seg")
    run("train-vocab", "--inputs", root / "corpus/stories.jsonl",
        "--inputs", root / "corpus/glucose.jsonl", "--out", root / "vocab")
    run("train-coins", "--nsc", root / "nsc/nsc.jsonl", "--glucose", root / "corpus/glucose.jsonl",
        "--vocab", root / "vocab/vocab.json", "--config", cfg, "--out", root / "models")
    run("complete", "--nsc", root / "nsc/nsc.jsonl", "--models", root / "models",
        "--mode", "full", "--out", root / "run_full")
    run("evaluate", "--system", root / "run_full", "--gold", root / "nsc/nsc.jsonl",
        "--out", root / "eval")
    return root, runner, cfg


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_pipeline_artifacts_exist(pipeline):
    root, _, _ = pipeline
    for rel in [
        "corpus/stories.jsonl", "corpus/glucose.jsonl", "corpus/run_config.json",
        "nsc/nsc.jsonl", "vocab/vocab.json",
        "models/sentence.ckpt", "models/sentence.json", "models/csi.ckpt", "models/vocab.json",
        "run_full/completions.jsonl", "run_full/trace.jsonl", "run_full/summary.json",
        "run_full/completed_stories.jsonl",
        "eval/report.json",
    ]:
        assert (root / rel).exists(), rel


def test_every_artifact_dir_records_config_and_version(pipeline):
    root, _, _ = pipeline
    for d in ["corpus", "nsc", "seg", "vocab", "models", "run_full", "eval"]:
        payload = json.loads((root / d / "run_config.json").read_text())
        assert payload["tool"] == "coins"
        assert payload["version"]
        assert "config" in payload and "command" in payload


def test_completed_stories_reload_as_corpus(pipeline):
    from coins.data.corpus import read_stories

    root, _, _ = pipeline
    stories = read_stories(root / "run_full/completed_stories.jsonl")
    assert len(stories) == 8 and all(len(s) == 5 for s in stories)


def test_memorized_run_scores_perfect_bleu(pipeline):
    root, _, _ = pipeline
    report = MetricReport.from_json((root / "eval/report.json").read_text())
    assert report.metrics["bleu1"] == pytest.approx(1.0)
    assert report.metrics["rouge_l"] == pytest.approx(1.0)


def test_rerun_refused_without_force(pipeline):
    root, runner, _ = pipeline
    result = invoke(runner, "synth-corpus", "--out", root / "corpus", "--stories", 4)
    assert result.exit_code == 5
    result = invoke(runner, "synth-corpus", "--out", root / "corpus", "--stories", 8,
                    "--seed", 3, "--force")
    assert result.exit_code == 0


def test_missing_input_exit_code(pipeline):
    root, runner, _ = pipeline
    result = invoke(runner, "build-nsc", "--stories", root / "nope.jsonl", "--out", root / "x1")
    assert result.exit_code == 3
    assert "not found" in result.output


def test_schema_violation_exit_code(pipeline, tmp_path):
    root, runner, _ = pipeline
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "sentences": ["only one"]}\n')
    result = invoke(runner, "build-nsc", "--stories", bad, "--out", tmp_path / "x2")
    assert result.exit_code == 4


def test_oracle_without_silver_rules_is_schema_error(pipeline, tmp_path):
    root, runner, _ = pipeline
    result = invoke(runner, "complete", "--nsc", root / "nsc/nsc.jsonl", "--models", root / "models",
                    "--mode", "oracle", "--out", tmp_path / "x3")
    assert result.exit_code == 4
    assert "silver" in result.output


def test_config_error_exit_code(pipeline, tmp_path):
    root, runner, _ = pipeline
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text('{"train": {"warp_speed": 9}}')
    result = invoke(runner, "train-baseline", "--nsc", root / "nsc/nsc.jsonl",
                    "--vocab", root / "vocab/vocab.json", "--config", bad_cfg,
                    "--out", tmp_path / "x4")
    assert result.exit_code == 5
    assert "unknown keys" in result.output


def test_usage_error_exit_code(pipeline):
    _, runner, _ = pipeline
    result = invoke(runner, "complete", "--mode", "sideways")
    assert result.exit_code == 2


def test_enrich_then_oracle_complete(pipeline, tmp_path):
    root, runner, _ = pipeline
    r = invoke(runner, "enrich", "--nsc", root / "nsc/nsc.jsonl", "--csi", root / "models",
               "--out", tmp_path / "silver")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "complete", "--nsc", tmp_path / "silver/nsc.jsonl", "--models", root / "models",
               "--mode", "oracle", "--out", tmp_path / "run_oracle")
    assert r.exit_code == 0, r.output
    rows = [json.loads(l) for l in (tmp_path / "run_oracle/completions.jsonl").read_text().splitlines()]
    assert len(rows) == 8 and all(len(r["sentences"]) == 2 for r in rows)


def test_seg_complete_and_evaluate(pipeline, tmp_path):
    root, runner, _ = pipeline
    r = invoke(runner, "complete", "--seg", root / "seg/seg.jsonl", "--models", root / "models",
               "--mode", "seg", "--out", tmp_path / "run_seg")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "evaluate", "--system", tmp_path / "run_seg", "--gold", root / "seg/seg.jsonl",
               "--out", tmp_path / "eval_seg")
    assert r.exit_code == 0, r.output
    report = MetricReport.from_json((tmp_path / "eval_seg/report.json").read_text())
    assert 0.0 <= report.metrics["bleu1"] <= 1.0


def test_train_coins_on_seg_corpus(pipeline, tmp_path):
    root, runner, cfg = pipeline
    r = invoke(runner, "train-coins", "--seg", root / "seg/seg.jsonl",
               "--glucose", root / "corpus/glucose.jsonl", "--vocab", root / "vocab/vocab.json",
               "--config", cfg, "--out", tmp_path / "seg_models")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "complete", "--seg", root / "seg/seg.jsonl",
               "--models", tmp_path / "seg_models", "--mode", "seg", "--out", tmp_path / "run")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "evaluate", "--system", tmp_path / "run", "--gold", root / "seg/seg.jsonl",
               "--out", tmp_path / "eval")
    assert r.exit_code == 0, r.output
    report = MetricReport.from_json((tmp_path / "eval/report.json").read_text())
    assert report.metrics["bleu1"] > 0.9  # memorized endings


def test_train_coins_requires_one_corpus(pipeline, tmp_path):
    root, runner, _ = pipeline
    r = invoke(runner, "train-coins", "--vocab", root / "vocab/vocab.json",
               "--out", tmp_path / "x5")
    assert r.exit_code == 5


def test_train_coins_dynamic_rules_flag(pipeline, tmp_path):
    root, runner, _ = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"max_positions": 160, "dropout_p": 0.0},
        "train": {"learning_rate": 2e-3, "epochs": 2, "max_steps": 4},
    }))
    r = invoke(runner, "train-coins", "--nsc", root / "nsc/nsc.jsonl",
               "--glucose", root / "corpus/glucose.jsonl", "--vocab", root / "vocab/vocab.json",
               "--config", cfg, "--dynamic-rules", "--out", tmp_path / "dyn")
    assert r.exit_code == 0, r.output
    payload = json.loads((tmp_path / "dyn/run_config.json").read_text())
    assert payload["config"]["dynamic_rules"] is True


def test_train_baseline_and_complete(pipeline, tmp_path):
    root, runner, cfg = pipeline
    r = invoke(runner, "train-baseline", "--nsc", root / "nsc/nsc.jsonl",
               "--vocab", root / "vocab/vocab.json", "--config", cfg,
               "--out", tmp_path / "base")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "complete", "--nsc", root / "nsc/nsc.jsonl", "--models", tmp_path / "base",
               "--mode", "full", "--out", tmp_path / "run_base")
    assert r.exit_code == 0, r.output
    rows = [json.loads(l) for l in (tmp_path / "run_base/completions.jsonl").read_text().splitlines()]
    assert all(r["mode"] == "baseline" for r in rows)


def test_train_csi_standalone(pipeline, tmp_path):
    root, runner, cfg = pipeline
    r = invoke(runner, "train-csi", "--nsc", root / "nsc/nsc.jsonl",
               "--glucose", root / "corpus/glucose.jsonl", "--vocab", root / "vocab/vocab.json",
               "--config", cfg, "--flavor", "gr", "--out", tmp_path / "csi")
    assert r.exit_code == 0, r.output
    sidecar = json.loads((tmp_path / "csi/csi.json").read_text())
    assert sidecar["model_role"] == "csi_gen"
    # two-stage fine-tune: rule checkpoint warm-starts the task baseline
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps({"model": {"max_positions": 160, "dropout_p": 0.0},
                                 "train": {"learning_rate": 2e-3, "epochs": 2}}))
    r = invoke(runner, "train-baseline", "--nsc", root / "nsc/nsc.jsonl",
               "--vocab", root / "vocab/vocab.json", "--init-from", tmp_path / "csi",
               "--config", quick, "--out", tmp_path / "two_stage")
    assert r.exit_code == 0, r.output
    assert json.loads((tmp_path / "two_stage/baseline.json").read_text())["model_role"] == "baseline"


def test_import_glucose_tsv(pipeline, tmp_path):
    _, runner, _ = pipeline
    src = tmp_path / "rules.tsv"
    src.write_text("s1\t2\t6\ta >Enables> b\tA >Enables> B\n")
    r = invoke(runner, "import-glucose", "--rules", src, "--format", "tsv",
               "--out", tmp_path / "imported")
    assert r.exit_code == 0, r.output
    assert (tmp_path / "imported/glucose.jsonl").exists()


def test_inspect_trace_filters(pipeline):
    root, runner, _ = pipeline
    r = invoke(runner, "inspect-trace", "--run", root / "run_full", "--iteration", 2)
    assert r.exit_code == 0
    assert "iteration 2" in r.output and "iteration 1" not in r.output
    r = invoke(runner, "inspect-trace", "--run", root / "run_full", "--example", "does-not-exist")
    assert r.exit_code == 4


@pytest.mark.parametrize("command", ["train-coins", "train-csi", "train-baseline"])
def test_overlong_sequences_are_config_errors(tmp_path, command):
    runner = CliRunner()
    corpus, nsc, vocab = tmp_path / "corpus", tmp_path / "nsc", tmp_path / "vocab"
    for args in (
        ["synth-corpus", "--out", corpus, "--stories", 4],
        ["build-nsc", "--stories", corpus / "stories.jsonl", "--out", nsc],
        ["train-vocab", "--inputs", corpus / "stories.jsonl", "--inputs", corpus / "glucose.jsonl",
         "--out", vocab],
    ):
        assert invoke(runner, *args).exit_code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"max_positions": 16}}))
    inputs = ["--nsc", nsc / "nsc.jsonl", "--vocab", vocab / "vocab.json"]
    if command != "train-baseline":
        inputs += ["--glucose", corpus / "glucose.jsonl"]
    r = invoke(runner, command, *inputs, "--config", cfg, "--out", tmp_path / "out")
    assert r.exit_code == 5, r.output
    assert re.search(r"length \d+ exceeds max_positions 16", r.output), r.output
    assert not (tmp_path / "out" / "run_config.json").exists()
