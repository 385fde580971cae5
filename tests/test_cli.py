import json
import re
import shutil

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
    history = json.loads((tmp_path / "base/history.json").read_text())
    assert history.keys() == json.loads((root / "models/history.json").read_text()).keys()
    assert len(history["epoch_nll"]) == len(history["epoch_loss"]) > 0
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


@pytest.mark.parametrize("line", [
    '{"id": "a", "text": ',
    '{"text": "no id"}',
    '{"id": "a"}',
], ids=["truncated-json", "no-id", "no-text"])
def test_malformed_completions_are_schema_errors(pipeline, tmp_path, line):
    root, runner, _ = pipeline
    run = tmp_path / "run"
    run.mkdir()
    (run / "completions.jsonl").write_text(line + "\n")
    r = invoke(runner, "evaluate", "--system", run, "--gold", root / "nsc/nsc.jsonl",
               "--out", tmp_path / "eval")
    assert r.exit_code == 4, r.output
    assert "error:" in r.output and "completions.jsonl:1" in r.output
    assert not (tmp_path / "eval" / "run_config.json").exists()


def test_malformed_gold_is_schema_error(pipeline, tmp_path):
    root, runner, _ = pipeline
    gold = tmp_path / "gold.jsonl"
    gold.write_text("not json\n")
    r = invoke(runner, "evaluate", "--system", root / "run_full", "--gold", gold,
               "--out", tmp_path / "eval")
    assert r.exit_code == 4, r.output
    assert "error:" in r.output


@pytest.mark.parametrize("text", [
    '{"example_id": "a", "mode": "full"}\n{"iteration": 1,\n',
    '{"iteration": 1, "effect_rules": [], "cause_rules": [], "sentence_input": "x", '
    '"sentence": "y", "sentence_score": 0.0}\n',
    '{"example_id": "a", "mode": "full"}\n{"iteration": 1}\n',
], ids=["truncated-record", "no-header", "missing-fields"])
def test_malformed_trace_is_schema_error(pipeline, tmp_path, text):
    _, runner, _ = pipeline
    (tmp_path / "trace.jsonl").write_text(text)
    r = invoke(runner, "inspect-trace", "--run", tmp_path)
    assert r.exit_code == 4, r.output
    assert "error:" in r.output and "trace.jsonl" in r.output


def test_init_from_refusals_leave_no_run_dir(pipeline, tmp_path):
    root, runner, cfg = pipeline
    args = ["train-baseline", "--nsc", root / "nsc/nsc.jsonl", "--vocab", root / "vocab/vocab.json"]
    r = invoke(runner, *args, "--init-from", tmp_path / "nowhere", "--config", cfg,
               "--out", tmp_path / "missing")
    assert r.exit_code == 3, r.output
    assert not (tmp_path / "missing" / "run_config.json").exists()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"model": {"max_positions": 160, "hidden": 32}}))
    r = invoke(runner, *args, "--init-from", root / "models", "--config", other,
               "--out", tmp_path / "mismatch")
    assert r.exit_code == 5, r.output
    assert "architecture" in r.output
    assert not (tmp_path / "mismatch" / "run_config.json").exists()


def test_silver_dynamic_rules_without_glucose_leaves_no_run_dir(pipeline, tmp_path):
    root, runner, cfg = pipeline
    r = invoke(runner, "enrich", "--nsc", root / "nsc/nsc.jsonl", "--csi", root / "models",
               "--max-rule-tokens", 8, "--out", tmp_path / "silver")
    assert r.exit_code == 0, r.output
    r = invoke(runner, "train-coins", "--nsc", tmp_path / "silver/nsc.jsonl",
               "--vocab", root / "vocab/vocab.json", "--config", cfg, "--dynamic-rules",
               "--out", tmp_path / "dyn")
    assert r.exit_code == 5, r.output
    assert "--glucose" in r.output
    assert not (tmp_path / "dyn" / "run_config.json").exists()


def copy_models(root, dst, skip=()):
    dst.mkdir()
    for f in (root / "models").iterdir():
        if f.name not in skip:
            shutil.copy(f, dst / f.name)
    return dst


@pytest.mark.parametrize("mode", ["full", "ir_only", "ir_wo_se", "seg"])
def test_complete_without_rule_model_leaves_no_run_dir(pipeline, tmp_path, mode):
    root, runner, _ = pipeline
    models = copy_models(root, tmp_path / "models", skip=("csi.ckpt", "csi.json"))
    corpus = ["--seg", root / "seg/seg.jsonl"] if mode == "seg" else ["--nsc", root / "nsc/nsc.jsonl"]
    r = invoke(runner, "complete", *corpus, "--models", models, "--mode", mode, "--beam", 1,
               "--out", tmp_path / "run")
    assert r.exit_code == 4, r.output
    assert not (tmp_path / "run" / "run_config.json").exists()
    assert "csi.ckpt" in r.output


@pytest.mark.parametrize("damage", ["truncated-ckpt", "trailing-bytes", "sidecar-json",
                                    "sidecar-no-config"])
def test_damaged_checkpoint_is_schema_error(pipeline, tmp_path, damage):
    root, runner, _ = pipeline
    models = copy_models(root, tmp_path / "models")
    ckpt, sidecar = models / "sentence.ckpt", models / "sentence.json"
    if damage == "truncated-ckpt":
        ckpt.write_bytes(ckpt.read_bytes()[:-7])
    elif damage == "trailing-bytes":
        ckpt.write_bytes(ckpt.read_bytes() + b"\0\0\0\0")
    elif damage == "sidecar-json":
        sidecar.write_text(sidecar.read_text()[:-10])
    else:
        sidecar.write_text(json.dumps({"model_role": "sentence"}))
    r = invoke(runner, "complete", "--nsc", root / "nsc/nsc.jsonl", "--models", models,
               "--mode", "full", "--beam", 1, "--out", tmp_path / "run")
    assert r.exit_code == 4, r.output
    assert "error:" in r.output and "sentence." in r.output
    assert not (tmp_path / "run" / "run_config.json").exists()


def test_dynamic_rules_overlong_decodes_are_config_errors(pipeline, tmp_path):
    # max_positions fits every gold sequence exactly; the untrained rule
    # model's decodes make the rebuilt sentence inputs longer than that
    from coins.data.corpus import read_glucose, read_nsc
    from coins.data.types import Flavor
    from coins.train import build_joint_items
    from coins.vocab import Vocab

    root, runner, _ = pipeline
    items = build_joint_items(read_nsc(root / "nsc/nsc.jsonl"), Vocab.load(root / "vocab/vocab.json"),
                              Flavor.GENERAL, read_glucose(root / "corpus/glucose.jsonl"))
    longest = max(len(seq.ids) - 1 for item in items for _, seq in item.terms)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"max_positions": longest, "dropout_p": 0.0},
                               "train": {"epochs": 1}}))
    r = invoke(runner, "train-coins", "--nsc", root / "nsc/nsc.jsonl",
               "--glucose", root / "corpus/glucose.jsonl", "--vocab", root / "vocab/vocab.json",
               "--config", cfg, "--dynamic-rules", "--out", tmp_path / "dyn")
    assert r.exit_code == 5, r.output
    assert re.search(rf"length \d+ exceeds max_positions {longest}", r.output), r.output


def test_history_records_grad_norm_and_clip_rate(pipeline):
    root, _, _ = pipeline
    history = json.loads((root / "models/history.json").read_text())
    epochs = len(history["epoch_nll"])
    assert len(history["grad_norm"]) == len(history["clip_rate"]) == epochs > 0
    for norms, rates in zip(history["grad_norm"], history["clip_rate"]):
        assert len(norms) == len(rates) == 2  # sentence model, rule model
        assert all(n > 0 for n in norms) and all(0.0 <= r <= 1.0 for r in rates)
    assert history["clip_rate"][0] == [1.0, 1.0]  # a fresh model's first steps are clipped
