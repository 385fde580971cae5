"""Command-line pipeline: corpus building, vocab and model training,
silver enrichment, recursive completion, and evaluation.

Every subcommand writes into an output directory that receives the
resolved run configuration (run_config.json) next to its artifacts;
reruns into the same directory are refused unless --force is given.
Inputs are read and checked before the directory is made, so a refused
command leaves nothing behind.
Exit codes: 0 success, 2 usage, 3 missing input, 4 schema violation,
5 configuration error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, files
from .controller import (
    CoinsModels,
    complete_baseline,
    default_controller_config,
    run_ablation,
    run_seg,
)
from .data.corpus import (
    build_nsc_corpus,
    build_seg_corpus,
    corpus_text_lines,
    import_glucose_delimited,
    read_glucose,
    read_jsonl,
    read_nsc,
    read_seg,
    read_stories,
    require,
    write_glucose,
    write_jsonl,
    write_nsc,
    write_seg,
    write_stories,
)
from .data.serialize import FIELD_SEP, MODE_NO_IR_WO_SE, MODE_ORACLE, MODE_SEG
from .data.silver import enrich_with_silver
from .data.types import Flavor, initial_state
from .data import synthetic
from .decode import DecodeConfig
from .errors import CoinsError, ConfigError, MissingInputError, SchemaError
from .metrics import RatingMatrix, evaluate_corpus, fleiss_kappa
from .model import Lm, LmConfig, Term, init_lm, load_model, save_model
from .train import (
    TrainConfig,
    TrainHistory,
    build_baseline_seqs,
    build_joint_items,
    build_rule_seqs,
    build_seg_items,
    check_lengths,
    corpus_nll,
    decoded_rule_items,
    train_models,
)
from .vocab import Vocab, train_vocab

log = logging.getLogger("coins")

FLAVOR_ROLE = {Flavor.GENERAL: "csi_gen", Flavor.SPECIFIC: "csi_spec"}


def _fail(err: CoinsError) -> None:
    click.echo(f"error: {err}", err=True)
    sys.exit(err.exit_code)


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CoinsError as e:
            _fail(e)

    return inner


def _require_file(path: str | Path) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"input not found: {p}")
    return p


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = _require_file(path)
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid config JSON ({e.msg})") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return cfg


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    section = cfg.get(name, {})
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown keys {sorted(unknown)}")
    return dict(section)


def _model_config(vocab_size: int, cfg: dict) -> LmConfig:
    fields = {f.name for f in dataclasses.fields(LmConfig)} - {"vocab"}
    return LmConfig(vocab=vocab_size, **_section(cfg, "model", fields))


def _train_config(cfg: dict, **overrides) -> TrainConfig:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    merged = _section(cfg, "train", fields)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig(**merged)


def _prepare_out(out: str, command: str, resolved: dict, force: bool) -> Path:
    out_dir = Path(out)
    marker = out_dir / "run_config.json"
    if marker.exists() and not force:
        raise ConfigError(f"{out_dir} already holds a run (use --force to overwrite)")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"tool": "coins", "version": __version__, "command": command, "config": resolved}
    files.write_text(marker, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_dir


def _flavor(value: str) -> Flavor:
    return Flavor.GENERAL if value == "gr" else Flavor.SPECIFIC


def _load_vocab(path: str) -> Vocab:
    return Vocab.load(_require_file(path))


def _train_and_save(out: str, command: str, resolved: dict, force: bool, vocab_path: str,
                    models: list[tuple[str, Lm]], items: list[list[Term]], tcfg: TrainConfig,
                    refresh_items=None) -> TrainHistory:
    """The tail of every training command: refuse overlong sequences, make
    the run directory, train, then save each named model, the vocabulary
    and history.json. Items that ``refresh_items`` rebuilds during training
    are checked too."""

    def checked(items: list[list[Term]]) -> list[list[Term]]:
        for k, (_, lm) in enumerate(models):
            check_lengths((seq for terms in items for i, seq in terms if i == k), lm.config)
        return items

    checked(items)
    out_dir = _prepare_out(out, command, resolved, force)
    refresh = None if refresh_items is None else lambda epoch: checked(refresh_items(epoch))
    hist = train_models([(lm.params, lm.config) for _, lm in models], items, tcfg,
                        refresh_items=refresh)
    for name, lm in models:
        save_model(out_dir, lm, name=name)
    with files.atomic_open(out_dir / "vocab.json", "wb") as f:
        f.write(Path(vocab_path).read_bytes())
    files.write_text(out_dir / "history.json", json.dumps(
        {"epoch_nll": hist.epoch_nll, "epoch_loss": hist.epoch_loss, "steps": hist.steps,
         "grad_norm": hist.grad_norm, "clip_rate": hist.clip_rate},
        indent=2) + "\n")
    return hist


@click.group()
@click.version_option(__version__, prog_name="coins")
@click.option("--verbose", is_flag=True, help="Log progress to stderr.")
def main(verbose):
    """Recursive story completion: rules first, then sentences."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command("synth-corpus")
@click.option("--out", required=True, help="Output directory.")
@click.option("--stories", "n_stories", type=int, default=64, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def synth_corpus(out, n_stories, seed, force):
    """Generate the bundled template corpus with gold rules."""
    out_dir = _prepare_out(out, "synth-corpus", {"stories": n_stories, "seed": seed}, force)
    stories, records = synthetic.generate(n_stories, seed=seed)
    write_stories(out_dir / "stories.jsonl", stories)
    write_glucose(out_dir / "glucose.jsonl", records)
    click.echo(f"wrote {len(stories)} stories and {len(records)} rules to {out_dir}")


@main.command("import-glucose")
@click.option("--rules", "rules_path", required=True, help="Source rules (JSONL or delimited).")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "tsv", "csv"]), default="jsonl",
              show_default=True)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def import_glucose(rules_path, fmt, out, force):
    """Normalize third-party rule annotations into the canonical JSONL."""
    src = _require_file(rules_path)
    out_dir = _prepare_out(out, "import-glucose", {"rules": str(src), "format": fmt}, force)
    if fmt == "jsonl":
        records = read_glucose(src)
    else:
        records = import_glucose_delimited(src, delimiter="\t" if fmt == "tsv" else ",")
    write_glucose(out_dir / "glucose.jsonl", records)
    click.echo(f"imported {len(records)} rules")


@main.command("build-nsc")
@click.option("--stories", "stories_path", required=True)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def build_nsc_cmd(stories_path, out, force):
    """Beginning + ending as context, middles as targets."""
    stories = read_stories(_require_file(stories_path))
    out_dir = _prepare_out(out, "build-nsc", {"stories": str(stories_path)}, force)
    examples = build_nsc_corpus(stories)
    write_nsc(out_dir / "nsc.jsonl", examples)
    click.echo(f"built {len(examples)} examples from {len(stories)} stories")


@main.command("build-seg")
@click.option("--stories", "stories_path", required=True)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def build_seg_cmd(stories_path, out, force):
    """Four context sentences, gold fifth as target."""
    stories = read_stories(_require_file(stories_path))
    out_dir = _prepare_out(out, "build-seg", {"stories": str(stories_path)}, force)
    examples = build_seg_corpus(stories)
    write_seg(out_dir / "seg.jsonl", examples)
    click.echo(f"built {len(examples)} examples from {len(stories)} stories")


@main.command("train-vocab")
@click.option("--inputs", multiple=True, required=True,
              help="Corpus files (stories/nsc/seg/glucose JSONL); repeatable.")
@click.option("--out", required=True)
@click.option("--max-size", type=int, default=8192, show_default=True)
@click.option("--min-freq", type=int, default=1, show_default=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def train_vocab_cmd(inputs, out, max_size, min_freq, force):
    """Build the shared vocabulary over every text field of the inputs."""
    lines: list[str] = []
    for path in inputs:
        lines.extend(corpus_text_lines(_require_file(path)))
    lines.append(FIELD_SEP)  # the serialization delimiter must be in-vocab
    out_dir = _prepare_out(
        out, "train-vocab",
        {"inputs": [str(i) for i in inputs], "max_size": max_size, "min_freq": min_freq},
        force,
    )
    vocab = train_vocab(lines, max_size=max_size, min_freq=min_freq)
    vocab.save(out_dir / "vocab.json")
    click.echo(f"vocabulary of {len(vocab)} tokens")


@main.command("train-csi")
@click.option("--nsc", "nsc_path", required=True)
@click.option("--glucose", "glucose_path", required=True)
@click.option("--vocab", "vocab_path", required=True)
@click.option("--flavor", type=click.Choice(["gr", "sr"]), default="gr", show_default=True)
@click.option("--config", "config_path", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def train_csi(nsc_path, glucose_path, vocab_path, flavor, config_path, seed, epochs, out, force):
    """Train the inference-rule generator on gold annotations."""
    cfg_file = _load_config_file(config_path)
    vocab = _load_vocab(vocab_path)
    flav = _flavor(flavor)
    examples = read_nsc(_require_file(nsc_path), flav)
    records = read_glucose(_require_file(glucose_path))
    tcfg = _train_config(cfg_file, seed=seed, epochs=epochs)
    mcfg = _model_config(len(vocab), cfg_file)
    resolved = {"nsc": str(nsc_path), "glucose": str(glucose_path), "flavor": flavor,
                "train": tcfg.to_json(), "model": mcfg.to_json()}
    csi = Lm(init_lm(mcfg, np.random.default_rng(tcfg.seed)), mcfg, FLAVOR_ROLE[flav])
    items = [[(0, seq)] for seq in build_rule_seqs(examples, vocab, flav, records)]
    hist = _train_and_save(out, "train-csi", resolved, force, vocab_path, [("csi", csi)], items, tcfg)
    click.echo(f"trained rule model: {hist.steps} steps, final nll/token {hist.epoch_nll[-1]:.4f}")


@main.command("enrich")
@click.option("--nsc", "nsc_path", required=True)
@click.option("--csi", "csi_dir", required=True, help="Directory holding csi.ckpt.")
@click.option("--beam", type=int, default=1, show_default=True,
              help="1 decodes greedily; higher switches to beam search.")
@click.option("--max-rule-tokens", type=int, default=48, show_default=True)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def enrich(nsc_path, csi_dir, beam, max_rule_tokens, out, force):
    """Precompute silver rules for every example and iteration."""
    _require_file(Path(csi_dir) / "csi.ckpt")
    csi = load_model(csi_dir, name="csi")
    vocab = Vocab.load(_require_file(Path(csi_dir) / "vocab.json"))
    flav = Flavor.GENERAL if csi.role == "csi_gen" else Flavor.SPECIFIC
    examples = read_nsc(_require_file(nsc_path), flav)
    out_dir = _prepare_out(out, "enrich", {"nsc": str(nsc_path), "csi": str(csi_dir),
                                           "beam": beam, "max_rule_tokens": max_rule_tokens}, force)
    cfg = DecodeConfig(beam_width=beam, max_new_tokens=max_rule_tokens, stop_token=vocab.eos)
    enriched = enrich_with_silver(csi, examples, vocab, flav, decode_cfg=cfg)
    write_nsc(out_dir / "nsc.jsonl", enriched)
    click.echo(f"enriched {len(enriched)} examples")


@main.command("train-coins")
@click.option("--nsc", "nsc_path", default=None)
@click.option("--seg", "seg_path", default=None,
              help="Train for ending generation instead (one Effect-only iteration).")
@click.option("--glucose", "glucose_path", default=None)
@click.option("--vocab", "vocab_path", required=True)
@click.option("--flavor", type=click.Choice(["gr", "sr"]), default="gr", show_default=True)
@click.option("--rules", type=click.Choice(["auto", "gold", "silver"]), default="auto",
              show_default=True, help="Teacher-forcing rule source.")
@click.option("--ablation-mix", type=float, default=0.0, show_default=True,
              help="Fraction of extra reduced-input sentence examples.")
@click.option("--dynamic-rules", is_flag=True,
              help="Condition the sentence model on the rule model's own decodes, "
                   "refreshed each epoch (no gradient across the token boundary).")
@click.option("--config", "config_path", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def train_coins(nsc_path, seg_path, glucose_path, vocab_path, flavor, rules, ablation_mix,
                dynamic_rules, config_path, seed, epochs, out, force):
    """Jointly train the sentence generator and the rule generator."""
    cfg_file = _load_config_file(config_path)
    vocab = _load_vocab(vocab_path)
    flav = _flavor(flavor)
    if (nsc_path is None) == (seg_path is None):
        raise ConfigError("pass exactly one of --nsc or --seg")
    records = read_glucose(_require_file(glucose_path)) if glucose_path else None
    tcfg = _train_config(cfg_file, seed=seed, epochs=epochs)
    mcfg = _model_config(len(vocab), cfg_file)

    if seg_path is not None:
        if records is None:
            raise ConfigError("ending-generation training needs --glucose")
        if dynamic_rules:
            raise ConfigError("--dynamic-rules applies to NSC training only")
        segs = read_seg(_require_file(seg_path))
        use_silver = False
        items = build_seg_items(segs, vocab, flav, records)
    else:
        examples = read_nsc(_require_file(nsc_path), flav)
        use_silver = rules == "silver" or (rules == "auto" and all(ex.silver_rules for ex in examples))
        if not use_silver and records is None:
            raise ConfigError("gold training needs --glucose (or silver rules in the corpus)")
        if dynamic_rules and records is None:
            raise ConfigError("--dynamic-rules needs --glucose for the rule targets")
        items = build_joint_items(
            examples, vocab, flav, records, use_silver=use_silver,
            ablation_mix=ablation_mix, rng=np.random.default_rng(tcfg.seed + 1),
        )
    theta = Lm(init_lm(mcfg, np.random.default_rng(tcfg.seed)), mcfg, "sentence")
    beta = Lm(init_lm(mcfg, np.random.default_rng(tcfg.seed + 7919)), mcfg, FLAVOR_ROLE[flav])
    refresh = None
    if dynamic_rules:
        refresh = lambda epoch: [
            item.terms for item in decoded_rule_items(examples, vocab, flav, records, beta.params, mcfg)
        ]
    resolved = {"nsc": nsc_path, "seg": seg_path, "glucose": glucose_path, "flavor": flavor,
                "rules": "silver" if use_silver else "gold", "ablation_mix": ablation_mix,
                "dynamic_rules": dynamic_rules, "train": tcfg.to_json(), "model": mcfg.to_json()}
    hist = _train_and_save(out, "train-coins", resolved, force, vocab_path,
                           [("sentence", theta), ("csi", beta)], [item.terms for item in items],
                           tcfg, refresh_items=refresh)
    click.echo(f"trained both models: {hist.steps} joint steps, final nll/token {hist.epoch_nll[-1]:.4f}")


@main.command("train-baseline")
@click.option("--nsc", "nsc_path", required=True)
@click.option("--vocab", "vocab_path", required=True)
@click.option("--init-from", "init_dir", default=None,
              help="Warm-start from a rule model directory (two-stage fine-tune baseline).")
@click.option("--config", "config_path", default=None)
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def train_baseline(nsc_path, vocab_path, init_dir, config_path, seed, epochs, out, force):
    """Train the rule-free single-model baseline."""
    cfg_file = _load_config_file(config_path)
    vocab = _load_vocab(vocab_path)
    examples = read_nsc(_require_file(nsc_path))
    tcfg = _train_config(cfg_file, seed=seed, epochs=epochs)
    mcfg = _model_config(len(vocab), cfg_file)
    if init_dir is not None:
        _require_file(Path(init_dir) / "csi.ckpt")
        warm = load_model(init_dir, name="csi")
        if warm.config != mcfg:
            raise ConfigError("--init-from checkpoint architecture does not match the model config")
        params = warm.params
    else:
        params = init_lm(mcfg, np.random.default_rng(tcfg.seed))
    resolved = {"nsc": str(nsc_path), "init_from": init_dir,
                "train": tcfg.to_json(), "model": mcfg.to_json()}
    items = [[(0, seq)] for seq in build_baseline_seqs(examples, vocab)]
    hist = _train_and_save(out, "train-baseline", resolved, force, vocab_path,
                           [("baseline", Lm(params, mcfg, "baseline"))], items, tcfg)
    click.echo(f"trained baseline: {hist.steps} steps, final nll/token {hist.epoch_nll[-1]:.4f}")


def _load_models(models_dir: Path) -> tuple[CoinsModels, Vocab, str]:
    vocab = Vocab.load(_require_file(models_dir / "vocab.json"))
    if (models_dir / "baseline.ckpt").exists():
        return CoinsModels(sentence=load_model(models_dir, "baseline")), vocab, "baseline"
    _require_file(models_dir / "sentence.ckpt")
    sentence = load_model(models_dir, "sentence")
    csi = load_model(models_dir, "csi") if (models_dir / "csi.ckpt").exists() else None
    return CoinsModels(sentence=sentence, csi=csi), vocab, "coins"


@main.command("complete")
@click.option("--nsc", "nsc_path", default=None, help="NSC corpus (all modes but seg).")
@click.option("--seg", "seg_path", default=None, help="SEG corpus (mode seg).")
@click.option("--models", "models_dir", required=True)
@click.option("--mode", type=click.Choice(["full", "oracle", "ir_only", "no_ir_wo_se", "ir_wo_se", "seg"]),
              default="full", show_default=True)
@click.option("--beam", type=int, default=5, show_default=True)
@click.option("--max-sentence-tokens", type=int, default=16, show_default=True)
@click.option("--max-rule-tokens", type=int, default=48, show_default=True)
@click.option("--rule-scope", type=click.Choice(["default", "all"]), default="default",
              show_default=True, help="'all' asks for both relations on every context sentence.")
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def complete(nsc_path, seg_path, models_dir, mode, beam, max_sentence_tokens, max_rule_tokens,
             rule_scope, out, force):
    """Run the recursive completion loop over a corpus."""
    models, vocab, kind = _load_models(Path(models_dir))
    if kind == "coins" and models.csi is None and mode not in (MODE_ORACLE, MODE_NO_IR_WO_SE):
        raise SchemaError(f"{models_dir}: mode {mode} needs a rule model (csi.ckpt)")
    resolved = {"nsc": nsc_path, "seg": seg_path, "models": str(models_dir), "mode": mode,
                "beam": beam, "max_sentence_tokens": max_sentence_tokens,
                "max_rule_tokens": max_rule_tokens, "rule_scope": rule_scope}
    cfg = default_controller_config(vocab, beam=beam, max_sentence_tokens=max_sentence_tokens,
                                    max_rule_tokens_per_decode=max_rule_tokens)
    cfg.rule_scope = rule_scope

    if mode == MODE_SEG:
        if seg_path is None:
            raise ConfigError("mode seg needs --seg")
        examples = read_seg(_require_file(seg_path))
        out_dir = _prepare_out(out, "complete", resolved, force)
        rows, traces, stories = [], [], []
        for ex in examples:
            ending, _, trace = run_seg(models, vocab, ex.context, cfg, example_id=ex.id)
            rows.append({"id": ex.id, "mode": mode, "sentences": [ending], "text": ending})
            stories.append({"id": ex.id, "sentences": [*ex.context, ending]})
            traces.append(trace)
    else:
        if nsc_path is None:
            raise ConfigError(f"mode {mode} needs --nsc")
        examples = read_nsc(_require_file(nsc_path))
        if mode == MODE_ORACLE:
            missing = [ex.id for ex in examples
                       if not ex.silver_rules
                       or set(ex.silver_rules) != set(range(1, len(ex.targets) + 1))]
            if missing:
                raise SchemaError(f"oracle mode needs silver rules on every example; missing for {missing[:5]}")
        out_dir = _prepare_out(out, "complete", resolved, force)
        if kind == "baseline":
            dcfg = DecodeConfig(beam_width=beam, max_new_tokens=max_sentence_tokens * 2,
                                stop_token=vocab.eos)
            states = [initial_state(ex) for ex in examples]
            texts = complete_baseline(models.sentence, vocab, states, dcfg)
            rows = [{"id": ex.id, "mode": "baseline", "sentences": [text], "text": text}
                    for ex, text in zip(examples, texts)]
            traces = []
        else:
            rows, traces = [], []
            for ex in examples:
                sents, _, trace = run_ablation(
                    mode, models, vocab, initial_state(ex), ex.n_sentences, cfg,
                    example_id=ex.id, silver_rules=ex.silver_rules,
                )
                rows.append({"id": ex.id, "mode": mode, "sentences": sents, "text": " ".join(sents)})
                traces.append(trace)
        by_id = {ex.id: ex for ex in examples}
        stories = [
            {"id": row["id"],
             "sentences": [*by_id[row["id"]].beginning, *row["sentences"], by_id[row["id"]].ending]}
            for row in rows
        ]

    write_jsonl(out_dir / "completions.jsonl", rows)
    write_jsonl(out_dir / "completed_stories.jsonl", stories)
    write_jsonl(out_dir / "trace.jsonl", (row for trace in traces for row in trace.rows()))
    summary = {
        "mode": mode,
        "n_examples": len(rows),
        "decode": cfg.sentence_decode.to_json(),
        "examples": [
            {"id": t.example_id, "n_iterations": len(t.records),
             "finished": all(r.sentence_finished for r in t.records)}
            for t in traces
        ],
    }
    files.write_text(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(f"completed {len(rows)} examples in mode {mode}")


def _gold_references(gold_path: Path) -> dict[str, list[str]]:
    first = next((row for _, row in read_jsonl(gold_path)), None)
    if first is None:
        raise SchemaError(f"{gold_path}: empty corpus")
    if "targets" in first:
        return {ex.id: [" ".join(ex.targets)] for ex in read_nsc(gold_path)}
    return {ex.id: [ex.target] for ex in read_seg(gold_path)}


@main.command("evaluate")
@click.option("--system", "system_dirs", multiple=True, required=True,
              help="Completion run directories; repeat for multiple seeds.")
@click.option("--gold", "gold_path", required=True, help="Gold NSC or SEG corpus.")
@click.option("--ppl-model", "ppl_model_dir", default=None,
              help="Model directory; adds gold-target perplexity per run.")
@click.option("--kappa-csv", "kappa_csv", default=None,
              help="Items-by-raters CSV; adds Fleiss' kappa to the report.")
@click.option("--out", required=True)
@click.option("--force", is_flag=True)
@_wrap_errors
def evaluate(system_dirs, gold_path, ppl_model_dir, kappa_csv, out, force):
    """Score completions against gold: BLEU-1/2, ROUGE-L, Distinct-2/3."""
    gold = _gold_references(_require_file(gold_path))
    runs = []
    for d in system_dirs:
        path = _require_file(Path(d) / "completions.jsonl")
        run = {}
        for lineno, row in read_jsonl(path):
            require(row, ["id", "text"], f"{path}:{lineno}")
            run[str(row["id"])] = str(row["text"])
        runs.append(run)

    ppl = None
    if ppl_model_dir is not None:
        models, vocab, _ = _load_models(Path(ppl_model_dir))
        examples = read_nsc(_require_file(gold_path))
        seqs = build_baseline_seqs(examples, vocab)
        value = float(np.exp(corpus_nll(models.sentence.params, models.sentence.config, seqs)))
        ppl = [value] * len(runs)

    resolved = {"system": [str(s) for s in system_dirs], "gold": str(gold_path),
                "ppl_model": ppl_model_dir, "kappa_csv": kappa_csv}
    report = evaluate_corpus(runs, gold, ppl=ppl, config=resolved)
    if kappa_csv is not None:
        report.metrics["fleiss_kappa"] = fleiss_kappa(RatingMatrix.from_csv(_require_file(kappa_csv)))
    out_dir = _prepare_out(out, "evaluate", resolved, force)
    report.save(out_dir / "report.json")
    click.echo(report.to_json().rstrip())


@main.command("inspect-trace")
@click.option("--run", "run_dir", required=True, help="A completion run directory.")
@click.option("--example", "example_id", default=None)
@click.option("--iteration", type=int, default=None)
@_wrap_errors
def inspect_trace(run_dir, example_id, iteration):
    """Pretty-print recorded iterations: rules, inputs, chosen sentences."""
    path = _require_file(Path(run_dir) / "trace.jsonl")
    current = None
    shown = 0
    for lineno, row in read_jsonl(path):
        where = f"{path}:{lineno}"
        if "example_id" in row:
            require(row, ["mode"], where)
            current = row
            continue
        if current is None:
            raise SchemaError(f"{where}: iteration record before any trace header")
        require(row, ["iteration", "effect_rules", "cause_rules", "sentence_input", "sentence",
                      "sentence_score"], where)
        if example_id is not None and current["example_id"] != example_id:
            continue
        if iteration is not None and row["iteration"] != iteration:
            continue
        shown += 1
        click.echo(f"=== {current['example_id']} [{current['mode']}] iteration {row['iteration']}")
        for rule in row["effect_rules"]:
            click.echo(f"  effect rule: {rule}")
        for rule in row["cause_rules"]:
            click.echo(f"  cause rule:  {rule}")
        click.echo(f"  input:  {row['sentence_input']}")
        click.echo(f"  output: {row['sentence']}  (score {row['sentence_score']:.3f})")
        if row.get("error"):
            click.echo(f"  ERROR: {row['error']}")
    if shown == 0:
        raise SchemaError("no matching trace records")


if __name__ == "__main__":
    main()
