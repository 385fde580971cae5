"""Independent re-computations the benchmark checks the program against.

Nothing here imports ``coins``: the checkpoint reader, the tokenizer,
the serializations and the transformer forward are re-written from the
documented formats in plain numpy (float64), so a check that passes
means two separate implementations agree.
"""

from __future__ import annotations

import json
import math
import re
import struct
from pathlib import Path

import numpy as np

SPECIALS = ("[PAD]", "[UNK]", "[SOS]", "[EOS]", "[SEP]", "[EOK]", "[MASK]", "[EFFECT]", "[CAUSE]")
UNK, EOS = 1, 3
_WORD_RE = re.compile(r"[a-z0-9_']+|[^\sa-z0-9_']", re.IGNORECASE)

LN_EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715

# a sentence score is a sum of ~10 float32-logit log-probs near 0
SCORE_ATOL = 1e-3
# logit gap below which a float32/float64 argmax disagreement is a tie
ARGMAX_ATOL = 1e-4


# ---------------------------------------------------------------------------
# text


def tokenize(text: str) -> list[str]:
    """Whitespace chunks; reserved surfaces pass through, the rest is
    lowercased and split into word and punctuation tokens."""
    out: list[str] = []
    for chunk in text.split():
        if chunk.upper() in SPECIALS:
            out.append(chunk.upper())
        else:
            out.extend(_WORD_RE.findall(chunk.lower()))
    return out


def load_vocab(path) -> dict[str, int]:
    tokens = json.loads(Path(path).read_text(encoding="utf-8"))["tokens"]
    return {t: i for i, t in enumerate(tokens)}


def encode(text: str, vocab: dict[str, int]) -> list[int]:
    return [vocab.get(t, UNK) for t in tokenize(text)]


def rule_tokens(rules: list[str]) -> list[str]:
    """Tokens a rule decode emits for a bundle: rules, [SEP]s and [EOS]."""
    return tokenize(" [SEP] ".join(r.strip() for r in rules if r.strip())) + ["[EOS]"]


def render(prefix, ending: str) -> str:
    return " ".join([*prefix, "[SEP]", ending])


def rule_prompt(prefix, ending: str, selected: str, relation: str) -> str:
    """[SOS] <context> # <selected> # <relation token> #"""
    return f"[SOS] {render(prefix, ending)} # {selected} # [{relation.upper()}] #"


def sentence_prompt(rules: list[str], prefix, ending: str) -> str:
    """[SOS] <rules> [EOK] <context>; the rule block and [EOK] go when empty."""
    block = " [SEP] ".join(r.strip() for r in rules if r.strip())
    head = f"[SOS] {block} [EOK]" if block else "[SOS]"
    return f"{head} {render(prefix, ending)}"


# ---------------------------------------------------------------------------
# the generator's gold data


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def gold_rules(glucose_rows: list[dict]) -> dict[tuple[str, int], dict[str, list[str]]]:
    """(story id, 1-based sentence index) -> {"effect": [...], "cause": [...]}
    of general-flavour rules, ascending by dimension (1-5 Cause, 6-10 Effect)."""
    out: dict[tuple[str, int], dict[str, list[tuple[int, str]]]] = {}
    for row in glucose_rows:
        rel = "cause" if row["dimension"] <= 5 else "effect"
        slot = out.setdefault((row["story_id"], row["sentence_index"]), {"effect": [], "cause": []})
        slot[rel].append((row["dimension"], row["general"]))
    return {k: {rel: [t for _, t in sorted(v[rel], key=lambda p: p[0])] for rel in v}
            for k, v in out.items()}


def iteration_rules(gold, story_id: str, iteration: int, n_sentences: int) -> tuple[list[str], list[str]]:
    """Effect rules of the current sentence s_{i+1} and Cause rules of the ending."""
    empty = {"effect": [], "cause": []}
    return (gold.get((story_id, iteration + 1), empty)["effect"],
            gold.get((story_id, n_sentences), empty)["cause"])


# ---------------------------------------------------------------------------
# checkpoints and the reference forward


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Magic, uint32 header length, JSON header, arrays in header order."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"CKP1":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    offset = 8 + hlen
    out = {}
    for name in header["names"]:
        dt = np.dtype({"float32": "<f4", "float64": "<f8"}[header["dtypes"][name]])
        shape = tuple(header["shapes"][name])
        n = int(np.prod(shape, dtype=np.int64))
        out[name] = np.frombuffer(raw, dtype=dt, count=n, offset=offset).reshape(shape)
        offset += n * dt.itemsize
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return out


class ReferenceLm:
    """The checkpointed transformer, re-implemented without a graph."""

    def __init__(self, model_dir, name: str):
        model_dir = Path(model_dir)
        self.config = json.loads((model_dir / f"{name}.json").read_text())["config"]
        self.params = {k: v.astype(np.float64) for k, v in
                       read_checkpoint(model_dir / f"{name}.ckpt").items()}

    def logits(self, ids) -> np.ndarray:
        p, cfg = self.params, self.config
        ids = np.asarray(ids, dtype=np.intp)
        t, nh = len(ids), cfg["heads"]
        dh = cfg["hidden"] // nh
        mask = np.triu(np.full((t, t), -np.inf), k=1)
        h = p["tok_emb"][ids] + p["pos_emb"][:t]
        for b in range(cfg["layers"]):
            w = lambda n: p[f"h{b}.{n}"]
            a = _layer_norm(h, w("ln1.g"), w("ln1.b"))
            q, k, v = (a @ w(f"attn.w{x}") + w(f"attn.b{x}") for x in "qkv")
            heads = []
            for i in range(nh):
                s = slice(i * dh, (i + 1) * dh)
                scores = q[:, s] @ k[:, s].T / math.sqrt(dh) + mask
                e = np.exp(scores - scores.max(axis=-1, keepdims=True))
                heads.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, s])
            h = h + np.concatenate(heads, axis=1) @ w("attn.wo") + w("attn.bo")
            m = _layer_norm(h, w("ln2.g"), w("ln2.b")) @ w("mlp.w1") + w("mlp.b1")
            m = 0.5 * m * (1.0 + np.tanh(GELU_C * (m + GELU_A * m * m * m)))
            h = h + m @ w("mlp.w2") + w("mlp.b2")
        hf = _layer_norm(h, p["ln_f.g"], p["ln_f.b"])
        proj = p["tok_emb"] if cfg["tie_output_to_embedding"] else p["out_proj"]
        return hf @ proj.T

    def continuation_logprobs(self, prompt_ids, cont_ids) -> tuple[np.ndarray, np.ndarray]:
        """One teacher-forced pass: (log-probs of each continuation token,
        the log-prob rows that predict them)."""
        ids = list(prompt_ids) + list(cont_ids)
        z = self.logits(ids[:-1])[len(prompt_ids) - 1 :]
        z = z - z.max(axis=-1, keepdims=True)
        rows = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return rows[np.arange(len(cont_ids)), cont_ids], rows


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when it passes


def check_finite(model_dir, names=("sentence", "csi")) -> list[str]:
    bad = []
    for name in names:
        for k, v in read_checkpoint(Path(model_dir) / f"{name}.ckpt").items():
            if not np.isfinite(v).all():
                bad.append(f"{name}.{k} has non-finite entries")
    return bad


def sentence_nll(lm: ReferenceLm, vocab, examples: list[dict], gold) -> float:
    """Mean per-token NLL of every teacher-forced sentence target (+[EOS])."""
    total, count = 0.0, 0
    for ex in examples:
        beginning, ending = ex["context"][:2], ex["context"][3]
        n = len(ex["targets"]) + 3
        for it, target in enumerate(ex["targets"], start=1):
            effect, cause = iteration_rules(gold, ex["id"], it, n)
            prefix = [*beginning, *ex["targets"][: it - 1]]
            prompt = encode(sentence_prompt([*effect, *cause], prefix, ending), vocab)
            lp, _ = lm.continuation_logprobs(prompt, encode(target, vocab) + [EOS])
            total -= float(lp.sum())
            count += len(lp)
    return total / count


def check_nll(lm: ReferenceLm, vocab, examples, gold, share: float) -> list[str]:
    nll = sentence_nll(lm, vocab, examples, gold)
    bound = share * math.log(len(vocab))
    return [] if nll < bound else [f"sentence NLL {nll:.3f} not below {bound:.3f}"]


def check_completions(rows: list[dict], traces: list[dict], examples: dict[str, dict],
                      max_misses: int) -> list[str]:
    """Every story has n-3 sentences and clean iterations; all but
    ``max_misses`` reproduce the gold middles token for token."""
    bad, misses = [], 0
    by_trace = {t["example_id"]: t for t in traces}
    for row in rows:
        ex = examples[row["id"]]
        recs = by_trace[row["id"]]["records"]
        if len(row["sentences"]) != len(ex["targets"]) or len(recs) != len(ex["targets"]):
            bad.append(f"{row['id']}: {len(row['sentences'])} sentences, need {len(ex['targets'])}")
        bad += [f"{row['id']} iteration {r['iteration']}: {r['error']}" for r in recs if r["error"]]
        misses += [tokenize(s) for s in row["sentences"]] != [tokenize(s) for s in ex["targets"]]
    if misses > max_misses:
        bad.append(f"{misses} of {len(rows)} stories differ from the gold middles")
    return bad


def check_scores(lm: ReferenceLm, vocab, traces: list[dict]) -> list[str]:
    """Each record's sentence_score equals its rescored sentence + [EOS];
    failed iterations are check_completions' to report."""
    bad = []
    for t in traces:
        for r in (r for r in t["records"] if not r["error"]):
            cont = encode(r["sentence"], vocab) + ([EOS] if r["sentence_finished"] else [])
            lp, _ = lm.continuation_logprobs(encode(r["sentence_input"], vocab), cont)
            if abs(float(lp.sum()) - r["sentence_score"]) > SCORE_ATOL:
                bad.append(f"{t['example_id']} iteration {r['iteration']}: score "
                           f"{r['sentence_score']:.5f}, reference {float(lp.sum()):.5f}")
    return bad


def enriched_decodes(ex: dict):
    """(prompt text, emitted rules, gold key) for each rule decode of one
    enriched example, in decode order."""
    beginning, ending = ex["context"][:2], ex["context"][3]
    for it in range(1, len(ex["targets"]) + 1):
        prefix = [*beginning, *ex["targets"][: it - 1]]
        pair = ex["silver_rules"][str(it)]
        yield rule_prompt(prefix, ending, prefix[-1], "effect"), pair["effect"], (it, "effect")
        yield rule_prompt(prefix, ending, ending, "cause"), pair["cause"], (it, "cause")


def check_gold_rules(enriched: list[dict], gold, max_misses: int) -> list[str]:
    """Decoded rules equal the generator's gold rules in token form on all
    but ``max_misses`` examples."""
    misses = []
    for ex in enriched:
        n = len(ex["targets"]) + 3
        for _, rules, (it, rel) in enriched_decodes(ex):
            effect, cause = iteration_rules(gold, ex["id"], it, n)
            want = effect if rel == "effect" else cause
            if [tokenize(r) for r in rules] != [tokenize(r) for r in want]:
                misses.append(f"{ex['id']} iteration {it} {rel}: {rules} != gold {want}")
                break
    if len(misses) > max_misses:
        return [f"{len(misses)} of {len(enriched)} examples differ from the gold rules", *misses]
    return []


def check_greedy(lm: ReferenceLm, vocab, enriched: list[dict]) -> list[str]:
    """Every emitted token is the reference argmax (ties to the lowest id)
    of the row that predicts it, up to a float32 tie."""
    bad = []
    for ex in enriched:
        for prompt, rules, (it, rel) in enriched_decodes(ex):
            cont = [vocab.get(t, UNK) for t in rule_tokens(rules)]
            lp, rows = lm.continuation_logprobs(encode(prompt, vocab), cont)
            best = rows.argmax(axis=-1)
            for j, tok in enumerate(cont):
                if best[j] != tok and rows[j, best[j]] - lp[j] > ARGMAX_ATOL:
                    bad.append(f"{ex['id']} iteration {it} {rel}: token {j} is {tok}, "
                               f"reference argmax {int(best[j])}")
                    break
    return bad
