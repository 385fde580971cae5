"""Automatic generation metrics: corpus BLEU-1/2, ROUGE-L, Distinct-n,
and Fleiss' kappa for categorical rating matrices.

Tokenization reuses the project tokenizer's normalization so training
and evaluation count the same units. BLEU smoothing is off by default
(a zero n-gram precision zeroes the geometric mean); an add-one option
exists for experimentation. ROUGE-L reports F1 (beta=1) by default.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from . import files
from .errors import SchemaError
from .vocab import tokenize

METRIC_REPORT_VERSION = 1


@dataclass(frozen=True)
class EvalPair:
    candidate: str
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references:
            raise SchemaError("an evaluation pair needs at least one reference")


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(pairs: Sequence[EvalPair], max_n: int = 2, smooth: bool = False) -> float:
    """Corpus-level BLEU with clipped n-gram precision and brevity penalty.

    Uniform weights over orders 1..max_n (geometric mean). The brevity
    penalty is min(1, exp(1 - r/c)) with r the closest-reference length
    summed over the corpus.
    """
    if not pairs:
        raise ValueError("bleu needs at least one candidate/reference pair")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    matched = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for pair in pairs:
        cand = tokenize(pair.candidate)
        refs = [tokenize(r) for r in pair.references]
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, max_n + 1):
            cgrams = _ngrams(cand, n)
            if not cgrams:
                continue
            best = Counter()
            for r in refs:
                rgrams = _ngrams(r, n)
                for g, c in rgrams.items():
                    if c > best[g]:
                        best[g] = c
            matched[n - 1] += sum(min(c, best[g]) for g, c in cgrams.items())
            total[n - 1] += sum(cgrams.values())
    log_precisions = []
    for n in range(max_n):
        num, den = matched[n], total[n]
        if smooth:
            num, den = num + 1, den + 1
        if den == 0 or num == 0:
            return 0.0
        log_precisions.append(math.log(num / den))
    if cand_len == 0:
        return 0.0
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    return bp * math.exp(sum(log_precisions) / max_n)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pairs: Sequence[EvalPair], beta: float = 1.0) -> float:
    """Mean per-pair LCS F-measure; multiple references take the best."""
    if not pairs:
        raise ValueError("rouge_l needs at least one candidate/reference pair")
    scores = []
    for pair in pairs:
        cand = tokenize(pair.candidate)
        best = 0.0
        for ref in pair.references:
            r = tokenize(ref)
            lcs = _lcs_len(cand, r)
            if lcs == 0 or not cand or not r:
                continue
            p = lcs / len(cand)
            rec = lcs / len(r)
            f = (1 + beta**2) * p * rec / (rec + beta**2 * p)
            best = max(best, f)
        scores.append(best)
    return sum(scores) / len(scores)


def distinct_n(candidates: Sequence[str], n: int) -> float:
    """Unique n-grams over total n-grams across all candidates."""
    seen: set[tuple[str, ...]] = set()
    total = 0
    for cand in candidates:
        toks = tokenize(cand)
        for i in range(len(toks) - n + 1):
            seen.add(tuple(toks[i : i + n]))
            total += 1
    if total == 0:
        raise ValueError(f"no {n}-grams in any candidate")
    return len(seen) / total


class RatingMatrix:
    """Items x raters categorical labels with a fixed rater count."""

    def __init__(self, rows: Sequence[Sequence[str]]):
        if not rows:
            raise SchemaError("rating matrix has no items")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise SchemaError(f"every item needs the same rater count, got {sorted(widths)}")
        if widths.pop() < 2:
            raise SchemaError("rating matrix needs at least 2 raters")
        self.rows = [tuple(str(x) for x in r) for r in rows]

    @property
    def n_raters(self) -> int:
        return len(self.rows[0])

    @property
    def categories(self) -> list[str]:
        return sorted({x for row in self.rows for x in row})

    @classmethod
    def from_csv(cls, path) -> "RatingMatrix":
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if row]
        return cls(rows)


def fleiss_kappa(matrix: RatingMatrix) -> float:
    """Chance-corrected multi-rater agreement (P_bar - Pe_bar)/(1 - Pe_bar).

    Degenerate case: if raters use a single category everywhere the
    expected agreement is 1; perfect observed agreement then maps to 1.0.
    """
    cats = matrix.categories
    n = matrix.n_raters
    N = len(matrix.rows)
    counts = [[row.count(c) for c in cats] for row in matrix.rows]
    p_i = [(sum(c * c for c in row) - n) / (n * (n - 1)) for row in counts]
    p_bar = sum(p_i) / N
    p_j = [sum(row[j] for row in counts) / (N * n) for j in range(len(cats))]
    pe_bar = sum(p * p for p in p_j)
    if pe_bar >= 1.0:
        if p_bar == 1.0:
            return 1.0
        raise ValueError("kappa undefined: expected agreement is 1 but observed is not")
    return (p_bar - pe_bar) / (1.0 - pe_bar)


@dataclass
class MetricReport:
    metrics: dict[str, float]
    per_seed: list[dict[str, float]] = field(default_factory=list)
    sd: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    version: int = METRIC_REPORT_VERSION

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "metrics": self.metrics,
            "per_seed": self.per_seed,
            "sd": self.sd,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        d = json.loads(text)
        return cls(
            metrics=d["metrics"],
            per_seed=d.get("per_seed", []),
            sd=d.get("sd", {}),
            config=d.get("config", {}),
            version=d.get("version", METRIC_REPORT_VERSION),
        )

    def save(self, path) -> None:
        files.write_text(path, self.to_json())


def _single_run_metrics(pairs: list[EvalPair], ppl: float | None) -> dict[str, float]:
    out = {
        "bleu1": bleu(pairs, max_n=1),
        "bleu2": bleu(pairs, max_n=2),
        "rouge_l": rouge_l(pairs),
    }
    cands = [p.candidate for p in pairs]
    for n in (2, 3):
        try:
            out[f"distinct{n}"] = distinct_n(cands, n)
        except ValueError:
            out[f"distinct{n}"] = 0.0
    if ppl is not None:
        out["ppl"] = ppl
    return out


def align_pairs(system: dict[str, str], gold: dict[str, Sequence[str]]) -> list[EvalPair]:
    """Match system outputs to gold references by example id."""
    missing = sorted(set(gold) - set(system))
    extra = sorted(set(system) - set(gold))
    if missing or extra:
        raise SchemaError(f"system/gold id mismatch: missing {missing[:5]}, unexpected {extra[:5]}")
    return [EvalPair(candidate=system[i], references=tuple(gold[i])) for i in sorted(gold)]


def evaluate_corpus(
    runs: Sequence[dict[str, str]],
    gold: dict[str, Sequence[str]],
    ppl: Sequence[float] | None = None,
    config: dict | None = None,
) -> MetricReport:
    """Score one or more seed runs against gold; multiple runs add mean/sd."""
    if not runs:
        raise ValueError("evaluate_corpus needs at least one system run")
    if ppl is not None and len(ppl) != len(runs):
        raise ValueError("one perplexity value per run, or none")
    per_seed = []
    for i, run in enumerate(runs):
        pairs = align_pairs(run, gold)
        per_seed.append(_single_run_metrics(pairs, ppl[i] if ppl is not None else None))
    keys = sorted(per_seed[0])
    mean = {k: sum(m[k] for m in per_seed) / len(per_seed) for k in keys}
    if len(per_seed) > 1:
        sd = {
            k: math.sqrt(sum((m[k] - mean[k]) ** 2 for m in per_seed) / (len(per_seed) - 1))
            for k in keys
        }
    else:
        sd = {}
    return MetricReport(
        metrics=mean,
        per_seed=per_seed if len(per_seed) > 1 else [],
        sd=sd,
        config=config or {},
    )
