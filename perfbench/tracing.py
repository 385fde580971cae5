"""Per-module timers and counters, installed by wrapping public functions.

The program is not edited: :meth:`Tracer.install` replaces each traced
function in every ``coins`` module namespace that binds it (so
``from .model import forward`` copies are caught too) and
:meth:`Tracer.uninstall` puts the originals back. Times are inclusive
wall seconds: ``decode.beam_search_s`` contains the ``model.forward_s``
of the decodes it runs, which contains the tensor op times.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import coins.checkpoint
import coins.controller
import coins.data.silver
import coins.decode
import coins.model
import coins.optim
import coins.tensor
import coins.train
import coins.vocab

_now = time.perf_counter

# ops with their own forward/backward times; the rest are pooled
NAMED_OPS = ("matmul", "gelu", "softmax", "layer_norm", "cross_entropy_masked",
             "embedding_lookup", "dropout")
POOLED_OPS = {"narrow": "shape_ops", "concat": "shape_ops", "transpose": "shape_ops",
              "add": "elementwise", "mul": "elementwise", "scale": "elementwise"}

# (metric, unit, better) for every per-module metric a traced run prints
PER_MODULE = (
    *[(f"tensor.{op}.{d}_s", "s", "lower") for op in NAMED_OPS for d in ("fwd", "bwd")],
    ("tensor.shape_ops_s", "s", "lower"),
    ("tensor.elementwise_s", "s", "lower"),
    ("tensor.nodes", "count", "lower"),
    ("tensor.backward_s", "s", "lower"),
    ("optim.adam_update_s", "s", "lower"),
    ("optim.adam_update.calls", "count", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.positions", "count", "lower"),
    ("model.forward_s", "s", "lower"),
    ("decode.beam_search.calls", "count", "lower"),
    ("decode.beam_search_s", "s", "lower"),
    ("decode.logprob.calls", "count", "lower"),
    ("decode.logprob_s", "s", "lower"),
    ("decode.generated_tokens", "count", "higher"),
    ("decode.unfinished", "count", "lower"),
    ("controller.gen_inference_rules_s", "s", "lower"),
    ("controller.gen_next_sentence_s", "s", "lower"),
    ("controller.rule_memory.forwards", "count", "lower"),
    ("controller.rule_memory_s", "s", "lower"),
    ("controller.iterations", "count", "higher"),
    ("controller.iteration_errors", "count", "lower"),
    ("vocab.encode_s", "s", "lower"),
    ("vocab.encode.calls", "count", "lower"),
    ("train.build_joint_items_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("silver.enrich_s", "s", "lower"),
    ("silver.rule_decodes", "count", "higher"),
    ("silver.empty_bundles", "count", "lower"),
)
# the same timers, summed over the set-up of a traced run
SETUP_METRICS = ("train.build_joint_items_s", "checkpoint.save_s", "checkpoint.load_s")


class Tracer:
    """Accumulates per-module seconds and counts while installed."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        found = False
        for name, mod in list(sys.modules.items()):
            if name != "coins" and not name.startswith("coins."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no coins module binds {original!r}")

    def _timed(self, fn, metric: str | None, after=None):
        """Wrap ``fn``: add its seconds to ``<metric>_s`` (unless None) and
        hand its result and arguments to ``after``."""
        values = self.values

        def timed(*args, **kwargs):
            t = _now()
            out = fn(*args, **kwargs)
            if metric is not None:
                values[metric + "_s"] += _now() - t
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return timed

    def _counted(self, name: str):
        def after(out, *args, **kwargs):
            self.values[name + ".calls"] += 1
        return after

    def _op(self, fn, key: str, pooled: bool):
        values = self.values
        fwd, bwd = (key + "_s", key + "_s") if pooled else (key + ".fwd_s", key + ".bwd_s")

        def op(*args, **kwargs):
            t = _now()
            out = fn(*args, **kwargs)
            values[fwd] += _now() - t
            back = out._backward
            # ops that return an input unchanged (dropout when off) add no node
            if back is not None and not any(out is a for a in args):
                values["tensor.nodes"] += 1

                def timed_back(g):
                    t = _now()
                    grads = back(g)
                    values[bwd] += _now() - t
                    return grads

                out._backward = timed_back
            return out

        return op

    def install(self, setup_only: bool = False) -> "Tracer":
        """Wrap every traced function, or with ``setup_only`` just the
        ones whose cost belongs to set-up (cheap enough to leave on
        during model training)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        v = self.values
        r = self._replace
        r(coins.train.build_joint_items, self._timed(coins.train.build_joint_items,
                                                     "train.build_joint_items"))
        r(coins.checkpoint.save_arrays, self._timed(coins.checkpoint.save_arrays, "checkpoint.save"))
        r(coins.checkpoint.load_arrays, self._timed(coins.checkpoint.load_arrays, "checkpoint.load"))
        if setup_only:
            return self

        T = coins.tensor
        for op in NAMED_OPS:
            r(getattr(T, op), self._op(getattr(T, op), f"tensor.{op}", pooled=False))
        for op, pool in POOLED_OPS.items():
            r(getattr(T, op), self._op(getattr(T, op), f"tensor.{pool}", pooled=True))
        r(T.backward, self._timed(T.backward, "tensor.backward"))
        r(coins.optim.adam_update, self._timed(coins.optim.adam_update, "optim.adam_update",
                                               self._counted("optim.adam_update")))

        def positions(out, params, config, ids, **kw):
            v["model.forward.calls"] += 1
            v["model.forward.positions"] += len(ids)

        r(coins.model.forward, self._timed(coins.model.forward, "model.forward", positions))

        def decoded(result, *args, **kw):
            v["decode.beam_search.calls"] += 1
            v["decode.generated_tokens"] += result.n_generated
            v["decode.unfinished"] += not result.finished

        r(coins.decode.beam_search, self._timed(coins.decode.beam_search, "decode.beam_search",
                                                decoded))
        logprob_fn = coins.decode.lm_logprob_fn
        count_logprob = self._counted("decode.logprob")
        r(logprob_fn, lambda lm: self._timed(logprob_fn(lm), "decode.logprob", count_logprob))

        C = coins.controller
        r(C.gen_inference_rules, self._timed(C.gen_inference_rules, "controller.gen_inference_rules"))
        r(C.gen_next_sentence, self._timed(C.gen_next_sentence, "controller.gen_next_sentence"))

        def rule_memory(out, model, vocab, prompt, rules_text):
            v["controller.rule_memory.forwards"] += bool(rules_text.strip())

        r(C._rule_block_states, self._timed(C._rule_block_states, "controller.rule_memory",
                                            rule_memory))

        def iterations(out, *args, **kw):
            records = out[2].records
            v["controller.iterations"] += len(records)
            v["controller.iteration_errors"] += sum(rec.error is not None for rec in records)

        r(C._run_loop, self._timed(C._run_loop, None, iterations))
        r(coins.vocab.encode, self._timed(coins.vocab.encode, "vocab.encode",
                                          self._counted("vocab.encode")))

        S = coins.data.silver
        r(S.enrich_with_silver, self._timed(S.enrich_with_silver, "silver.enrich"))

        def bundle(rules, *args, **kw):
            v["silver.rule_decodes"] += 1
            v["silver.empty_bundles"] += not rules

        r(S._decode_rules, self._timed(S._decode_rules, None, bundle))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, names) -> dict[str, float]:
        """Accumulated values by name, 0 for names never touched; counts
        (names without an ``_s`` suffix) as integers."""
        return {name: self.values.get(name, 0.0) if name.endswith("_s")
                else int(self.values.get(name, 0)) for name in names}
