"""The benchmark's tracer (perfbench/tracing.py) wraps ``coins`` functions
it looks up by name, and raises on install if one of them is gone; this
keeps a rename in ``coins`` from breaking traced benchmark runs unseen."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coins_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "coins" or name.startswith("coins.")
        for attr, value in vars(mod).items()
    }


def test_tracer_install_patches_and_uninstall_restores():
    tracing = load_tracing()
    before = coins_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = coins_bindings()
        patched = {key for key, value in during.items() if value is not before[key]}
    finally:
        tracer.uninstall()
    for key in [("coins.train", "build_joint_items"), ("coins.model", "forward"),
                ("coins.decode", "beam_search"), ("coins.decode", "lm_logprob_fn"),
                ("coins.controller", "gen_inference_rules"), ("coins.controller", "_run_loop"),
                ("coins.controller", "_rule_block_states"), ("coins.data.silver", "_decode_rules"),
                ("coins.data.silver", "enrich_with_silver"), ("coins.vocab", "encode")]:
        assert key in patched, key
    after = coins_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
