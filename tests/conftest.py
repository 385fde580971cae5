import sys
from pathlib import Path

import numpy as np
import pytest

# make the oracle helpers importable from test modules
sys.path.insert(0, str(Path(__file__).parent))

from coins.data import synthetic
from coins.data.corpus import build_nsc_corpus, build_seg_corpus
from coins.data.types import Flavor
from coins.model import LmConfig, init_lm
from coins.train import TrainConfig, build_joint_items, build_seg_items, train_models
from coins.vocab import train_vocab


def _world_vocab(stories, records):
    lines = [s for st in stories for s in st.sentences]
    lines += [r.general.raw for r in records]
    return train_vocab(lines + ["#"])


@pytest.fixture(scope="session")
def overfit_world():
    """Both models memorize an 8-story corpus; shared by loss/controller/
    enrichment tests that need a model with near-zero training NLL."""
    stories, records = synthetic.generate(8, seed=0)
    examples = build_nsc_corpus(stories)
    vocab = _world_vocab(stories, records)
    cfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)
    theta = init_lm(cfg, np.random.default_rng(1))
    beta = init_lm(cfg, np.random.default_rng(2))
    items = build_joint_items(examples, vocab, Flavor.GENERAL, records)
    hist = train_models(
        [(theta, cfg), (beta, cfg)], [item.terms for item in items],
        TrainConfig(batch_size=8, epochs=300, learning_rate=2e-3, seed=0, target_nll=0.005),
    )
    return dict(stories=stories, records=records, examples=examples, vocab=vocab, cfg=cfg,
                theta=theta, beta=beta, items=items, hist=hist)


@pytest.fixture(scope="session")
def seg_world():
    """Models memorizing a 6-story ending-generation corpus."""
    stories, records = synthetic.generate(6, seed=40)
    segs = build_seg_corpus(stories)
    vocab = _world_vocab(stories, records)
    cfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)
    theta = init_lm(cfg, np.random.default_rng(3))
    beta = init_lm(cfg, np.random.default_rng(4))
    items = build_seg_items(segs, vocab, Flavor.GENERAL, records)
    train_models(
        [(theta, cfg), (beta, cfg)], [item.terms for item in items],
        TrainConfig(batch_size=6, epochs=300, learning_rate=2e-3, seed=0, target_nll=0.005),
    )
    return dict(stories=stories, records=records, segs=segs, vocab=vocab, cfg=cfg,
                theta=theta, beta=beta)
