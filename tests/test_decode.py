import itertools

import numpy as np
import pytest

from coins import tensor as T
from coins.decode import DecodeConfig, beam_search, greedy, lm_logprob_fn
from coins.model import Lm, LmConfig, forward, init_lm


class TabularModel:
    """Next-token distributions keyed on the generated suffix; the oracle
    for beam search since every sequence can be scored by enumeration."""

    def __init__(self, vocab_size, prefix_len, table=None, seed=None):
        self.vocab_size = vocab_size
        self.prefix_len = prefix_len
        self.table = table or {}
        self.rng = np.random.default_rng(seed)
        self.default_cache = {}

    def _dist(self, key):
        if key in self.table:
            p = np.asarray(self.table[key], dtype=np.float64)
        else:
            if key not in self.default_cache:
                self.default_cache[key] = self.rng.dirichlet(np.ones(self.vocab_size))
            p = self.default_cache[key]
        return np.log(p)

    def logprob_fn(self, ids):
        return self._dist(tuple(ids[self.prefix_len :]))

    def batch_logprob_fn(self, batch):
        # one row per hypothesis, in order, so lazy draws keep their order
        return np.stack([self.logprob_fn(ids) for ids in batch])


def enumerate_argmax(model, prefix, length, stop_token=None):
    """Exhaustive oracle for the decoder's objective: the best hypothesis
    that ends at the stop token, falling back to the best unfinished
    full-length sequence only when nothing finishes; ties break on ids.
    """
    V = model.vocab_size
    best = {True: None, False: None}
    seen = set()
    for seq in itertools.product(range(V), repeat=length):
        finished = False
        if stop_token is not None and stop_token in seq:
            seq = seq[: seq.index(stop_token) + 1]
            finished = True
        if seq in seen:
            continue
        seen.add(seq)
        score = 0.0
        hist = tuple(prefix)
        for tok in seq:
            score += model.logprob_fn(hist)[tok]
            hist = hist + (tok,)
        key = (-score, seq)
        if best[finished] is None or key < best[finished][0]:
            best[finished] = (key, seq, score)
    pick = best[True] if best[True] is not None else best[False]
    return list(prefix) + list(pick[1]), pick[2]


def peaky_model(prefix):
    """Greedy goes wrong here: token 1 looks best at the first step but
    token 0 opens a much better continuation."""
    table = {
        (): [0.4, 0.45, 0.1, 0.05],
        (0,): [0.9, 0.05, 0.03, 0.02],
        (1,): [0.25, 0.25, 0.25, 0.25],
    }
    return TabularModel(vocab_size=4, prefix_len=len(prefix), table=table, seed=0)


def test_beam_finds_argmax_where_greedy_fails():
    prefix = (9,)
    model = peaky_model(prefix)
    want, want_score = enumerate_argmax(model, prefix, 3)
    got = beam_search(model.batch_logprob_fn, prefix, DecodeConfig(beam_width=4, max_new_tokens=3))
    assert got.ids == want
    assert got.score == pytest.approx(want_score)
    g = greedy(model.batch_logprob_fn, prefix, DecodeConfig(beam_width=1, max_new_tokens=3))
    assert g.ids != want  # the trap works
    assert g.score < got.score


@pytest.mark.parametrize("vocab_size", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_beam_equals_enumeration(vocab_size, seed):
    prefix = (0, 1)
    model = TabularModel(vocab_size, len(prefix), seed=seed)
    want, want_score = enumerate_argmax(model, prefix, 3)
    cfg = DecodeConfig(beam_width=vocab_size**2, max_new_tokens=3)
    got = beam_search(model.batch_logprob_fn, prefix, cfg)
    assert got.ids == want
    assert got.score == pytest.approx(want_score)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_wide_beam_equals_enumeration_with_stop_token(seed):
    vocab_size, stop = 4, 0
    prefix = (7,)
    model = TabularModel(vocab_size, len(prefix), seed=seed)
    want, want_score = enumerate_argmax(model, prefix, 3, stop_token=stop)
    cfg = DecodeConfig(beam_width=vocab_size**2, max_new_tokens=3, stop_token=stop)
    got = beam_search(model.batch_logprob_fn, prefix, cfg)
    assert got.ids == want
    assert got.score == pytest.approx(want_score)


def test_beam_width_monotone_on_oracle_model():
    prefix = (9,)
    model = peaky_model(prefix)
    scores = [
        beam_search(model.batch_logprob_fn, prefix, DecodeConfig(beam_width=w, max_new_tokens=3)).score
        for w in (1, 2, 4)
    ]
    assert scores[0] <= scores[1] <= scores[2]


def test_beam1_equals_greedy_on_100_random_prompts():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        prefix = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(1, 5)))
        model = TabularModel(6, len(prefix), seed=seed)
        cfg = DecodeConfig(beam_width=1, max_new_tokens=4, stop_token=5)
        b = beam_search(model.batch_logprob_fn, prefix, cfg)
        g = greedy(model.batch_logprob_fn, prefix, cfg)
        assert b.ids == g.ids and b.score == pytest.approx(g.score)


def test_greedy_is_stepwise_argmax():
    prefix = (1,)
    model = TabularModel(3, 1, seed=8)
    out = greedy(model.batch_logprob_fn, prefix, DecodeConfig(beam_width=1, max_new_tokens=4))
    hist = prefix
    for tok in out.ids[1:]:
        lp = model.logprob_fn(hist)
        assert tok == int(np.argmax(lp))
        hist = hist + (tok,)


def test_greedy_deterministic_across_runs():
    model = TabularModel(5, 0, seed=11)
    cfg = DecodeConfig(beam_width=1, max_new_tokens=6)
    a = greedy(model.batch_logprob_fn, (), cfg)
    b = greedy(model.batch_logprob_fn, (), cfg)
    assert a.ids == b.ids and a.score == b.score


def test_max_new_tokens_respected_exactly():
    model = TabularModel(4, 0, seed=12)
    out = greedy(model.batch_logprob_fn, (), DecodeConfig(beam_width=1, max_new_tokens=5))
    assert out.n_generated == 5 and not out.finished


def test_output_begins_with_prefix():
    prefix = (3, 1, 4, 1)
    model = TabularModel(5, len(prefix), seed=13)
    out = beam_search(model.batch_logprob_fn, prefix, DecodeConfig(beam_width=3, max_new_tokens=3))
    assert tuple(out.ids[: len(prefix)]) == prefix


def test_stop_token_included_and_halts():
    # stop token is overwhelmingly likely at the second step
    table = {
        (): [0.9, 0.06, 0.04],
        (0,): [0.02, 0.02, 0.96],
    }
    model = TabularModel(3, 0, table=table, seed=14)
    out = beam_search(model.batch_logprob_fn, (), DecodeConfig(beam_width=2, max_new_tokens=5, stop_token=2))
    assert out.ids == [0, 2] and out.finished


def test_unfinished_flagged_when_budget_spent():
    # the stop token is never the argmax, so a width-1 beam cannot finish
    table = {(): [0.98, 0.01, 0.01], (0,): [0.98, 0.01, 0.01]}
    model = TabularModel(3, 0, table=table, seed=15)
    out = beam_search(model.batch_logprob_fn, (), DecodeConfig(beam_width=1, max_new_tokens=2, stop_token=1))
    assert not out.finished and out.n_generated == 2 and out.ids == [0, 0]


def test_scores_non_increasing_with_longer_budgets():
    model = TabularModel(4, 0, seed=16)
    prev = 0.0
    for budget in (1, 2, 3, 4):
        out = greedy(model.batch_logprob_fn, (), DecodeConfig(beam_width=1, max_new_tokens=budget))
        assert out.score <= prev + 1e-12
        prev = out.score


def test_tie_break_prefers_lowest_token_id():
    table = {
        (): [0.5, 0.5],
        (0,): [1.0, 0.0],
        (1,): [1.0, 0.0],
    }
    model = TabularModel(2, 0, table=table, seed=17)
    out = beam_search(model.batch_logprob_fn, (), DecodeConfig(beam_width=2, max_new_tokens=1))
    assert out.ids == [0]


def test_length_normalization_changes_selection():
    # long: three tokens at 0.6 each; short: stop immediately at 0.35
    table = {
        (): [0.6, 0.05, 0.35],
        (0,): [0.6, 0.05, 0.35],
        (0, 0): [0.6, 0.05, 0.35],
    }
    model = TabularModel(3, 0, table=table, seed=18)
    plain = beam_search(model.batch_logprob_fn, (), DecodeConfig(beam_width=3, max_new_tokens=3, stop_token=2))
    normed = beam_search(
        model.batch_logprob_fn,
        (),
        DecodeConfig(beam_width=3, max_new_tokens=3, stop_token=2, length_normalization=True),
    )
    assert plain.ids == [2]  # single stop beats any longer product
    assert normed.ids != plain.ids


def uncached_logprob_fn(lm):
    """The reference source: one full autodiff forward per hypothesis."""

    def fn(batch):
        with T.no_grad():
            last = [forward(lm.params, lm.config, ids).data[-1] for ids in batch]
        return T.log_softmax_rows(np.stack(last).astype(np.float64))

    return fn


@pytest.mark.parametrize("width", [1, 5])
def test_cached_lm_source_matches_uncached_forward(width):
    cfg = LmConfig(vocab=30, layers=2, hidden=32, heads=2, max_positions=40, dropout_p=0.0)
    lm = Lm(init_lm(cfg, np.random.default_rng(21)), cfg)
    rng = np.random.default_rng(22)
    decode_cfg = DecodeConfig(beam_width=width, max_new_tokens=12, stop_token=3)
    cached = lm_logprob_fn(lm)  # one source across decodes, as the CLI uses it
    for _ in range(4):
        prefix = tuple(int(t) for t in rng.integers(4, cfg.vocab, size=rng.integers(1, 20)))
        want = beam_search(uncached_logprob_fn(lm), prefix, decode_cfg)
        got = beam_search(cached, prefix, decode_cfg)
        assert got.ids == want.ids and got.finished == want.finished
        assert got.score == pytest.approx(want.score, abs=1e-4)


@pytest.mark.parametrize("stop_token", [None, 3])
@pytest.mark.parametrize("width", [1, 5])
def test_reused_lm_source_is_bit_identical_to_fresh_sources(width, stop_token):
    # one source's cache buffers serve a long, a short and a long prompt
    # again; stale rows and positions from earlier decodes never leak in
    cfg = LmConfig(vocab=30, layers=2, hidden=32, heads=2, max_positions=40, dropout_p=0.0)
    lm = Lm(init_lm(cfg, np.random.default_rng(23)), cfg)
    rng = np.random.default_rng(24)
    long_a, short, long_b = (tuple(int(t) for t in rng.integers(4, cfg.vocab, size=n)) for n in (25, 3, 22))
    decode_cfg = DecodeConfig(beam_width=width, max_new_tokens=12, stop_token=stop_token)
    shared = lm_logprob_fn(lm)
    for prefix in (long_a, short, long_b):
        want = beam_search(lm_logprob_fn(lm), prefix, decode_cfg)
        got = beam_search(shared, prefix, decode_cfg)
        assert (got.ids, got.score, got.finished) == (want.ids, want.score, want.finished)
        assert got.n_generated == want.n_generated
        assert stop_token is not None or got.n_generated == 12  # every step ran
