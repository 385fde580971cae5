import dataclasses

import numpy as np
import pytest

from coins import tensor as T
from coins.checkpoint import load_arrays, save_arrays
from coins.data import synthetic
from coins.data.corpus import build_nsc_corpus
from coins.data.rules import gold_rule_pairs
from coins.data.types import Flavor, RelationType, RuleBundle
from coins.errors import ConfigError, SchemaError
from coins.model import (
    JointItem,
    KvCache,
    LengthError,
    Lm,
    LmConfig,
    TrainSeq,
    forward,
    forward_cached,
    init_lm,
    item_loss,
    load_model,
    make_train_seq,
    masked_nll,
    pack_weights,
    pad_batch,
    save_model,
    sequence_nll,
)
from coins.optim import AdamState, GradientError, adam_update, clip_grads, global_grad_norm, zero_grads
from coins.tensor import Tensor
from coins.train import TrainConfig, build_baseline_seqs, build_sentence_seq, corpus_nll, train_models
from coins.vocab import encode, train_vocab

from gradcheck import check_tensor_grad

TOY = dict(layers=2, hidden=64, heads=2, max_positions=64, dropout_p=0.0)


def toy_model(vocab_size=40, seed=0, dtype=np.float32, **overrides):
    cfg = LmConfig(vocab=vocab_size, **{**TOY, **overrides})
    params = init_lm(cfg, np.random.default_rng(seed), dtype=dtype)
    return params, cfg


# configuration


def test_reference_and_toy_configs_accepted():
    LmConfig(vocab=50257, layers=12, hidden=768, heads=12, max_positions=1024)
    LmConfig(vocab=64, layers=2, hidden=64, heads=2)


def test_config_validation():
    with pytest.raises(ConfigError):
        LmConfig(vocab=10, hidden=65, heads=2)
    with pytest.raises(ConfigError):
        LmConfig(vocab=10, dropout_p=1.0)


# forward contracts


def test_forward_output_shape():
    params, cfg = toy_model()
    ids = np.arange(10) % cfg.vocab
    with T.no_grad():
        logits = forward(params, cfg, ids)
    assert logits.shape == (10, cfg.vocab)


def test_forward_rejects_overlong_input():
    params, cfg = toy_model()
    with pytest.raises(LengthError):
        forward(params, cfg, np.zeros(cfg.max_positions + 1, dtype=np.intp))


def test_causality_prefix_logits_bit_identical():
    params, cfg = toy_model(seed=3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = int(rng.integers(4, 20))
        p = int(rng.integers(1, t - 1))
        ids = rng.integers(0, cfg.vocab, size=t)
        other = ids.copy()
        other[p + 1 :] = rng.integers(0, cfg.vocab, size=t - p - 1)
        other[p + 1] = (ids[p + 1] + 1) % cfg.vocab  # guarantee a change
        with T.no_grad():
            a = forward(params, cfg, ids).data[: p + 1]
            b = forward(params, cfg, other).data[: p + 1]
        assert np.array_equal(a, b)


def test_untied_output_projection():
    params, cfg = toy_model(tie_output_to_embedding=False)
    assert "out_proj" in params
    with T.no_grad():
        assert forward(params, cfg, [1, 2, 3]).shape == (3, cfg.vocab)


def test_full_model_gradients_match_finite_differences():
    # every parameter tensor, sampled entries, 64-bit, rel tol 1e-3
    params, cfg = toy_model(vocab_size=24, seed=5, dtype=np.float64)
    rng = np.random.default_rng(9)
    ids = rng.integers(0, cfg.vocab, size=10)
    seq = TrainSeq(ids=ids, start=4, end=10)

    def loss():
        return masked_nll(params, cfg, seq)

    check_tensor_grad(loss, params, rng, rel_tol=1e-3, h=1e-6, max_entries_per_leaf=3)


# cached inference forward


def prefill_then_steps(params, cfg, ids, n_prefill):
    """Logits (len(ids), V) from prefilling n_prefill tokens, then one token per call."""
    weights = pack_weights(params, cfg)
    logits, _, cache = forward_cached(weights, cfg, [ids[:n_prefill]])
    rows = [logits[0]]
    for tok in ids[n_prefill:]:
        logits, _, cache = forward_cached(weights, cfg, [[tok]], cache)
        rows.append(logits[0])
    return np.concatenate(rows)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_cached_forward_matches_forward(dtype, tol):
    params, cfg = toy_model(seed=4, dtype=dtype)
    rng = np.random.default_rng(11)
    for n_prefill in (1, 7, 20):
        ids = rng.integers(0, cfg.vocab, size=cfg.max_positions)
        with T.no_grad():
            want = forward(params, cfg, ids).data
        got = prefill_then_steps(params, cfg, ids, n_prefill)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_cached_forward_matches_forward_on_trained_model(overfit_world):
    # a memorized model has peaked logits, so rounding differences show more
    w = overfit_world
    seq = w["items"][0].sentence_seq
    with T.no_grad():
        want = forward(w["theta"], w["cfg"], seq.ids).data
    got = prefill_then_steps(w["theta"], w["cfg"], seq.ids, seq.start)
    assert np.abs(want).max() > 5.0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_cached_batched_step_equals_rows_one_at_a_time(dtype, tol):
    params, cfg = toy_model(seed=6, dtype=dtype)
    weights = pack_weights(params, cfg)
    rng = np.random.default_rng(12)
    prompts = rng.integers(0, cfg.vocab, size=(5, 9))
    nxt = rng.integers(0, cfg.vocab, size=(5, 1))
    _, _, cache = forward_cached(weights, cfg, prompts)
    batched, hidden, cache = forward_cached(weights, cfg, nxt, cache)
    assert batched.shape == (5, 1, cfg.vocab) and hidden.shape == (5, 1, cfg.hidden)
    assert cache.rows == 5 and cache.length == 10
    for i in range(5):
        _, _, row_cache = forward_cached(weights, cfg, prompts[i : i + 1])
        row, _, _ = forward_cached(weights, cfg, nxt[i : i + 1], row_cache)
        np.testing.assert_allclose(batched[i], row[0], rtol=0, atol=tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_step_is_bit_identical_to_unfused_step(dtype):
    # the fused QKV product and attention over views of the cache buffers
    # give exactly the bits of three products and concatenated keys/values
    params, cfg = toy_model(seed=16, dtype=dtype)
    w = {k: v.data for k, v in params.items()}
    rng = np.random.default_rng(17)
    ids = rng.integers(0, cfg.vocab, size=(3, 13))
    weights = pack_weights(params, cfg)
    cache = KvCache(cfg, 3, dtype)
    past = [(np.zeros((3, 0, cfg.hidden), dtype),) * 2 for _ in range(cfg.layers)]
    full_mask = np.triu(np.full((cfg.max_positions,) * 2, -np.inf, dtype=dtype), k=1)
    for s in (8, 1, 1, 2, 1):  # a one-position step gets the mask's all-zero row here
        t = cache.length
        got, got_hf, _ = forward_cached(weights, cfg, ids[:, t : t + s], cache)
        h = (w["tok_emb"][ids[:, t : t + s]] + w["pos_emb"][t : t + s]).reshape(3 * s, -1)
        for b in range(cfg.layers):
            p = f"h{b}."
            a = T.layer_norm_array(h, w[p + "ln1.g"], w[p + "ln1.b"], 1e-5)[0]
            q, k, v = ((a @ w[p + f"attn.w{x}"] + w[p + f"attn.b{x}"]).reshape(3, s, -1) for x in "qkv")
            past[b] = (np.concatenate([past[b][0], k], axis=1), np.concatenate([past[b][1], v], axis=1))
            o = T.attention_array(q, *past[b], cfg.heads, full_mask[t : t + s, : t + s])[0]
            h = h + (o.reshape(3 * s, -1) @ w[p + "attn.wo"] + w[p + "attn.bo"])
            m = T.layer_norm_array(h, w[p + "ln2.g"], w[p + "ln2.b"], 1e-5)[0]
            m = T.gelu_tanh(m @ w[p + "mlp.w1"] + w[p + "mlp.b1"])[0]
            h = h + (m @ w[p + "mlp.w2"] + w[p + "mlp.b2"])
        hf = T.layer_norm_array(h, w["ln_f.g"], w["ln_f.b"], 1e-5)[0]
        assert np.array_equal(got_hf.reshape(3 * s, -1), hf)
        assert np.array_equal(got.reshape(3 * s, -1), hf @ w["tok_emb"].T)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cache_row_permutation_matches_fresh_prefill(dtype):
    params, cfg = toy_model(seed=18, dtype=dtype)
    weights = pack_weights(params, cfg)
    rng = np.random.default_rng(19)
    prompts = rng.integers(0, cfg.vocab, size=(3, 7))
    nxt = rng.integers(0, cfg.vocab, size=(5, 2))
    for parents in ([2, 0, 1], [1, 1, 1, 1, 1], [2, 0]):
        n = len(parents)
        _, _, cache = forward_cached(weights, cfg, prompts)
        cache.select(parents)
        _, _, fresh = forward_cached(weights, cfg, prompts[parents])
        for j in range(2):  # two steps, so the moved rows are read and extended
            got, got_hf, _ = forward_cached(weights, cfg, nxt[:n, j : j + 1], cache)
            want, want_hf, _ = forward_cached(weights, cfg, nxt[:n, j : j + 1], fresh)
            assert np.array_equal(got, want) and np.array_equal(got_hf, want_hf)


def prefill_rows(weights, cfg, cache, prompts):
    """Prefill each prompt alone into its own row of ``cache``."""
    cache.reset(len(prompts))
    for i, prompt in enumerate(prompts):
        forward_cached(weights, cfg, [prompt], cache, row=i)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_mixed_length_step_rows_match_rows_alone(dtype, tol):
    params, cfg = toy_model(seed=26, dtype=dtype)
    weights = pack_weights(params, cfg)
    rng = np.random.default_rng(27)
    prompts = [rng.integers(0, cfg.vocab, size=n) for n in (5, 12, 1, 9)]
    nxt = rng.integers(0, cfg.vocab, size=(4, 3))
    cache = KvCache(cfg, 1, dtype)
    prefill_rows(weights, cfg, cache, prompts)
    assert cache.lengths.tolist() == [5, 12, 1, 9]
    steps = [forward_cached(weights, cfg, nxt[:, j : j + 1], cache)[0] for j in range(3)]
    assert cache.lengths.tolist() == [8, 15, 4, 12] and cache.length == 15
    for i, prompt in enumerate(prompts):
        _, _, alone = forward_cached(weights, cfg, [prompt])
        for j, got in enumerate(steps):
            want, _, _ = forward_cached(weights, cfg, nxt[i : i + 1, j : j + 1], alone)
            np.testing.assert_allclose(got[i], want[0], rtol=0, atol=tol)


def test_mixed_length_rows_take_one_token_at_a_time():
    params, cfg = toy_model(seed=26)
    weights = pack_weights(params, cfg)
    cache = KvCache(cfg, 1, np.float32)
    prefill_rows(weights, cfg, cache, [[1, 2, 3], [4]])
    with pytest.raises(ValueError):
        forward_cached(weights, cfg, [[5, 6], [7, 8]], cache)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unused_cache_columns_never_reach_an_output(dtype):
    # every buffer column starts as NaN, as in a reused or uninitialised
    # buffer; a shorter row's masked columns, rows that grow into spare
    # capacity and moved rows must all read as if the buffers were fresh
    params, cfg = toy_model(seed=28, dtype=dtype)
    weights = pack_weights(params, cfg)
    rng = np.random.default_rng(29)
    prompts = [rng.integers(0, cfg.vocab, size=n) for n in (6, 11, 2)]
    nxt = rng.integers(0, cfg.vocab, size=(5, 1))

    def run(cache):
        prefill_rows(weights, cfg, cache, prompts)
        outs = []
        for parents in ([0, 1, 2], [0, 0, 1, 2, 2], [4, 1, 0], [2, 2, 1, 0, 0]):
            cache.select(parents)
            outs.append(forward_cached(weights, cfg, nxt[: len(parents)], cache)[0])
        return outs

    dirty = KvCache(cfg, 6, dtype)
    for buf in dirty.keys + dirty.values:
        buf[:] = np.nan
    for got, want in zip(run(dirty), run(KvCache(cfg, 1, dtype))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_cached_forward_matches_batched_forward_on_padded_batch(dtype, tol):
    params, cfg = toy_model(seed=8, dtype=dtype)
    rng = np.random.default_rng(14)
    seqs = [TrainSeq(ids=rng.integers(0, cfg.vocab, size=n), start=1, end=n) for n in (9, 24, 16)]
    inputs, _, _ = pad_batch(seqs)
    assert inputs.shape == (3, 23)
    with T.no_grad():
        want = forward(params, cfg, inputs).data
    got, _, _ = forward_cached(pack_weights(params, cfg), cfg, inputs)
    assert want.shape == got.shape == (3, 23, cfg.vocab)
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    for i, seq in enumerate(seqs):  # padding never reaches a real position
        with T.no_grad():
            alone = forward(params, cfg, seq.ids[:-1]).data
        np.testing.assert_allclose(want[i, : len(alone)], alone, rtol=0, atol=tol)


def test_cached_forward_rejects_overlong_input():
    params, cfg = toy_model()
    weights = pack_weights(params, cfg)
    with pytest.raises(LengthError):
        forward_cached(weights, cfg, np.zeros((1, cfg.max_positions + 1), dtype=np.intp))
    _, _, cache = forward_cached(weights, cfg, np.zeros((2, cfg.max_positions - 1), dtype=np.intp))
    forward_cached(weights, cfg, np.zeros((2, 1), dtype=np.intp), cache)  # the last position fits
    assert cache.length == cfg.max_positions
    with pytest.raises(LengthError):  # a step past max_positions
        forward_cached(weights, cfg, np.zeros((2, 1), dtype=np.intp), cache)
    assert cache.length == cfg.max_positions
    with pytest.raises(LengthError):
        forward_cached(weights, cfg, np.zeros((1, 0), dtype=np.intp))


# losses# losses


def seqs_for(text_prompt, text_target, vocab):
    return make_train_seq(encode(text_prompt, vocab), encode(text_target, vocab))


def test_masked_nll_covers_exact_target_span():
    vocab = train_vocab(["a b c d e"])
    seq = seqs_for("[SOS] a b", "c d e [EOS]", vocab)
    assert seq.n_target_tokens == 4


def test_masked_nll_ignores_context_rows():
    params, cfg = toy_model(vocab_size=30, dtype=np.float64)
    ids = np.arange(8) % 30
    seq = TrainSeq(ids=ids, start=5, end=8)
    with T.no_grad():
        logits = forward(params, cfg, ids[:-1]).data
    lp = T.log_softmax_rows(logits)
    want = -np.mean([lp[t - 1, ids[t]] for t in range(5, 8)])
    got = masked_nll(params, cfg, seq).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_csi_loss_is_sum_of_masked_nlls():
    params, cfg = toy_model(vocab_size=30, dtype=np.float64)
    rng = np.random.default_rng(2)
    eff = TrainSeq(ids=rng.integers(0, 30, size=12), start=6, end=12)
    cau = TrainSeq(ids=rng.integers(0, 30, size=10), start=7, end=10)
    total = item_loss([(params, cfg)], [(0, eff), (0, cau)])[0].item()
    parts = masked_nll(params, cfg, eff).item() + masked_nll(params, cfg, cau).item()
    assert total == pytest.approx(parts, abs=1e-7)


@pytest.mark.filterwarnings("ignore:cross_entropy_masked")
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_padded_batch_matches_sequences_one_at_a_time(dtype, tol):
    # unequal lengths, and two empty target spans that contribute 0
    params, cfg = toy_model(vocab_size=30, seed=7, dtype=dtype)
    rng = np.random.default_rng(13)
    spans = [(12, 5, 12), (7, 3, 7), (20, 9, 20), (9, 4, 4), (15, 15, 15), (18, 2, 11)]
    seqs = [TrainSeq(ids=rng.integers(0, 30, size=n), start=s, end=e) for n, s, e in spans]
    batched = sequence_nll(params, cfg, seqs)
    T.backward(T.tsum(batched))
    grads = {k: p.grad.copy() for k, p in params.items()}
    zero_grads(params)
    for i, seq in enumerate(seqs):
        one = masked_nll(params, cfg, seq)
        assert abs(batched.data[i] - one.item()) <= tol
        T.backward(one)
    assert batched.data[3] == batched.data[4] == 0.0
    for k, p in params.items():
        np.testing.assert_allclose(grads[k], p.grad, rtol=0, atol=tol, err_msg=k)


def test_losses_finite_for_random_weights():
    params, cfg = toy_model(vocab_size=30, seed=11)
    rng = np.random.default_rng(4)
    seq = TrainSeq(ids=rng.integers(0, 30, size=14), start=6, end=14)
    assert np.isfinite(masked_nll(params, cfg, seq).item())


def test_joint_step_additivity_and_disjoint_grads():
    theta, cfg = toy_model(vocab_size=30, seed=21, dtype=np.float64)
    beta, _ = toy_model(vocab_size=30, seed=22, dtype=np.float64)
    assert all(theta[k] is not beta[k] for k in theta)  # no shared storage
    rng = np.random.default_rng(5)
    item = JointItem(
        sentence_seq=TrainSeq(ids=rng.integers(0, 30, size=12), start=6, end=12),
        effect_seq=TrainSeq(ids=rng.integers(0, 30, size=11), start=5, end=11),
        cause_seq=TrainSeq(ids=rng.integers(0, 30, size=9), start=4, end=9),
    )
    models = [(theta, cfg), (beta, cfg)]
    total, parts = item_loss(models, item.terms)
    T.backward(total)
    assert total.item() == pytest.approx(sum(parts), abs=1e-6)
    theta_grads = {k: v.grad.copy() for k, v in theta.items()}
    beta_grads = {k: v.grad.copy() for k, v in beta.items()}

    # recompute each side alone: grads must match the joint ones exactly
    zero_grads(theta)
    zero_grads(beta)
    T.backward(masked_nll(theta, cfg, item.sentence_seq))
    for k in theta:
        assert np.allclose(theta[k].grad, theta_grads[k], atol=1e-12)
    assert all(beta[k].grad is None for k in beta)  # zero cross-grads

    zero_grads(theta)
    T.backward(item_loss(models, item.terms[1:])[0])
    for k in beta:
        assert np.allclose(beta[k].grad, beta_grads[k], atol=1e-12)
    assert all(theta[k].grad is None for k in theta)


# Adam


def test_adam_single_step_hand_oracle():
    w = Tensor(np.asarray(1.0), requires_grad=True, dtype=np.float64)
    T.backward(T.mul(w, w))  # g = 2
    state = AdamState(lr=0.1)
    adam_update({"w": w}, state)
    m_hat = (0.1 * 2.0) / (1 - 0.9)
    v_hat = (0.001 * 4.0) / (1 - 0.999)
    want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert float(w.data) == pytest.approx(want, abs=1e-12)
    assert float(w.data) == pytest.approx(0.9, abs=1e-8)
    assert state.step == 1


def test_adam_zero_grad_leaves_weights():
    params, cfg = toy_model(vocab_size=16)
    before = {k: v.data.copy() for k, v in params.items()}
    state = AdamState(lr=0.1)
    adam_update(params, state)  # all grads None == zero
    assert state.step == 1
    for k in params:
        assert np.array_equal(params[k].data, before[k])


def test_adam_returns_the_gradient_norm_before_clipping():
    params, cfg = toy_model(vocab_size=30, seed=3)
    seq = TrainSeq(ids=np.arange(12) % 30, start=4, end=12)
    T.backward(masked_nll(params, cfg, seq))
    want = global_grad_norm(params)
    assert want > 0.01
    assert adam_update(params, AdamState(), grad_clip=0.01) == want
    assert adam_update(params, AdamState(), grad_clip=None) == pytest.approx(0.01, rel=1e-5)


def test_adam_rejects_nan_grad_naming_parameter():
    w = Tensor(np.asarray(1.0), requires_grad=True)
    w.grad = np.asarray(np.nan, dtype=np.float32)
    with pytest.raises(GradientError, match="offender"):
        adam_update({"offender": w}, AdamState())


def test_training_is_bit_reproducible(tmp_path):
    stories, _ = synthetic.generate(6, seed=4)
    examples = build_nsc_corpus(stories)
    vocab = train_vocab([s for st in stories for s in st.sentences] + ["#"])
    tcfg = TrainConfig(batch_size=4, epochs=3, learning_rate=1e-3, seed=7)
    paths = []
    for run in ("a", "b"):
        cfg = LmConfig(vocab=len(vocab), layers=1, hidden=32, heads=2, max_positions=64, dropout_p=0.1)
        params = init_lm(cfg, np.random.default_rng(tcfg.seed))
        seqs = build_baseline_seqs(examples, vocab)
        train_models([(params, cfg)], [[(0, seq)] for seq in seqs], tcfg)
        p = tmp_path / f"{run}.ckpt"
        save_arrays(p, {k: v.data for k, v in params.items()})
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# perplexity


def test_perplexity_uniform_model_equals_vocab_size():
    params, cfg = toy_model(vocab_size=8, dtype=np.float64)
    for p in params.values():
        p.data = np.zeros_like(p.data)  # exactly uniform logits
    rng = np.random.default_rng(1)
    seqs = [TrainSeq(ids=rng.integers(0, 8, size=9), start=3, end=9) for _ in range(5)]
    assert np.exp(corpus_nll(params, cfg, seqs)) == pytest.approx(8.0, abs=1e-6)


def test_perplexity_is_exp_of_cross_entropy():
    params, cfg = toy_model(vocab_size=12, seed=13, dtype=np.float64)
    rng = np.random.default_rng(3)
    seqs = [TrainSeq(ids=rng.integers(0, 12, size=10), start=4, end=10) for _ in range(3)]
    total = sum(masked_nll(params, cfg, s, reduction="sum").item() for s in seqs)
    count = sum(s.n_target_tokens for s in seqs)
    assert np.exp(corpus_nll(params, cfg, seqs)) == pytest.approx(np.exp(total / count), rel=1e-6)


@pytest.mark.filterwarnings("ignore:cross_entropy_masked")
def test_perplexity_empty_corpus_is_error():
    params, cfg = toy_model()
    with pytest.raises(ValueError):
        np.exp(corpus_nll(params, cfg, []))
    no_targets = TrainSeq(ids=np.arange(6), start=3, end=3)
    with pytest.raises(ValueError):
        np.exp(corpus_nll(params, cfg, [no_targets]))


# training behavior on the synthetic corpus (fixture in conftest)


def test_joint_overfit_reaches_low_nll(overfit_world):
    w = overfit_world
    assert w["hist"].epoch_nll[-1] < 0.1
    models = [(w["theta"], w["cfg"]), (w["beta"], w["cfg"])]
    for item in w["items"][:4]:
        assert masked_nll(w["theta"], w["cfg"], item.sentence_seq).item() < 0.1
        assert item_loss(models, item.terms[1:])[0].item() < 0.1


def test_epoch_loss_decreases_monotonically_early(overfit_world):
    nll = overfit_world["hist"].epoch_nll
    assert len(nll) >= 4
    assert nll[0] > nll[1] > nll[2] > nll[3]


def test_32_example_corpus_loss_decreases_over_epochs():
    # fixed 32-example corpus (16 stories x 2 iterations), fixed seed
    from coins.train import build_joint_items

    stories, records = synthetic.generate(16, seed=9)
    examples = build_nsc_corpus(stories)
    vocab = train_vocab([s for st in stories for s in st.sentences]
                        + [r.general.raw for r in records] + ["#"])
    cfg = LmConfig(vocab=len(vocab), layers=2, hidden=64, heads=2, max_positions=160, dropout_p=0.0)
    theta = init_lm(cfg, np.random.default_rng(1))
    beta = init_lm(cfg, np.random.default_rng(2))
    items = build_joint_items(examples, vocab, Flavor.GENERAL, records)
    assert len(items) == 32
    hist = train_models([(theta, cfg), (beta, cfg)], [item.terms for item in items],
                        TrainConfig(batch_size=8, epochs=5, learning_rate=2e-3, seed=3))
    assert hist.epoch_loss[0] > hist.epoch_loss[1] > hist.epoch_loss[2] > hist.epoch_loss[3]


def test_trained_model_is_sensitive_to_dropping_the_effect_rules(overfit_world):
    w = overfit_world
    ex = w["examples"][0]
    pair = gold_rule_pairs([ex], w["records"], Flavor.GENERAL)[0][1]
    good = build_sentence_seq(ex, 1, w["vocab"], pair)
    # the prompt keeps the ending's Cause rules and loses the Effect rules
    # of the current sentence
    no_effect = RuleBundle(relation=RelationType.EFFECT, rules=(), flavor=Flavor.GENERAL)
    reduced = build_sentence_seq(ex, 1, w["vocab"], dataclasses.replace(pair, effect=no_effect))
    assert reduced.start < good.start
    assert np.array_equal(reduced.ids[reduced.start :], good.ids[good.start :])
    lg = masked_nll(w["theta"], w["cfg"], good).item()
    lr = masked_nll(w["theta"], w["cfg"], reduced).item()
    assert abs(lr - lg) > 0.05


def test_memorized_corpus_perplexity(overfit_world):
    w = overfit_world
    seqs = [i.sentence_seq for i in w["items"]]
    assert np.exp(corpus_nll(w["theta"], w["cfg"], seqs)) < 1.2


def test_dynamic_rule_conditioning(overfit_world):
    # sentence inputs track the rule model's own decodes: with the overfit
    # rule model they match the gold-rule serialization, and the refresh
    # hook keeps the joint loop running end to end
    from coins.train import decoded_rule_items

    w = overfit_world
    items = decoded_rule_items(w["examples"][:2], w["vocab"], Flavor.GENERAL,
                               w["records"], w["beta"], w["cfg"])
    assert len(items) == 4
    pair = gold_rule_pairs(w["examples"][:1], w["records"], Flavor.GENERAL)[0][1]
    gold = build_sentence_seq(w["examples"][0], 1, w["vocab"], pair)
    assert np.array_equal(items[0].sentence_seq.ids, gold.ids)

    theta = init_lm(w["cfg"], np.random.default_rng(50))
    beta = init_lm(w["cfg"], np.random.default_rng(51))
    calls = []

    def refresh(epoch):
        calls.append(epoch)
        items = decoded_rule_items(w["examples"][:2], w["vocab"], Flavor.GENERAL,
                                   w["records"], beta, w["cfg"], max_rule_tokens=24)
        return [item.terms for item in items]

    hist = train_models([(theta, w["cfg"]), (beta, w["cfg"])], [],
                        TrainConfig(batch_size=4, epochs=2, learning_rate=1e-3, seed=0),
                        refresh_items=refresh)
    assert calls == [0, 1] and hist.steps == 2


def test_baseline_overfits_eight_stories(overfit_world):
    w = overfit_world
    cfg = w["cfg"]
    params = init_lm(cfg, np.random.default_rng(3))
    seqs = build_baseline_seqs(w["examples"], w["vocab"])
    hist = train_models([(params, cfg)], [[(0, seq)] for seq in seqs],
                        TrainConfig(batch_size=8, epochs=200, learning_rate=2e-3, seed=0, target_nll=0.08))
    assert hist.epoch_nll[-1] < 0.1


# persistence


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(7,)).astype(np.float64),
    }
    p = tmp_path / "x.ckpt"
    save_arrays(p, arrays, meta={"k": "v"})
    back, meta = load_arrays(p)
    assert meta == {"k": "v"}
    for k in arrays:
        assert arrays[k].dtype == back[k].dtype
        assert np.array_equal(arrays[k], back[k])
    # identical bytes when saved again
    p2 = tmp_path / "y.ckpt"
    save_arrays(p2, back, meta={"k": "v"})
    assert p.read_bytes() == p2.read_bytes()


def test_model_save_load_round_trip(tmp_path):
    params, cfg = toy_model(vocab_size=20)
    lm = Lm(params=params, config=cfg, role="csi_gen")
    save_model(tmp_path, lm, name="beta")
    back = load_model(tmp_path, name="beta")
    assert back.role == "csi_gen" and back.config == cfg
    for k in params:
        assert np.array_equal(back.params[k].data, params[k].data)


@pytest.mark.parametrize("damage", ["truncated", "trailing"])
def test_checkpoint_size_mismatch_is_schema_error(tmp_path, damage):
    p = tmp_path / "x.ckpt"
    save_arrays(p, {"a": np.ones((3, 4), dtype=np.float32)})
    raw = p.read_bytes()
    p.write_bytes(raw[:-7] if damage == "truncated" else raw + b"\0\0\0\0")
    with pytest.raises(SchemaError, match="bytes"):
        load_arrays(p)


@pytest.mark.parametrize("sidecar", ['{"config": {"vocab": 20', '{"model_role": "sentence"}',
                                     '{"config": {"vocab": 20, "depth": 3}}', "[]"])
def test_malformed_sidecar_is_schema_error(tmp_path, sidecar):
    params, cfg = toy_model(vocab_size=20)
    save_model(tmp_path, Lm(params=params, config=cfg), name="m")
    (tmp_path / "m.json").write_text(sidecar)
    with pytest.raises(SchemaError, match="sidecar"):
        load_model(tmp_path, name="m")


def test_model_role_validation():
    params, cfg = toy_model(vocab_size=20)
    with pytest.raises(ConfigError):
        Lm(params=params, config=cfg, role="mystery")
