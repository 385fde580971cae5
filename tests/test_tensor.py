import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coins import tensor as T
from coins.tensor import Tensor, backward

from gradcheck import check_tensor_grad

RNG = np.random.default_rng


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward oracles


def test_softmax_uniform_on_equal_logits():
    y = T.softmax(Tensor(np.zeros(3, dtype=np.float64)))
    assert np.allclose(y.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = RNG(0)
    y = T.softmax(Tensor(rng.normal(size=(6, 9)) * 5), axis=-1)
    assert np.all(y.data > 0)
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)


def test_gelu_at_zero():
    assert T.gelu(Tensor(np.zeros(4))).data.tolist() == [0, 0, 0, 0]


def test_layer_norm_moments():
    rng = RNG(1)
    y = T.layer_norm(Tensor(rng.normal(2.0, 3.0, size=(5, 32)), dtype=np.float64), eps=1e-12)
    assert np.all(np.abs(y.data.mean(axis=-1)) <= 1e-6)
    assert np.allclose(y.data.var(axis=-1), 1.0, atol=1e-5)


def test_dropout_p_zero_is_identity():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    assert T.dropout(x, 0.0, None, train=True) is x
    assert T.dropout(x, 0.5, RNG(0), train=False) is x


def test_dropout_reproducible_with_seed():
    x = Tensor(np.ones((4, 5)))
    a = T.dropout(x, 0.4, RNG(7), train=True).data
    b = T.dropout(x, 0.4, RNG(7), train=True).data
    assert np.array_equal(a, b)
    assert np.all(np.isclose(a, 0.0) | np.isclose(a, 1 / 0.6))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_uniform_cross_entropy_is_log_vocab():
    logits = Tensor(np.zeros((1, 8), dtype=np.float64))
    loss = T.cross_entropy_masked(logits, [3], [True])
    assert loss.item() == pytest.approx(np.log(8), abs=1e-12)


def test_peaked_cross_entropy_goes_to_zero():
    x = np.zeros((1, 8), dtype=np.float64)
    x[0, 2] = 30.0
    loss = T.cross_entropy_masked(Tensor(x), [2], [True])
    assert loss.item() < 1e-6


def test_cross_entropy_empty_mask_warns_and_is_zero():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        loss = T.cross_entropy_masked(Tensor(np.zeros((2, 4))), [0, 1], [False, False])
    assert loss.item() == 0.0
    assert any("empty mask" in str(x.message) for x in w)


def test_cross_entropy_sum_reduction():
    rng = RNG(3)
    x = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
    tgt = [1, 2, 3, 4]
    mask = [True, False, True, True]
    mean = T.cross_entropy_masked(x, tgt, mask, reduction="mean").item()
    total = T.cross_entropy_masked(x, tgt, mask, reduction="sum").item()
    assert total == pytest.approx(3 * mean, rel=1e-12)


# ---------------------------------------------------------------------------
# backward engine contracts


def test_square_gradient():
    x = Tensor(np.asarray(3.0), requires_grad=True, dtype=np.float64)
    backward(T.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_unrelated_leaf_gets_no_gradient():
    x = Tensor(np.asarray(2.0), requires_grad=True, dtype=np.float64)
    other = Tensor(np.asarray(5.0), requires_grad=True, dtype=np.float64)
    backward(T.mul(x, x))
    assert other.grad is None  # None means zero


def test_repeated_backward_accumulates():
    x = Tensor(np.asarray(3.0), requires_grad=True, dtype=np.float64)
    backward(T.mul(x, x))
    loss = T.mul(x, x)
    backward(loss)
    assert x.grad == pytest.approx(12.0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(T.GraphError):
        backward(T.add(x, x))


def test_no_grad_suppresses_graph():
    x = Tensor(np.asarray(3.0), requires_grad=True, dtype=np.float64)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._parents == ()


def test_diamond_graph_accumulates_both_paths():
    # loss = x*x + x  -> dloss/dx = 2x + 1
    x = Tensor(np.asarray(4.0), requires_grad=True, dtype=np.float64)
    backward(T.add(T.mul(x, x), x))
    assert x.grad == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# finite-difference oracles, 64-bit, rel tol 1e-4


def test_matmul_grad_matches_finite_differences():
    rng = RNG(10)
    a, b = leaf(rng, 4, 5), leaf(rng, 5, 3)
    check_tensor_grad(lambda: T.tsum(T.matmul(a, b)), {"a": a, "b": b}, rng)


def test_add_broadcast_grad():
    rng = RNG(11)
    a, b = leaf(rng, 4, 6), leaf(rng, 6)
    check_tensor_grad(lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), {"a": a, "b": b}, rng)


def test_mul_grad():
    rng = RNG(12)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    check_tensor_grad(lambda: T.tsum(T.mul(a, b)), {"a": a, "b": b}, rng)


def test_scale_and_mean_grad():
    rng = RNG(13)
    a = leaf(rng, 5, 2)
    check_tensor_grad(lambda: T.tmean(T.scale(T.mul(a, a), 2.5)), {"a": a}, rng)


def test_softmax_grad():
    rng = RNG(14)
    a = leaf(rng, 4, 7)
    w = Tensor(rng.normal(size=(4, 7)))  # fixed projection to a scalar
    check_tensor_grad(lambda: T.tsum(T.mul(T.softmax(a), w)), {"a": a}, rng)


def test_layer_norm_grad():
    rng = RNG(15)
    a = leaf(rng, 3, 8)
    w = Tensor(rng.normal(size=(3, 8)))
    check_tensor_grad(lambda: T.tsum(T.mul(T.layer_norm(a), w)), {"a": a}, rng, h=1e-6)


def test_gelu_grad():
    rng = RNG(16)
    a = leaf(rng, 4, 4)
    check_tensor_grad(lambda: T.tsum(T.gelu(a)), {"a": a}, rng)


def test_transpose_narrow_concat_grads():
    rng = RNG(17)
    a = leaf(rng, 5, 6)
    w = Tensor(rng.normal(size=(6, 5)))

    def loss():
        t = T.transpose(a)
        left = T.narrow(t, 1, 0, 2)
        right = T.narrow(t, 1, 2, 3)
        return T.tsum(T.mul(T.concat([left, right], axis=1), w))

    check_tensor_grad(loss, {"a": a}, rng)


def test_embedding_lookup_grad_with_repeated_ids():
    rng = RNG(18)
    table = leaf(rng, 7, 3)
    ids = np.array([1, 4, 1, 6, 1])
    w = Tensor(rng.normal(size=(5, 3)))
    check_tensor_grad(lambda: T.tsum(T.mul(T.embedding_lookup(table, ids), w)), {"table": table}, rng)


def test_cross_entropy_grad_matches_finite_differences():
    rng = RNG(19)
    logits = leaf(rng, 3, 5)
    tgt = np.array([1, 0, 4])
    mask = np.array([True, False, True])
    check_tensor_grad(
        lambda: T.cross_entropy_masked(logits, tgt, mask), {"logits": logits}, rng
    )


def test_dropout_grad_uses_same_mask():
    rng = RNG(20)
    a = leaf(rng, 6, 6)

    def loss():
        return T.tsum(T.mul(T.dropout(a, 0.3, RNG(99), train=True), a))

    check_tensor_grad(loss, {"a": a}, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_randomized_shape_grads(rows, cols, seed):
    rng = RNG(seed)
    a = leaf(rng, rows, cols)
    b = leaf(rng, cols, rows)

    def loss():
        return T.tmean(T.gelu(T.matmul(T.layer_norm(a), b)))

    check_tensor_grad(loss, {"a": a, "b": b}, rng, max_entries_per_leaf=6)


# ---------------------------------------------------------------------------
# fused ops of the batched training forward, 64-bit, rel tol 1e-4


def causal(t):
    return np.triu(np.full((t, t), -np.inf), k=1)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_grad(p):
    rng = RNG(30)
    q, k, v = leaf(rng, 2, 5, 6), leaf(rng, 2, 5, 6), leaf(rng, 2, 5, 6)
    w = Tensor(rng.normal(size=(2, 5, 6)))

    def loss():
        out = T.attention(q, k, v, 3, causal(5), p, RNG(8), train=True)
        return T.tsum(T.mul(out, w))

    check_tensor_grad(loss, {"q": q, "k": k, "v": v}, rng, h=1e-6)


def test_attention_matches_per_head_softmax_oracle():
    rng = RNG(31)
    q, k, v = (rng.normal(size=(2, 4, 6)) for _ in range(3))
    got = T.attention(Tensor(q), Tensor(k), Tensor(v), 2, causal(4)).data
    for b in range(2):
        for head in range(2):
            cols = slice(3 * head, 3 * head + 3)
            scores = q[b, :, cols] @ k[b, :, cols].T / np.sqrt(3) + causal(4)
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(got[b, :, cols], weights @ v[b, :, cols], rtol=0, atol=1e-12)
    # one sequence (T, H) is the one-row batch
    one = T.attention(Tensor(q[1]), Tensor(k[1]), Tensor(v[1]), 2, causal(4)).data
    np.testing.assert_array_equal(one, got[1])


def test_affine_layer_norm_grad():
    rng = RNG(32)
    a, g, b = leaf(rng, 2, 3, 8), leaf(rng, 8), leaf(rng, 8)
    w = Tensor(rng.normal(size=(2, 3, 8)))
    check_tensor_grad(lambda: T.tsum(T.mul(T.layer_norm(a, g, b), w)), {"a": a, "g": g, "b": b},
                      rng, h=1e-6)


def test_affine_layer_norm_is_scaled_shifted_layer_norm():
    rng = RNG(33)
    x, g, b = Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
    np.testing.assert_allclose(T.layer_norm(x, g, b).data, T.layer_norm(x).data * g.data + b.data,
                               rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:cross_entropy_masked")
@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_batched_cross_entropy_grad(reduction):
    rng = RNG(34)
    logits = leaf(rng, 3, 4, 5)
    tgt = rng.integers(0, 5, size=(3, 4))
    mask = np.array([[False, True, True, False], [True, True, True, True], [False] * 4])
    w = Tensor(rng.normal(size=3))

    def loss():
        return T.tsum(T.mul(T.cross_entropy_masked(logits, tgt, mask, reduction=reduction), w))

    check_tensor_grad(loss, {"logits": logits}, rng)


@pytest.mark.filterwarnings("ignore:cross_entropy_masked")
def test_batched_cross_entropy_rows_equal_single_sequences():
    rng = RNG(35)
    x = rng.normal(size=(3, 4, 5))
    tgt = rng.integers(0, 5, size=(3, 4))
    mask = np.array([[False, True, True, False], [True, True, True, True], [False] * 4])
    rows = T.cross_entropy_masked(Tensor(x), tgt, mask).data
    assert rows.shape == (3,) and rows[2] == 0.0
    for i in range(2):
        assert rows[i] == pytest.approx(T.cross_entropy_masked(Tensor(x[i]), tgt[i], mask[i]).item(),
                                        abs=1e-12)


def test_batched_matmul_with_bias_and_embedding_grads():
    rng = RNG(36)
    a, b, bias = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
    table = leaf(rng, 6, 4)
    ids = np.array([[1, 4, 1], [0, 5, 1]])
    w = Tensor(rng.normal(size=(2, 3, 5)))

    def loss():
        x = T.add(a, T.embedding_lookup(table, ids))
        return T.tsum(T.mul(T.matmul(x, b, bias), w))

    check_tensor_grad(loss, {"a": a, "b": b, "bias": bias, "table": table}, rng)


# the plain-numpy kernels against their earlier formulas, bit for bit


def reference_layer_norm(x, gain, bias, eps):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def reference_attention(q, k, v, heads, mask):
    B, s, H = q.shape
    t, dh = k.shape[1], H // heads
    qh = q.reshape(B, s, heads, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(B, t, heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(B, t, heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ kt) * (1.0 / float(np.sqrt(dh))) + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    return (att @ vh).transpose(0, 2, 1, 3).reshape(B, s, H), att


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_array_is_bit_identical_to_mean_formula(dtype):
    rng = np.random.default_rng(40)
    for shape in [(1, 64), (7, 64), (3, 5, 32), (160, 64)]:
        x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
        gain = rng.normal(size=shape[-1]).astype(dtype)
        bias = rng.normal(size=shape[-1]).astype(dtype)
        got = T.layer_norm_array(x, gain, bias, 1e-5)
        want = reference_layer_norm(x, gain, bias, 1e-5)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
        # the backward's means too: its input gradient against the mean formula
        a, g, b = (Tensor(z, requires_grad=True) for z in (x, gain, bias))
        up = rng.normal(size=shape).astype(dtype)
        gx = up * gain
        _, xhat, inv = want
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        assert np.array_equal(T.layer_norm(a, g, b, 1e-5)._backward(up)[0], dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_array_is_bit_identical_to_out_of_place_softmax(dtype):
    rng = np.random.default_rng(41)
    for B, s, t in [(1, 1, 1), (5, 1, 37), (1, 12, 12), (3, 4, 9)]:
        q, k, v = (rng.normal(size=(B, n, 64)).astype(dtype) for n in (s, t, t))
        causal_rows = np.triu(np.full((t, t), -np.inf, dtype=dtype), k=1)[t - s :]
        got, (att, *_) = T.attention_array(q, k, v, 2, causal_rows)
        want, want_att = reference_attention(q, k, v, 2, causal_rows)
        assert np.array_equal(got, want) and np.array_equal(att, want_att)
        if s == 1:  # no mask against an explicit all-zero row
            got, (att, *_) = T.attention_array(q, k, v, 2, None)
            want, want_att = reference_attention(q, k, v, 2, np.zeros((1, t), dtype=dtype))
            assert np.array_equal(got, want) and np.array_equal(att, want_att)
