"""Gradient and semantics checks for the tensor engine.

Every differentiable op is validated against the central finite-difference
oracle in conftest (h = 1e-5, float64, max-norm relative error < 1e-4).
"""

import ctypes
import importlib.util
import inspect
import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from cmssl import tensor as T
from cmssl.networks import ModelBundle
from cmssl.pretext import PretextConfig, pretext_forward
from cmssl.tensor import Tensor

from conftest import (
    TINY_MODEL,
    assert_grad_matches,
    assert_graph_consumed,
    finite_difference_grad,
    graph_nodes,
    max_rel_error,
    tiny_batch,
)

SEEDS = list(range(10))


def rng_for(seed):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add_mul_broadcast_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            a = r.normal(size=(3, 4))
            b = r.normal(size=(4,))
            assert_grad_matches(lambda x, y: T.tsum(T.mul(T.add(x, y), x)), [a, b])

    def test_scale_sub_div_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            a = r.normal(size=(2, 3))
            b = r.normal(size=(2, 3)) + 3.0  # keep the divisor away from zero
            assert_grad_matches(lambda x, y: T.tsum(T.div(T.scale(T.sub(x, y), 2.5), y)), [a, b])

    def test_exp_log_roundtrip(self):
        r = rng_for(0)
        x = r.normal(size=(5, 3))
        out = T.tlog(T.texp(Tensor(x)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_exp_log_sqrt_relu_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            a = np.abs(r.normal(size=(4, 2))) + 0.5
            assert_grad_matches(lambda x: T.tsum(T.tlog(x)), [a])
            assert_grad_matches(lambda x: T.tsum(T.texp(x)), [a])
            assert_grad_matches(lambda x: T.tsum(T.tsqrt(x)), [a])
            b = r.normal(size=(4, 2)) + 0.1  # keep samples off the relu kink
            assert_grad_matches(lambda x: T.tsum(T.mul(T.relu(x), x)), [b])

    def test_leaky_relu_matches_where_form(self):
        # the max form must give the same bits as the select it replaced
        slope = T.LEAKY_RELU_SLOPE
        x = np.concatenate([rng_for(4).normal(size=200), [0.0, -0.0, 1e-300, -1e-300]])
        a = Tensor(x, requires_grad=True)
        out = T.leaky_relu(a)

        def bits(v):  # tells -0.0 from 0.0
            return v.view(np.int64)

        np.testing.assert_array_equal(bits(out.data), bits(np.where(x > 0, x, slope * x)))
        g = rng_for(5).normal(size=x.shape)
        T.tsum(T.mul(out, g)).backward()
        # the leaf adds its gradient into a zero buffer, which turns -0.0 into 0.0
        np.testing.assert_array_equal(bits(a.grad), bits(0.0 + g * np.where(x > 0, 1.0, slope)))
        assert_grad_matches(lambda t: T.tsum(T.mul(T.leaky_relu(t), t)), [rng_for(6).normal(size=(4, 3)) + 0.05])


class TestHeapSettings:
    @pytest.mark.parametrize("no_mallopt", ["symbol_missing", "no_c_library"])
    def test_import_without_mallopt(self, monkeypatch, no_mallopt):
        calls = []

        def cdll(name, *args, **kwargs):
            calls.append(name)
            if no_mallopt == "no_c_library":
                raise OSError("no C library handle")
            return object()  # a library without a mallopt symbol

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        spec = importlib.util.spec_from_file_location("tensor_without_mallopt", T.__file__)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert calls == [None]
        np.testing.assert_array_equal(mod.leaky_relu(mod.Tensor([-2.0, 3.0])).data, [-0.02, 3.0])


# one call of every public op, on inputs of the given shapes; the inputs are
# kept away from the log/sqrt/div singularities
DTYPE_CASES = {
    "add": (T.add, [(3, 4), (4,)]),
    "sub": (T.sub, [(3, 4), (4,)]),
    "mul": (T.mul, [(3, 4), (4,)]),
    "div": (T.div, [(3, 4), (4,)]),
    "scale": (lambda a: T.scale(a, np.float64(2.5)), [(3, 4)]),
    "texp": (T.texp, [(3, 4)]),
    "tlog": (T.tlog, [(3, 4)]),
    "tsqrt": (T.tsqrt, [(3, 4)]),
    "relu": (T.relu, [(3, 4)]),
    "leaky_relu": (T.leaky_relu, [(3, 4)]),
    "reshape": (lambda a: T.reshape(a, (4, 3)), [(3, 4)]),
    "flatten": (T.flatten, [(3, 4)]),
    "transpose": (lambda a: T.transpose(a, (1, 0)), [(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=0), [(3, 4), (2, 4)]),
    "tsum": (lambda a: T.tsum(a, axis=1), [(3, 4)]),
    "tmean": (lambda a: T.tmean(a, axis=0), [(3, 4)]),
    "matmul": (lambda a, b, c: T.matmul(T.matmul(a, b), c), [(2, 3, 4), (4, 5), (2, 5, 3)]),
    "softmax": (lambda a: T.softmax(a, axis=1), [(3, 4)]),
    "logsumexp": (lambda a: T.logsumexp(a, axis=1), [(3, 4)]),
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "dropout": (lambda a: T.dropout(a, 0.25, rng=np.random.default_rng(0)), [(3, 4)]),
    "global_avg_pool": (T.global_avg_pool, [(3, 2, 2)]),
    "cosine_similarity": (T.cosine_similarity, [(5,), (5,)]),
    "l2_normalize": (lambda a: T.l2_normalize(a, axis=1), [(3, 4)]),
    "conv2d": (lambda a, k, g, b: T.conv2d(a, k, g, b, (2, 1), (1, 1), True),
               [(2, 2, 5, 5), (3, 2, 3, 3), (1, 3, 1, 1), (1, 3, 1, 1)]),
    "conv3d": (lambda a, k, g, b: T.conv3d(a, k, g, b, (1, 2, 1), (1, 0, 1), False),
               [(2, 2, 3, 5, 4), (3, 2, 3, 3, 3), (1, 3, 1, 1, 1), (1, 3, 1, 1, 1)]),
}


class TestDtypes:
    def test_cases_cover_every_public_op(self):
        public = {
            name for name, f in vars(T).items()
            if inspect.isfunction(f) and f.__module__ == T.__name__ and not name.startswith("_")
        }
        assert public - {"no_grad"} == DTYPE_CASES.keys()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(DTYPE_CASES))
    def test_output_and_grads_keep_the_input_dtype(self, name, dtype, grad_dtypes):
        build, shapes = DTYPE_CASES[name]
        r = rng_for(0)
        leaves = [Tensor((r.uniform(0.5, 1.5, size=s) * r.choice([-1, 1], size=s)).astype(dtype), requires_grad=True)
                  for s in shapes]
        if name in ("tlog", "tsqrt"):
            leaves = [Tensor(np.abs(leaves[0].data), requires_grad=True)]
        out = build(*leaves)
        loss = T.tsum(T.mul(out, out))
        assert {n.dtype for n in graph_nodes(loss)} == {np.dtype(dtype)}
        loss.backward()
        assert grad_dtypes == {np.dtype(dtype)}
        for i, leaf in enumerate(leaves):
            assert leaf.grad.dtype == dtype, f"input {i}"
            assert np.isfinite(leaf.grad).all() and np.abs(leaf.grad).max() > 0, f"input {i}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_scalar_takes_the_tensor_dtype(self, dtype, grad_dtypes):
        x = Tensor(np.array([1.0, 2.0], dtype=dtype), requires_grad=True)
        for out in (T.add(x, 1e-8), T.add(1e-8, x), T.sub(x, 2), T.sub(2, x), T.mul(x, np.float64(0.5)),
                    T.div(x, 3.0), T.div(3.0, x), T.add(x, 1.0), T.mul(x, 2), T.div(x, 4.0),
                    T.scale(x, -1.0)):
            assert out.data.dtype == dtype
            T.tsum(out).backward()
        assert x.grad.dtype == dtype and grad_dtypes == {np.dtype(dtype)}

    def test_tensor_keeps_float32_and_float64_and_widens_the_rest(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        for data in (np.ones(2), np.ones(2, dtype=np.float16), np.ones(2, dtype=np.int64),
                     np.ones(2, dtype=">f4"), [1, 2], 3.0, True):
            assert Tensor(data).data.dtype == np.float64, repr(data)

    def test_mixed_dtypes_promote_and_each_leaf_keeps_its_own(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        out = T.tsum(T.mul(a, b))
        assert out.data.dtype == np.float64
        a.grad = None  # a's buffer is then made from its first (float64) gradient
        out.backward()
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        np.testing.assert_array_equal(a.grad, 2.0)


class TestShapeOps:
    def test_reshape_flatten_transpose_concat_grads(self):
        for seed in SEEDS[:5]:
            r = rng_for(seed)
            a = r.normal(size=(2, 3, 4))
            b = r.normal(size=(2, 3, 4))

            def build(x, y):
                cat = T.concat([x, y], axis=1)
                tr = T.transpose(cat, (1, 0, 2))
                return T.tsum(T.mul(T.flatten(tr), T.flatten(tr)))

            assert_grad_matches(build, [a, b])

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = T.tsum(T.scale(T.concat([a, b], axis=0), 3.0))
        out.backward()
        np.testing.assert_allclose(a.grad, 3.0)
        np.testing.assert_allclose(b.grad, 3.0)


class TestReductions:
    def test_sum_mean_axes_grads(self):
        for seed in SEEDS[:5]:
            r = rng_for(seed)
            a = r.normal(size=(3, 4, 2))
            assert_grad_matches(lambda x: T.tsum(T.mul(T.tsum(x, axis=1), T.tsum(x, axis=1))), [a])
            assert_grad_matches(lambda x: T.tsum(T.mul(T.tmean(x, axis=(0, 2)), T.tmean(x, axis=(0, 2)))), [a])


class TestMatmul:
    def test_2d_and_nd_grads(self):
        for seed in SEEDS[:5]:
            r = rng_for(seed)
            a = r.normal(size=(3, 4))
            w = r.normal(size=(4, 2))
            assert_grad_matches(lambda x, y: T.tsum(T.mul(T.matmul(x, y), T.matmul(x, y))), [a, w])
            b = r.normal(size=(2, 3, 4))
            assert_grad_matches(lambda x, y: T.tsum(T.matmul(x, y)), [b, w])

    def test_batched_3d_grads(self):
        for seed in SEEDS[:5]:
            r = rng_for(seed)
            # one batch dim, and two: the attention's (B, heads) layout
            for lead in ((2,), (2, 3)):
                a = r.normal(size=lead + (3, 4))
                b = r.normal(size=lead + (4, 5))
                assert_grad_matches(lambda x, y: T.tsum(T.mul(T.matmul(x, y), T.matmul(x, y))), [a, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dims"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)),
        ((2, 3, 3, 4), (2, 2, 4, 5)),
        ((1, 3, 4), (2, 4, 5)),  # numpy would broadcast; the backward does not
    ])
    def test_unequal_leading_dims_rejected(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=re.escape(f"batch dims differ: {a_shape} @ {b_shape}")):
            T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


class TestSoftmax:
    def test_uniform_on_constant(self):
        for n in (2, 5, 9):
            out = T.softmax(Tensor(np.full(n, 3.7)), axis=0)
            np.testing.assert_allclose(out.data, 1.0 / n, atol=1e-12)

    def test_rows_sum_to_one(self):
        r = rng_for(1)
        x = r.normal(size=(6, 7)) * 10
        out = T.softmax(Tensor(x), axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_logsumexp_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            a = r.normal(size=(3, 4))
            w = r.normal(size=(3, 4))
            assert_grad_matches(lambda x: T.tsum(T.mul(T.softmax(x, axis=1), Tensor(w))), [a])
            assert_grad_matches(lambda x: T.tsum(T.logsumexp(x, axis=1)), [a])


class TestLayerNorm:
    def test_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            x = r.normal(size=(2, 5))
            gamma = r.normal(size=(5,))
            beta = r.normal(size=(5,))
            assert_grad_matches(
                lambda a, g, b: T.tsum(T.mul(T.layer_norm(a, g, b), T.layer_norm(a, g, b))),
                [x, gamma, beta],
            )


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = T.dropout(x, 0.5, training=False)
        assert out is x

    def test_mask_is_stored_for_backward(self):
        r = rng_for(0)
        x = Tensor(np.ones((100,)), requires_grad=True)
        out = T.dropout(x, 0.4, rng=r, training=True)
        T.tsum(out).backward()
        # grad equals the applied mask: zeros where dropped, 1/(1-p) elsewhere
        np.testing.assert_allclose(x.grad, out.data)

    def test_fixed_mask_grad_matches_fd(self):
        for seed in SEEDS[:3]:
            a = rng_for(seed).normal(size=(4, 4))

            def build(x, _seed=seed):
                return T.tsum(T.mul(T.dropout(x, 0.3, rng=rng_for(1000 + _seed)), x))

            assert_grad_matches(build, [a])


class TestGlobalAvgPool:
    def test_constant_tensor(self):
        out = T.global_avg_pool(Tensor(np.full((3, 2, 2, 2), 5.0)))
        np.testing.assert_allclose(out.data, [5.0, 5.0, 5.0])

    def test_singleton_spatial_is_identity(self):
        x = np.arange(4.0).reshape(4, 1, 1, 1)
        out = T.global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.reshape(4))

    def test_matches_flat_summation_oracle(self):
        r = rng_for(7)
        x = r.normal(size=(3, 2, 2, 2))
        out = T.global_avg_pool(Tensor(x))
        expected = np.array([x[c].reshape(-1).sum() / x[c].size for c in range(3)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rank1_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            T.global_avg_pool(Tensor(np.ones(3)))

    def test_grads(self):
        for seed in SEEDS[:5]:
            a = rng_for(seed).normal(size=(2, 3, 2))
            assert_grad_matches(lambda x: T.tsum(T.mul(T.global_avg_pool(x), T.global_avg_pool(x))), [a])


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        for seed in SEEDS:
            v = rng_for(seed).normal(size=8) + 0.1
            assert T.cosine_similarity(Tensor(v), Tensor(v)).item() == pytest.approx(1.0, abs=1e-7)

    def test_antiparallel_is_minus_one(self):
        v = np.array([1.0, -2.0, 0.5])
        assert T.cosine_similarity(Tensor(v), Tensor(-v)).item() == pytest.approx(-1.0, abs=1e-7)

    def test_analytic_value(self):
        c = T.cosine_similarity(Tensor([1.0, 0.0]), Tensor([1.0, 1.0]))
        assert c.item() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-7)

    def test_zero_norm_does_not_crash(self):
        c = T.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert np.isfinite(c.item())

    def test_grads(self):
        for seed in SEEDS:
            r = rng_for(seed)
            a = r.normal(size=6) + 0.2
            b = r.normal(size=6) + 0.2
            assert_grad_matches(lambda x, y: T.cosine_similarity(x, y), [a, b])

    def test_value_in_range(self):
        for seed in SEEDS:
            r = rng_for(seed)
            c = T.cosine_similarity(Tensor(r.normal(size=5)), Tensor(r.normal(size=5)))
            assert -1.0 - 1e-9 <= c.item() <= 1.0 + 1e-9


@pytest.fixture
def nan_filled_empty(monkeypatch):
    """np.empty hands out NaN-filled arrays, so a cell that the input gradient
    or a conv stage allocates and never writes reads NaN instead of whatever
    the allocator left there (often zeros)."""
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float, *a, **kw: np.full(shape, np.nan, dtype=dtype))


def conv_out_sp(x_shape, k_shape, stride, padding) -> tuple:
    """The output positions per axis of a conv of x_shape (B, cin, *spatial)
    with kernels of k_shape (cout, cin, *ksp)."""
    return tuple((n + 2 * p - k) // s + 1 for n, k, s, p in zip(x_shape[2:], k_shape[2:], stride, padding))


def stage(x, k, gamma, beta, stride, padding, leaky):
    """T.conv3d or T.conv2d, picked by the length of stride."""
    conv = T.conv3d if len(stride) == 3 else T.conv2d
    return conv(x, k, gamma, beta, stride, padding, leaky)


def stage_arrays(x_shape, k_shape, dtype, seed=0):
    """Random input, kernels, gamma near 1 and beta near 0 of a conv stage."""
    r = rng_for(seed)
    gshape = (1, k_shape[0]) + (1,) * (len(x_shape) - 2)
    return [r.normal(size=x_shape).astype(dtype), r.normal(size=k_shape).astype(dtype),
            (1.0 + 0.5 * r.normal(size=gshape)).astype(dtype), (0.5 * r.normal(size=gshape)).astype(dtype)]


def explicit_patches(x, k_shape, stride, padding):
    """(B, cin, prod(ksp), prod(out_sp)) patches of x, gathered by fancy
    indexing from an np.pad copy."""
    nd = len(stride)
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    out_sp = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], k_shape[2:], stride))
    offs = np.array(list(np.ndindex(*k_shape[2:])))
    outs = np.array(list(np.ndindex(*out_sp)))
    pos = offs[:, None, :] + outs[None, :, :] * np.array(stride)
    return xp[(slice(None), slice(None)) + tuple(pos[..., i] for i in range(nd))]


def channels_last(cin: int) -> bool:
    """Whether a stage reading cin channels runs channels-last."""
    return cin >= T._CHANNELS_LAST_MIN_CIN


def as_map(rows, B, out_sp) -> np.ndarray:
    """(B, cout, *out_sp) view of a stage's (B*N, cout) rows."""
    return np.moveaxis(rows.reshape((B,) + tuple(out_sp) + (rows.shape[1],)), -1, 1)


def reference_rows(x, k, stride, padding) -> np.ndarray:
    """The convolution of x by k as (B*N, cout) rows, one GEMM of patches
    whose K = prod(ksp)*cin columns run over (*ksp, cin) with the (K, cout)
    kernels, in the layout of the stage: channels-last, the (B*N, K) patches
    times the kernels; channel-first, the transposed kernels times the
    (K, B*N) patches, transposed."""
    cout, cin = k.shape[:2]
    P = explicit_patches(x, k.shape, stride, padding)  # (B, cin, prod(ksp), N)
    kmat = np.ascontiguousarray(k.reshape(cout, cin, -1).transpose(2, 1, 0)).reshape(-1, cout)
    if channels_last(cin):
        return np.ascontiguousarray(P.transpose(0, 3, 2, 1)).reshape(-1, kmat.shape[0]) @ kmat
    return (kmat.T @ np.ascontiguousarray(P.transpose(2, 1, 0, 3)).reshape(kmat.shape[0], -1)).T


def reference_conv(x, k, stride, padding) -> np.ndarray:
    """The convolution of x by k, (B, cout, *out_sp), by reference_rows."""
    return as_map(reference_rows(x, k, stride, padding), x.shape[0], conv_out_sp(x.shape, k.shape, stride, padding))


def reference_stage(x, k, gamma, beta, stride, padding, leaky) -> np.ndarray:
    """The conv stage in numpy: reference_rows, then _normalize over the
    channels, times gamma plus beta, then _leaky when leaky."""
    cout = k.shape[0]
    y = T._normalize(reference_rows(x, k, stride, padding))[0] * gamma.reshape(1, cout) + beta.reshape(1, cout)
    y = T._leaky(y) if leaky else y
    return as_map(y, x.shape[0], conv_out_sp(x.shape, k.shape, stride, padding))


def stage_gmat(g, layout_channels_last: bool) -> np.ndarray:
    """The upstream gradient g (B, cout, *out_sp) as the (B*N, cout) rows
    the conv kernels read: C order channels-last, else the transposed view
    of a channel-major array."""
    cout = g.shape[1]
    if layout_channels_last:
        return np.ascontiguousarray(np.moveaxis(g, 1, -1)).reshape(-1, cout)
    return np.ascontiguousarray(np.moveaxis(g, 1, 0)).reshape(cout, -1).T


def layout_strides(shape, channels_last_memory: bool) -> tuple:
    """The strides of a float64 (B, cin, *spatial) array laid out
    channels-last in memory, or channel-major, (cin, B, *spatial)."""
    if channels_last_memory:
        return np.moveaxis(np.empty((shape[0],) + tuple(shape[2:]) + (shape[1],)), -1, 1).strides
    return np.moveaxis(np.empty((shape[1], shape[0]) + tuple(shape[2:])), 0, 1).strides


@pytest.mark.usefixtures("nan_filled_empty")
class TestConv:
    """The conv stage's forward against reference_stage, and its kernels
    _conv_input_grad and _conv_kernel_grad against numpy oracles."""

    @pytest.mark.parametrize("leaky", [True, False])
    @pytest.mark.parametrize("nd", [2, 3])
    def test_identity_kernel(self, nd, leaky):
        # a 1x1 identity kernel passes x through, so the stage only normalizes it
        x, _, gamma, beta = stage_arrays((2, 3) + (3, 4, 4)[-nd:], (3, 3) + (1,) * nd, np.float64)
        k = np.eye(3).reshape((3, 3) + (1,) * nd)
        ones, zeros = (1,) * nd, (0,) * nd
        np.testing.assert_array_equal(reference_conv(x, k, ones, zeros), x)
        out = stage(*map(Tensor, (x, k, gamma, beta)), ones, zeros, leaky)
        np.testing.assert_array_equal(out.data, reference_stage(x, k, gamma, beta, ones, zeros, leaky))

    @pytest.mark.parametrize("leaky", [True, False])
    def test_zero_input_gives_beta(self, leaky):
        # a zero conv output normalizes to zero, so every cell is beta
        k = rng_for(1).normal(size=(2, 3, 3, 3, 3))
        beta = np.array([0.5, -2.0]).reshape(1, 2, 1, 1, 1)
        out = T.conv3d(Tensor(np.zeros((1, 3, 4, 6, 6))), Tensor(k), Tensor(np.full(beta.shape, 3.0)), Tensor(beta),
                       (1, 1, 1), (1, 1, 1), leaky)
        np.testing.assert_array_equal(out.data, np.broadcast_to(T._leaky(beta) if leaky else beta, out.shape))

    def test_conv2d_matches_naive_loops(self):
        r = rng_for(2)
        x = r.normal(size=(2, 6, 7))
        k = r.normal(size=(3, 2, 3, 3))
        _, _, gamma, beta = stage_arrays((1, 2, 6, 7), k.shape, np.float64, seed=2)
        conv = reference_conv(x[None], k, (2, 1), (1, 0))[0]
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        naive = np.zeros_like(conv)
        for co in range(3):
            for i in range(conv.shape[1]):
                for j in range(conv.shape[2]):
                    patch = xp[:, i * 2 : i * 2 + 3, j : j + 3]
                    naive[co, i, j] = (patch * k[co]).sum()
        np.testing.assert_allclose(conv, naive, atol=1e-12)
        out = T.conv2d(*map(Tensor, (x[None], k, gamma, beta)), (2, 1), (1, 0), True)
        np.testing.assert_array_equal(out.data, reference_stage(x[None], k, gamma, beta, (2, 1), (1, 0), True))

    @pytest.mark.parametrize("nd", [2, 3])
    def test_batched_matches_per_sample(self, nd):
        x_shape, k_shape = (3, 2) + (4, 5, 5)[-nd:], (4, 2) + (3, 3, 3)[-nd:]
        x, k, gamma, beta = stage_arrays(x_shape, k_shape, np.float64, seed=4)
        ones = (1,) * nd
        batched = stage(*map(Tensor, (x, k, gamma, beta)), ones, ones, True).data
        for b in range(3):
            single = reference_stage(x[b : b + 1], k, gamma, beta, ones, ones, True)
            np.testing.assert_allclose(batched[b : b + 1], single, atol=1e-12)

    @staticmethod
    def col2im_oracle(g, k, x_shape, stride, padding):
        """dL/dx of a convolution with upstream gradient g, by scattering every
        (kernel offset, output position) product with np.add.at."""
        B, cin = x_shape[:2]
        cout, nd = k.shape[0], len(stride)
        out_sp = g.shape[2:]
        dpatch = np.einsum("ocp,bon->bcpn", k.reshape(cout, cin, -1), g.reshape(B, cout, -1))
        offs = np.array(list(np.ndindex(*k.shape[2:])))
        outs = np.array(list(np.ndindex(*out_sp)))
        pos = offs[:, None, :] + outs[None, :, :] * np.array(stride)
        dxp = np.zeros((B, cin) + tuple(n + 2 * p for n, p in zip(x_shape[2:], padding)))
        np.add.at(dxp, (slice(None), slice(None)) + tuple(pos[..., i] for i in range(nd)), dpatch)
        core = tuple(slice(p, p + n) for n, p in zip(x_shape[2:], padding))
        return dxp[(slice(None), slice(None)) + core]

    def check_input_grad(self, seed, x_shape, k_shape, stride, padding, dtype=np.float64):
        """_conv_input_grad against col2im_oracle in float64, with the
        upstream gradient in each stage layout and the input in each memory
        layout; returns every dx, (B, cin, *spatial)."""
        r = rng_for(seed)
        k = r.normal(size=k_shape)
        out_sp = conv_out_sp(x_shape, k_shape, stride, padding)
        g = r.normal(size=(x_shape[0], k_shape[0]) + out_sp)
        want = self.col2im_oracle(g, k, x_shape, stride, padding)
        # float32: rounding of a sum of ~cout*prod(k) products of unit scale
        tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-5, atol=1e-4)
        got = []
        for cl, x_cl in itertools.product((False, True), repeat=2):
            strides = layout_strides(x_shape, x_cl)
            dx = T._conv_input_grad(stage_gmat(g, cl).astype(dtype), k.astype(dtype), x_shape, strides, out_sp,
                                    stride, padding)
            assert dx.dtype == dtype and np.argsort(dx.strides).tolist() == np.argsort(strides).tolist()
            np.testing.assert_allclose(dx, want, **tol, err_msg=f"gmat channels-last {cl}, x channels-last {x_cl}")
            got.append(dx)
        return got

    @pytest.mark.parametrize("nd", [2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("p", [0, 1])
    def test_input_grad_matches_col2im_oracle(self, nd, s, p):
        self.check_input_grad(
            10 * nd + 2 * s + p, (2, 3) + (5, 7, 6)[-nd:], (4, 3) + (3, 2, 3)[-nd:], (s,) * nd, (p,) * nd
        )

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            # m_net's last stage: stride 1 in time, 2 in space
            ((2, 3, 4, 8, 8), (4, 3, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
            ((2, 3, 7, 5, 9), (4, 3, 3, 2, 3), (2, 1, 3), (1, 0, 1)),
            # n + 2p - k not divisible by s on every axis: the last rows are read by no window
            ((2, 3, 8, 9, 10), (2, 3, 3, 2, 3), (2, 3, 4), (0, 1, 0)),
            ((3, 2, 11, 6), (3, 2, 4, 3), (3, 2), (1, 1)),
            # kernels shorter than their strides along T and H, and H's last
            # input row past the last window: no phase writes those cells
            ((2, 3, 7, 11, 6), (4, 3, 1, 2, 3), (2, 3, 2), (0, 1, 1)),
            # a kernel as long as its stride along W, ragged along H and W
            ((2, 3, 10, 7), (3, 3, 3, 2), (2, 2), (0, 0)),
            # E == O on every axis: a 1x1 kernel with no padding, and
            # kernel 2 at stride 2, with the stems' and the later stages'
            # channel counts
            ((2, 3, 4, 5, 6), (4, 3, 1, 1, 1), (1, 1, 1), (0, 0, 0)),
            ((2, 8, 5, 6), (4, 8, 1, 1), (1, 1), (0, 0)),
            ((2, 3, 8, 6), (4, 3, 2, 2), (2, 2), (0, 0)),
            ((2, 8, 4, 8, 6), (4, 8, 2, 2, 2), (2, 2, 2), (0, 0, 0)),
        ],
        ids=["strides_1_2_2", "strides_2_1_3", "ragged_3d", "ragged_2d", "short_kernel_3d", "ragged_end_2d",
             "1x1_unpadded_3d", "1x1_unpadded_2d_cin8", "kernel_2_stride_2_2d", "kernel_2_stride_2_3d_cin8"],
    )
    def test_input_grad_matches_col2im_oracle_per_axis(self, x_shape, k_shape, stride, padding):
        self.check_input_grad(7, x_shape, k_shape, stride, padding)

    def test_input_grad_zero_where_no_window_reads(self):
        # kernel 2 < stride 3 along H: padded rows 2, 5, 8 are read by no
        # window; kernel 1 < stride 2 along W: odd columns are never read
        unread = np.zeros((2, 3, 9, 8), dtype=bool)
        unread[:, :, 2::3, :] = True
        unread[:, :, :, 1::2] = True
        for dx in self.check_input_grad(8, (2, 3, 9, 8), (4, 3, 2, 1), (3, 2), (0, 0)):
            assert np.all(dx[unread] == 0.0)
            assert np.all(dx[~unread] != 0.0)
        # the same with padding: padded row i is input row i - 1
        for dx in self.check_input_grad(9, (2, 3, 5, 9, 8), (4, 3, 3, 2, 1), (2, 3, 2), (1, 1, 0)):
            assert np.all(dx[:, :, :, 1::3, :] == 0.0) and np.all(dx[:, :, :, :, 1::2] == 0.0)

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            ((2, 16, 4, 16, 16), (8, 16, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            ((2, 8, 2, 8, 8), (8, 8, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
            ((2, 8, 16, 16), (8, 8, 3, 3), (2, 2), (1, 1)),
        ],
        ids=["v_net_stage2", "m_net_stage3", "i_net_stage2"],
    )
    def test_float32_input_grad_matches_float64_oracle(self, x_shape, k_shape, stride, padding):
        self.check_input_grad(11, x_shape, k_shape, stride, padding, dtype=np.float32)

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            ((2, 3, 5, 7, 6), (4, 3, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            # a kernel no longer than its stride: the zero extension adds no
            # row (E == O), so the input gradient copies its gradient as it is
            ((1, 3, 6, 8), (2, 3, 2, 2), (2, 2), (0, 0)),
            ((2, 8, 5, 7, 6), (4, 8, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            ((1, 8, 6, 8), (2, 8, 2, 2), (2, 2), (0, 0)),
        ],
        ids=["extended", "unextended", "extended_channels_last", "unextended_channels_last"],
    )
    def test_backward_leaves_its_gradient_unchanged(self, x_shape, k_shape, stride, padding):
        leaves = [Tensor(a, requires_grad=True) for a in stage_arrays(x_shape, k_shape, np.float64, seed=12)]
        x, k = leaves[:2]
        out = stage(*leaves, stride, padding, True)
        g = rng_for(12).normal(size=out.shape)
        before = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, before)
        assert all(np.any(leaf.grad != 0.0) for leaf in leaves)
        # the kernels read the pre-norm gradient the closure hands them, in
        # either stage layout
        for cl in (False, True):
            gmat = stage_gmat(g, cl)
            before = gmat.copy()
            T._conv_input_grad(gmat, k.data, x_shape, x.data.strides, out.shape[2:], stride, padding)
            T._conv_kernel_grad(gmat, x.data, k_shape[2:], out.shape[2:], stride, padding, [(0, x_shape[0])], cl)
            np.testing.assert_array_equal(gmat, before)

    @pytest.mark.parametrize("x_grad, k_grad", [(True, True), (False, True), (True, False)])
    def test_closure_holds_its_input_and_kernels_not_their_patches(self, x_grad, k_grad):
        # v_net's second conv: the patch matrix (432, 2*4*16*16) is 3.2 times
        # the input plus the kernels, and the zero-padded input is 1.4 times
        # the input; the kernel gradient rebuilds both from the input
        r = rng_for(13)
        x = Tensor(r.normal(size=(2, 16, 8, 32, 32)), requires_grad=x_grad)
        k = Tensor(r.normal(size=(32, 16, 3, 3, 3)), requires_grad=k_grad)
        gamma, beta = Tensor(np.ones((1, 32, 1, 1, 1))), Tensor(np.zeros((1, 32, 1, 1, 1)))
        out = T.conv3d(x, k, gamma, beta, (2, 2, 2), (1, 1, 1), False)
        held = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        # besides the input and the kernels: xhat, 1/sigma and gamma's view
        norm = out.data.nbytes + out.data.nbytes // 32 + gamma.data.nbytes
        assert sum(v.nbytes for v in held) <= x.data.nbytes + k.data.nbytes + norm
        # the kernel gradient reads the input, the input gradient the kernels
        assert any(v is x.data for v in held) == k_grad
        assert any(v is k.data for v in held) == x_grad
        if not k_grad:
            assert not any(np.shares_memory(v, x.data) for v in held)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            # the model's convolutions, with fewer channels and clips
            ((2, 3, 4, 12, 12), (4, 3, 1, 3, 3), (1, 1, 1), (0, 1, 1)),
            ((2, 4, 4, 12, 12), (5, 4, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            ((2, 3, 12, 12), (4, 3, 3, 3), (1, 1), (1, 1)),
            ((2, 4, 12, 12), (5, 4, 3, 3), (2, 2), (1, 1)),
            ((2, 2, 4, 16, 16), (4, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            ((2, 4, 2, 8, 8), (5, 4, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
            # stride past the kernel, so some inputs are read by no window
            ((2, 3, 7, 11, 6), (4, 3, 1, 2, 3), (2, 3, 4), (0, 1, 1)),
            ((2, 3, 9, 8), (4, 3, 2, 1), (3, 2), (0, 0)),
            # no padding, ragged ends
            ((2, 3, 8, 9, 10), (2, 3, 3, 2, 3), (2, 3, 2), (0, 0, 0)),
            # patch matrices past _PATCH_CHUNK_BYTES: the kernel gradient sums
            # chunks of 1+1 samples in both dtypes; of 1+1+1+1+1 in float64
            # and 1+2+2 or 2+3 in float32
            ((2, 20, 4, 16, 16), (3, 20, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
            ((5, 32, 4, 8, 16), (3, 32, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
            ((5, 64, 16, 32), (3, 64, 3, 3), (1, 1), (1, 1)),
        ],
        ids=["v_net_stem", "v_net_stage2", "i_net_stem", "i_net_stage2", "m_net_stage1", "m_net_stage3",
             "stride_past_kernel_3d", "stride_past_kernel_2d", "unpadded_3d",
             "chunked_one_sample_3d", "chunked_uneven_3d", "chunked_uneven_2d"],
    )
    def test_kernel_grad_matches_patch_oracle(self, x_shape, k_shape, stride, padding, dtype):
        """_conv_kernel_grad, in either stage layout, over the chunks of
        samples a conv stage of these shapes uses, against dL/dk of
        L = sum(conv(x, k) * g): the einsum of g with the patches, computed
        in float64."""
        r = rng_for(15)
        x = r.normal(size=x_shape)
        out_sp = conv_out_sp(x_shape, k_shape, stride, padding)
        g = r.normal(size=(x_shape[0], k_shape[0]) + out_sp)
        per_sample = int(np.prod(k_shape[1:])) * int(np.prod(out_sp)) * np.dtype(dtype).itemsize
        chunks = T._sample_chunks(x_shape[0], per_sample, T._PATCH_CHUNK_BYTES)
        B, cout = g.shape[:2]
        want = np.einsum("bcpn,bon->ocp", explicit_patches(x, k_shape, stride, padding),
                         g.reshape(B, cout, -1)).reshape(k_shape)
        # float32: as in check_input_grad
        tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-5, atol=1e-4)
        for cl in (False, True):
            gk = T._conv_kernel_grad(stage_gmat(g, cl).astype(dtype), x.astype(dtype), k_shape[2:], out_sp, stride,
                                     padding, chunks, cl)
            assert gk.dtype == dtype and gk.shape == k_shape
            np.testing.assert_allclose(gk, want, **tol, err_msg=f"channels_last={cl}")

    def test_channel_mismatch_rejected(self):
        gamma, beta = Tensor(np.ones((1, 2, 1, 1, 1))), Tensor(np.zeros((1, 2, 1, 1, 1)))
        with pytest.raises(ValueError, match="channels"):
            T.conv3d(Tensor(np.ones((1, 3, 4, 4, 4))), Tensor(np.ones((2, 4, 3, 3, 3))), gamma, beta,
                     (1, 1, 1), (0, 0, 0), False)

    def test_unbatched_input_rejected(self):
        gamma, beta = Tensor(np.ones((1, 2, 1, 1, 1))), Tensor(np.zeros((1, 2, 1, 1, 1)))
        with pytest.raises(ValueError, match=r"^conv3d: input rank must be 5, got 4$"):
            T.conv3d(Tensor(np.ones((3, 4, 4, 4))), Tensor(np.ones((2, 3, 3, 3, 3))), gamma, beta,
                     (1, 1, 1), (0, 0, 0), False)
        with pytest.raises(ValueError, match=r"^conv2d: input rank must be 4, got 3$"):
            T.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 3, 3, 3))), gamma, beta, (1, 1), (0, 0), False)

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError, match="H"):
            T.conv2d(Tensor(np.ones((1, 1, 2, 8))), Tensor(np.ones((1, 1, 5, 3))), Tensor(np.ones((1, 1, 1, 1))),
                     Tensor(np.zeros((1, 1, 1, 1))), (1, 1), (0, 0), False)


def model_convs():
    """One sample's input shape, the kernel shape, stride and padding of each
    convolution of the default model, stage by stage, as pytest params."""
    bundle, convs = ModelBundle(seed=0), []
    for net, x_shape in (("v_net", (3, 8, 32, 32)), ("i_net", (3, 32, 32)), ("m_net", (2, 8, 32, 32))):
        for i, (kernel, _, _, stride, padding) in enumerate(getattr(bundle, net).layers):
            convs.append(pytest.param(x_shape, kernel.shape, stride, padding, id=f"{net}_conv{i}"))
            x_shape = (kernel.shape[0],) + conv_out_sp((1,) + x_shape, kernel.shape, stride, padding)
    return convs


class TestConvChunks:
    """A conv whose patch matrix would pass _PATCH_CHUNK_BYTES builds it in
    balanced chunks of samples."""

    def test_fewest_balanced_chunks_within_the_budget(self):
        budget = T._PATCH_CHUNK_BYTES
        # m_net's second conv at 24 clips: 18 samples fit, so 12 + 12, not 18 + 6
        per_sample = 432 * 128 * 4
        assert budget // per_sample == 18
        assert T._sample_chunks(24, per_sample, budget) == [(0, 12), (12, 24)]
        # a batch that fits is one chunk, and a sample past the budget is a chunk of its own
        assert T._sample_chunks(18, per_sample, budget) == [(0, 18)]
        assert T._sample_chunks(3, budget + 1, budget) == [(0, 1), (1, 2), (2, 3)]
        for B in range(1, 40):
            for per in (1, 2, 5, 18):
                chunks = T._sample_chunks(B, budget // per, budget)
                sizes = [hi - lo for lo, hi in chunks]
                assert chunks[0][0] == 0 and chunks[-1][1] == B
                assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                assert max(sizes) <= per and max(sizes) - min(sizes) <= 1
                assert len(chunks) == -(-B // per)

    @pytest.mark.parametrize("B", [1, 5, 16, 24])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", model_convs())
    def test_forward_bit_identical_to_one_gemm(self, x_shape, k_shape, stride, padding, dtype, B):
        # the stems against the channel-first GEMM, every later stage against
        # the channels-last one
        arrays = stage_arrays((B,) + x_shape, k_shape, dtype, seed=B)
        got = stage(*map(Tensor, arrays), stride, padding, True).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, reference_stage(*arrays, stride, padding, True))

    def test_no_grad_v_forward_builds_no_whole_patch_matrix(self):
        # at 16 clips v_net's second conv's whole patch matrix is 27 MiB and
        # its first's 13.5 MiB; built whole, the forward peaked at 46.3 MiB.
        # Built in chunks it peaks at 14.8 MiB, with the stem's output, the
        # second conv's output and one chunk's padded input and patch matrix
        # live; the bound leaves under 1 MiB for anything more
        bundle = ModelBundle(seed=0)
        clip = rng_for(16).normal(size=(16, 3, 8, 32, 32)).astype(np.float32)
        with T.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bundle.v_forward(clip)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 15.79 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


# a v_net-like 3-D stage and an i_net-like 2-D stage, small: stems, which
# run channel-first, and later stages, which run channels-last
STAGES = [
    pytest.param((5, 3, 4, 8, 8), (4, 3, 3, 3, 3), (1, 2, 2), (1, 1, 1), id="3d"),
    pytest.param((5, 3, 9, 8), (4, 3, 3, 3), (2, 1), (1, 1), id="2d"),
    pytest.param((5, 8, 4, 8, 8), (4, 8, 3, 3, 3), (1, 2, 2), (1, 1, 1), id="3d_channels_last"),
    pytest.param((5, 8, 9, 8), (4, 8, 3, 3), (2, 1), (1, 1), id="2d_channels_last"),
]


@pytest.mark.usefixtures("nan_filled_empty")
class TestConvStage:
    """conv3d/conv2d: one node whose forward equals the three ops, conv ->
    layer norm over channels -> leaky relu, as reference_stage computes them,
    bit for bit, its layer norm and leaky relu run in tiles of samples of the
    output."""

    @staticmethod
    def blocks(monkeypatch, x_shape, k_shape, stride, padding, dtype, per_chunk, per_tile):
        """Shrink _PATCH_CHUNK_BYTES and _EPILOGUE_TILE_BYTES to per_chunk
        and per_tile samples of this conv (None keeps a budget as it is)."""
        n_out = int(np.prod(conv_out_sp(x_shape, k_shape, stride, padding))) * np.dtype(dtype).itemsize
        if per_chunk is not None:
            monkeypatch.setattr(T, "_PATCH_CHUNK_BYTES", per_chunk * int(np.prod(k_shape[1:])) * n_out)
        if per_tile is not None:
            monkeypatch.setattr(T, "_EPILOGUE_TILE_BYTES", per_tile * k_shape[0] * n_out)

    @staticmethod
    def reference_grads(x, k, gamma, beta, stride, padding, leaky, w):
        """dL/d(x, k, gamma, beta) of L = sum(stage * w): autograd through
        moveaxis -> layer_norm -> moveaxis -> leaky_relu from the conv output,
        a leaf, then _conv_input_grad and _conv_kernel_grad in one chunk."""
        cout, nd = k.shape[0], len(stride)
        conv = Tensor(reference_conv(x, k, stride, padding), requires_grad=True)
        g, b = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        last = (0,) + tuple(range(2, nd + 2)) + (1,)  # channels moved to the last axis
        y = T.layer_norm(T.transpose(conv, last), T.reshape(g, (cout,)), T.reshape(b, (cout,)))
        y = T.transpose(y, np.argsort(last))
        if leaky:
            y = T.leaky_relu(y)
        T.tsum(T.mul(y, Tensor(w))).backward()
        gmat = stage_gmat(conv.grad, True)
        out_sp = conv.shape[2:]
        dx = T._conv_input_grad(gmat, k, x.shape, x.strides, out_sp, stride, padding)
        dk = T._conv_kernel_grad(gmat, x, k.shape[2:], out_sp, stride, padding, [(0, x.shape[0])], True)
        return [dx, dk, g.grad, b.grad]

    # samples per patch chunk and per epilogue tile: one of each, one sample
    # each, and chunks of 1+2+2 against tiles of 2+3
    BLOCKS = [(None, None), (1, 1), (2, 3)]

    @pytest.mark.parametrize("per_chunk, per_tile", BLOCKS)
    @pytest.mark.parametrize("leaky", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", STAGES)
    def test_forward_equals_the_three_ops_bit_for_bit(self, monkeypatch, x_shape, k_shape, stride, padding,
                                                      dtype, leaky, per_chunk, per_tile):
        self.blocks(monkeypatch, x_shape, k_shape, stride, padding, dtype, per_chunk, per_tile)
        arrays = stage_arrays(x_shape, k_shape, dtype)
        want = reference_stage(*arrays, stride, padding, leaky)
        # under grad xhat goes to its own buffer; under no_grad the output
        # is normalized in place
        graph = stage(*[Tensor(a, requires_grad=True) for a in arrays], stride, padding, leaky)
        with T.no_grad():
            frozen = stage(*map(Tensor, arrays), stride, padding, leaky)
        assert graph.data.dtype == frozen.data.dtype == dtype
        np.testing.assert_array_equal(graph.data, want)
        np.testing.assert_array_equal(frozen.data, want)

    @pytest.mark.parametrize("leaky", [True, False])
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", [
        pytest.param((3, 2, 3, 5, 5), (3, 2, 3, 3, 3), (1, 2, 2), (1, 1, 1), id="3d"),
        pytest.param((3, 2, 6, 5), (3, 2, 3, 3), (2, 1), (1, 1), id="2d"),
        # m_net's last stage, stride 1 in time and 2 in space, and an
        # i_net-like stage, both channels-last
        pytest.param((2, 8, 3, 4, 4), (3, 8, 3, 3, 3), (1, 2, 2), (1, 1, 1), id="3d_channels_last"),
        pytest.param((2, 8, 6, 5), (3, 8, 3, 3), (2, 1), (1, 1), id="2d_channels_last"),
        # no padding, and a kernel as long as its stride, so that E == O in
        # the input gradient; in both layouts
        pytest.param((3, 2, 2, 3, 4), (3, 2, 1, 1, 1), (1, 1, 1), (0, 0, 0), id="1x1_unpadded"),
        pytest.param((2, 8, 3, 4), (3, 8, 1, 1), (1, 1), (0, 0), id="1x1_unpadded_channels_last"),
        pytest.param((3, 2, 4, 6), (3, 2, 2, 2), (2, 2), (0, 0), id="kernel_2_stride_2"),
        pytest.param((2, 8, 2, 4, 4), (3, 8, 2, 2, 2), (2, 2, 2), (0, 0, 0), id="kernel_2_stride_2_channels_last"),
    ])
    def test_gradients_vs_fd(self, monkeypatch, x_shape, k_shape, stride, padding, leaky):
        self.blocks(monkeypatch, x_shape, k_shape, stride, padding, np.float64, 1, 2)
        arrays = stage_arrays(x_shape, k_shape, np.float64, seed=1)
        out_shape = stage(*map(Tensor, arrays), stride, padding, leaky).shape
        w = Tensor(rng_for(2).normal(size=out_shape))
        assert_grad_matches(lambda *t: T.tsum(T.mul(stage(*t, stride, padding, leaky), w)), arrays)

    @pytest.mark.parametrize("layout", ["sample_major", "channel_major", "channels_last"])
    @pytest.mark.parametrize("per_chunk, per_tile", BLOCKS)
    @pytest.mark.parametrize("leaky", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", STAGES)
    def test_gradients_match_the_three_ops(self, monkeypatch, x_shape, k_shape, stride, padding, dtype, leaky,
                                           per_chunk, per_tile, layout):
        """The same gradients up to summation order, for an upstream
        gradient in each layout the networks hand a stage: from a loss, from
        the next conv's input gradient and from the heads' transposes."""
        self.blocks(monkeypatch, x_shape, k_shape, stride, padding, dtype, per_chunk, per_tile)
        arrays = stage_arrays(x_shape, k_shape, dtype)
        out_shape = stage(*map(Tensor, arrays), stride, padding, leaky).shape
        w = rng_for(3).normal(size=out_shape).astype(dtype)
        if layout == "channel_major":
            w = np.moveaxis(np.ascontiguousarray(np.moveaxis(w, 1, 0)), 0, 1)
        elif layout == "channels_last":
            w = np.moveaxis(np.ascontiguousarray(np.moveaxis(w, 1, -1)), -1, 1)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        T.tsum(T.mul(stage(*leaves, stride, padding, leaky), Tensor(w))).backward()
        want = self.reference_grads(*arrays, stride, padding, leaky, w)
        for name, leaf, ref in zip(("input", "kernels", "gamma", "beta"), leaves, want):
            assert leaf.grad.dtype == ref.dtype == dtype, name
            scale = np.abs(ref).max()
            assert np.abs(leaf.grad - ref).max() <= 1e-6 * scale, name

    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", STAGES)
    def test_input_layout_changes_no_bit(self, x_shape, k_shape, stride, padding):
        """The same input values as a contiguous array, a channels-last view
        and a non-contiguous slice give the same output and gradients bit for
        bit, and the input gradient's axes lie in memory in the input's order."""
        x, k, gamma, beta = stage_arrays(x_shape, k_shape, np.float32, seed=5)
        channels_last_view = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
        wide = np.zeros(x_shape[:-1] + (2 * x_shape[-1],), dtype=x.dtype)
        wide[..., ::2] = x
        w = rng_for(6).normal(size=(x_shape[0], k_shape[0]) + conv_out_sp(x_shape, k_shape, stride, padding))
        results = []
        for xin in (x, channels_last_view, wide[..., ::2]):
            leaves = [Tensor(a, requires_grad=True) for a in (xin, k, gamma, beta)]
            out = stage(*leaves, stride, padding, True)
            T.tsum(T.mul(out, Tensor(w.astype(x.dtype)))).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
            assert np.argsort(leaves[0].grad.strides).tolist() == np.argsort(xin.strides).tolist()
        for got in results[1:]:
            for name, want, value in zip(("output", "input", "kernels", "gamma", "beta"), results[0], got):
                np.testing.assert_array_equal(value, want, err_msg=name)

    def test_no_grad_leaves_no_node(self):
        arrays = stage_arrays((2, 3, 4, 8, 8), (4, 3, 3, 3, 3), np.float32)
        with T.no_grad():
            out = stage(*[Tensor(a, requires_grad=True) for a in arrays], (1, 2, 2), (1, 1, 1), True)
        assert not out.requires_grad and out._backward is None and out._parents == ()

    @pytest.mark.parametrize("leaky", [True, False])
    def test_closure_holds_xhat_and_the_output_not_a_mask(self, leaky):
        """Besides its input and kernels a stage's closure holds its
        normalized output and 1/sigma, and a leaky stage its own output,
        whose sign gives the slope; a stage that ends linear holds no output,
        which dies with its tensor."""
        x, k, gamma, beta = [Tensor(a, requires_grad=True)
                             for a in stage_arrays((2, 3, 4, 8, 8), (4, 3, 3, 3, 3), np.float32)]
        out = stage(x, k, gamma, beta, (1, 2, 2), (1, 1, 1), leaky)
        held = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert not [v for v in held if v.dtype == bool]
        assert any(v is x.data for v in held) and any(v is k.data for v in held)
        assert any(np.shares_memory(v, out.data) for v in held) == leaky
        extra = sum(v.nbytes for v in held if v is not x.data and v is not k.data)
        # xhat, 1/sigma, gamma's view and, when leaky, the output
        assert extra <= out.data.nbytes * (2 if leaky else 1) + out.data.nbytes // 4 + gamma.data.nbytes
        owner = weakref.ref(memory_owner(out.data))
        del out
        assert (owner() is not None) == leaky


class TestBackwardSemantics:
    def test_sum_loss_gives_ones(self):
        w = Tensor(np.zeros((3, 2)), requires_grad=True)
        T.tsum(w).backward()
        np.testing.assert_allclose(w.grad, 1.0)

    def test_unused_parameter_grad_stays_zero(self):
        w = Tensor(np.ones(4), requires_grad=True)
        unused = Tensor(np.ones(4), requires_grad=True)
        T.tsum(w).backward()
        np.testing.assert_allclose(unused.grad, 0.0)

    def test_fanout_gradients_sum(self):
        r = rng_for(0)
        x = r.normal(size=(3,))
        # path A alone
        xa = Tensor(x.copy(), requires_grad=True)
        T.tsum(T.mul(xa, xa)).backward()
        # path B alone
        xb = Tensor(x.copy(), requires_grad=True)
        T.tsum(T.texp(xb)).backward()
        # both paths from one tensor
        xc = Tensor(x.copy(), requires_grad=True)
        T.add(T.tsum(T.mul(xc, xc)), T.tsum(T.texp(xc))).backward()
        np.testing.assert_allclose(xc.grad, xa.grad + xb.grad, atol=1e-12)

    def test_backward_on_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_composed_graph_matches_fd(self):
        # conv3d stage -> relu -> pool -> cosine against a fixed direction
        for seed in SEEDS[:3]:
            x, k, gamma, beta = stage_arrays((1, 2, 3, 5, 5), (3, 2, 3, 3, 3), np.float64, seed=seed)
            ref = rng_for(seed).normal(size=3)

            def build(a, w, g, b):
                # the one sample's (C, T, H, W) map, pooled per channel
                out = T.conv3d(a, w, g, b, (1, 1, 1), (1, 1, 1), False)
                feat = T.global_avg_pool(T.reshape(T.relu(out), (3, 3, 5, 5)))
                return T.cosine_similarity(feat, Tensor(ref))

            assert_grad_matches(build, [x, k, gamma, beta], tol=1e-4)

    def test_forward_deterministic(self):
        arrays = stage_arrays((1, 2, 3, 4, 4), (2, 2, 3, 3, 3), np.float64, seed=5)
        a, b = (T.tsum(T.relu(T.conv3d(*map(Tensor, arrays), (1, 1, 1), (1, 1, 1), True))) for _ in range(2))
        assert a.item() == b.item()

    def test_leaf_never_adopts_a_shared_gradient(self):
        # add hands one array to the leaf x and to the non-leaf h; x then gets
        # a second contribution from m while h's closure has yet to run. Both
        # argument orders are built, so one of them adds into x after it first
        # received the shared array. A leaf whose grad was set to None must
        # copy, and a leaf with a buffer must keep accumulating into it.
        r = rng_for(0)
        xa, wa = r.normal(size=(3, 4)), r.normal(size=(3, 4))

        def first(x, w):
            h = T.mul(w, w)
            return T.tsum(T.mul(T.add(x, h), T.mul(x, h)))

        def second(x, w):
            h = T.mul(w, w)
            return T.tsum(T.mul(T.mul(x, h), T.add(x, h)))

        for build in (first, second):
            assert_grad_matches(build, [xa, wa], tol=1e-6)
            fresh = [Tensor(a.copy(), requires_grad=True) for a in (xa, wa)]
            build(*fresh).backward()
            x, w = Tensor(xa.copy(), requires_grad=True), Tensor(wa.copy(), requires_grad=True)
            buf = w.grad
            x.grad = None
            build(x, w).backward()
            assert w.grad is buf
            np.testing.assert_array_equal(x.grad, fresh[0].grad)
            np.testing.assert_array_equal(w.grad, fresh[1].grad)

    def test_non_leaf_with_three_contributions(self):
        # h receives one gradient from add (the same array its sibling u
        # adopts), a broadcast view from tsum and a product from mul; every
        # order of the three consumers must give FD-correct gradients
        r = rng_for(1)
        wa = r.normal(size=(2, 5))
        c = r.normal(size=(2, 5))

        def consumers(h, u):
            return {
                "add": T.tsum(T.mul(T.add(h, u), T.add(h, u))),
                "sum": T.scale(T.tsum(h), 0.5),
                "mul": T.tsum(T.mul(h, Tensor(c))),
            }

        for order in (("add", "sum", "mul"), ("mul", "sum", "add"), ("sum", "add", "mul"), ("sum", "mul", "add")):
            def build(w, _order=order):
                h = T.mul(w, w)
                u = T.scale(w, 3.0)
                parts = consumers(h, u)
                return T.add(T.add(parts[_order[0]], parts[_order[1]]), parts[_order[2]])

            assert_grad_matches(build, [wa], tol=1e-6)

    def test_second_backward_raises(self):
        # backward() consumes the graph; a second pass over it, or over a
        # graph that reaches a consumed node, fails before touching a gradient
        r = rng_for(2)
        x = Tensor(r.normal(size=(2, 3, 4, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(2, 3, 3, 3)), requires_grad=True)
        w = Tensor(r.normal(size=(2, 3)), requires_grad=True)
        h = T.conv2d(x, k, Tensor(np.ones((1, 2, 1, 1))), Tensor(np.zeros((1, 2, 1, 1))), (1, 1), (1, 1), True)
        # the non-leaves h and logits have two consumers each
        logits = T.matmul(T.tmean(h, axis=(2, 3)), w)
        loss = T.add(T.tsum(T.mul(T.softmax(logits, axis=1), logits)), T.tsum(T.mul(h, h)))
        loss.backward()
        once = [t.grad.copy() for t in (x, k, w)]
        # the fresh branch into the leaf x is newer than the consumed logits,
        # so a walk that met the consumed node only on reaching it would
        # already have added into x.grad
        for again in (loss, T.add(T.tsum(logits), T.tsum(T.scale(x, 2.0)))):
            with pytest.raises(RuntimeError, match="already been used by a backward pass"):
                again.backward()
        for t, g1 in zip((x, k, w), once):
            np.testing.assert_array_equal(t.grad, g1)
        bundle = ModelBundle(config=TINY_MODEL, seed=0)
        out = pretext_forward(bundle, tiny_batch(), PretextConfig(hard_negative_count=1))
        out.loss.backward()
        once = {name: p.grad.copy() for name, p in bundle.params().items()}
        with pytest.raises(RuntimeError, match="already been used by a backward pass"):
            out.j_i.backward()
        for name, p in bundle.params().items():
            np.testing.assert_array_equal(p.grad, once[name], err_msg=name)

    def test_closures_run_newest_first(self):
        # reverse creation order frees the forward's arrays in the reverse of
        # the order they were allocated in, so a warm step finds its heap
        # space again (TestResidentHeap); it also fixes the order in which a
        # node's gradient contributions are summed
        out = pretext_forward(ModelBundle(config=TINY_MODEL, seed=0), tiny_batch(), PretextConfig(hard_negative_count=1))
        ran = []

        def recording(fn, seq):
            def run(g):
                ran.append(seq)
                fn(g)
            return run

        for n in graph_nodes(out.loss):
            if n._backward is not None:
                n._backward = recording(n._backward, n.seq)
        out.loss.backward()
        assert len(ran) > 100 and ran == sorted(ran, reverse=True)

    def test_non_leaf_grads_released_after_backward(self):
        r = rng_for(3)
        x = Tensor(r.normal(size=(2, 2, 4, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones((1, 3, 1, 1)), requires_grad=True)
        beta = Tensor(np.zeros((1, 3, 1, 1)), requires_grad=True)
        h = T.conv2d(x, k, gamma, beta, (2, 2), (1, 1), False)
        tokens = T.transpose(T.reshape(h, (2, 3, -1)), (0, 2, 1))
        z = T.l2_normalize(T.concat([tokens, T.scale(tokens, 2.0)], axis=1), axis=-1)
        loss = T.tmean(T.logsumexp(T.matmul(z, T.transpose(z, (0, 2, 1))), axis=-1))
        non_leaves = [n for n in graph_nodes(loss) if n._backward is not None]
        assert len(non_leaves) > 10
        loss.backward()
        assert_graph_consumed(non_leaves)
        for leaf in (x, k, gamma, beta):
            assert leaf.grad is not None and np.abs(leaf.grad).max() > 0
            assert leaf._backward is None

    def test_no_grad_builds_no_graph(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = T.tsum(T.mul(w, w))
        assert not out.requires_grad
        assert out._backward is None


def memory_owner(v: np.ndarray) -> np.ndarray:
    """The array whose buffer v views (v itself when it owns its memory)."""
    while isinstance(v.base, np.ndarray):
        v = v.base
    return v


class TestGraphLifetime:
    @staticmethod
    def chain(x, w, gamma, beta, v, refs=None):
        """sum(leaky_relu(layer_norm(x @ w)) @ v), the path of the
        Transformer's blocks and the heads; `refs` collects weakrefs to each
        of the matmul, layer-norm and leaky-ReLU output arrays and to the
        array that owns its memory."""
        h = T.matmul(x, w)
        n = T.layer_norm(h, gamma, beta)
        act = T.leaky_relu(n)
        if refs is not None:
            refs.extend((weakref.ref(t.data), weakref.ref(memory_owner(t.data))) for t in (h, n, act))
        return T.tsum(T.matmul(act, v))

    def test_dropped_intermediates_free_what_no_backward_reads(self):
        r = rng_for(14)
        arrays = [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)),
                  r.normal(size=5) + 1.0, r.normal(size=5), r.normal(size=(5, 2))]
        refs = []
        loss = self.chain(*[Tensor(a, requires_grad=True) for a in arrays], refs=refs)
        (mm_out, mm_owner), (norm_out, norm_owner), (act_out, act_owner) = refs
        # the matmul output feeds only layer_norm, which reads its xhat, and
        # the layer-norm output feeds only leaky_relu, which reads its own output
        assert mm_out() is None and mm_owner() is None
        assert norm_out() is None and norm_owner() is None
        # matmul's weight gradient and leaky_relu's gradient read it
        assert act_out() is not None
        loss.backward()
        assert_grad_matches(self.chain, arrays)

    def test_leaky_relu_holds_its_output_not_a_mask(self):
        """leaky_relu's closure holds its own output, whose sign gives the
        slope, as a leaky conv stage's does: no bool mask and not its input."""
        a = Tensor(rng_for(16).normal(size=(3, 4)), requires_grad=True)
        out = T.leaky_relu(a)
        held = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert not [v for v in held if v.dtype == bool]
        assert [v is out.data for v in held] == [True]
        assert not any(np.shares_memory(v, a.data) for v in held)

    @pytest.mark.parametrize("leaky", [False, True])
    def test_stage_upstream_gradient_dead_before_its_kernel_gradient(self, monkeypatch, leaky):
        # the stage's closure turns its upstream gradient into the pre-norm
        # gradient before the kernel and input gradients run; neither the
        # backward walk nor the closure may keep the upstream array past that
        r = rng_for(15)
        x = Tensor(r.normal(size=(2, 3, 6, 6)), requires_grad=True)
        k = Tensor(r.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma = Tensor(r.normal(size=(1, 4, 1, 1)) + 1.0, requires_grad=True)
        beta = Tensor(r.normal(size=(1, 4, 1, 1)), requires_grad=True)
        y = T.conv2d(x, k, gamma, beta, stride=(1, 1), padding=(1, 1), leaky=leaky)
        weighted = T.mul(y, Tensor(r.normal(size=y.shape)))
        upstream = []

        def downstream(g, closure=weighted._backward):
            closure(g)
            upstream.append(weakref.ref(y._node.grad))

        weighted._node._backward = downstream
        dead = []
        kernel_grad = T._conv_kernel_grad

        def check_then_kernel_grad(*args):
            dead.append(upstream[0]() is None)
            return kernel_grad(*args)

        monkeypatch.setattr(T, "_conv_kernel_grad", check_then_kernel_grad)
        T.tsum(weighted).backward()
        assert len(upstream) == 1 and dead == [True]
        assert np.abs(k.grad).max() > 0 and np.abs(x.grad).max() > 0


class TestFiniteDifferenceOracle:
    def test_oracle_on_quadratic(self):
        # the oracle itself: grad of sum(x^2) is 2x
        x = np.array([1.0, -2.0, 3.0])
        g = finite_difference_grad(lambda a: float((a ** 2).sum()), x.copy())
        assert max_rel_error(2 * x, g) < 1e-8
