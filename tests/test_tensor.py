"""Gradient and semantics checks for the tensor engine.

Every differentiable op is validated against the central finite-difference
oracle in conftest (h = 1e-5, float64, max-norm relative error < 1e-4).
"""

import ctypes
import importlib.util
import inspect
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
    "layer_norm": (lambda a, g, b: T.layer_norm(a, g, b, axis=1), [(2, 3, 4), (1, 3, 1), (1, 3, 1)]),
    "dropout": (lambda a: T.dropout(a, 0.25, rng=np.random.default_rng(0)), [(3, 4)]),
    "global_avg_pool": (T.global_avg_pool, [(3, 2, 2)]),
    "cosine_similarity": (T.cosine_similarity, [(5,), (5,)]),
    "l2_normalize": (lambda a: T.l2_normalize(a, axis=1), [(3, 4)]),
    "conv2d": (lambda a, k: T.conv2d(a, k, stride=(2, 1), padding=(1, 1)), [(2, 2, 5, 5), (3, 2, 3, 3)]),
    "conv3d": (lambda a, k: T.conv3d(a, k, stride=(1, 2, 1), padding=(1, 0, 1)), [(2, 2, 3, 5, 4), (3, 2, 3, 3, 3)]),
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
            a = r.normal(size=(2, 3, 4))
            b = r.normal(size=(2, 4, 5))
            assert_grad_matches(lambda x, y: T.tsum(T.mul(T.matmul(x, y), T.matmul(x, y))), [a, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dims"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


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
                lambda a, g, b: T.tsum(T.mul(T.layer_norm(a, g, b, axis=1), T.layer_norm(a, g, b, axis=1))),
                [x, gamma, beta],
            )

    def test_channel_axis_on_conv_map(self):
        r = rng_for(3)
        x = r.normal(size=(2, 4, 3, 3))
        out = T.layer_norm(Tensor(x), Tensor(np.ones((1, 4, 1, 1))), Tensor(np.zeros((1, 4, 1, 1))), axis=1)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-9)


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


class TestConv:
    @pytest.fixture(autouse=True)
    def nan_filled_empty(self, monkeypatch):
        """np.empty hands out NaN-filled arrays in these tests, so a cell the
        input gradient allocates and never writes reads NaN instead of
        whatever the allocator left there (often zeros)."""
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float, *a, **kw: np.full(shape, np.nan, dtype=dtype))

    def test_conv2d_identity_kernel(self):
        r = rng_for(0)
        x = r.normal(size=(1, 1, 5, 5))
        k = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(k), stride=(1, 1), padding=(0, 0))
        np.testing.assert_allclose(out.data, x)

    def test_conv3d_identity_kernel(self):
        r = rng_for(0)
        x = r.normal(size=(1, 1, 3, 4, 4))
        k = np.ones((1, 1, 1, 1, 1))
        out = T.conv3d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, x)

    def test_zero_input_zero_output(self):
        k = rng_for(1).normal(size=(2, 3, 3, 3, 3))
        out = T.conv3d(Tensor(np.zeros((1, 3, 4, 6, 6))), Tensor(k), stride=(1, 1, 1), padding=(1, 1, 1))
        np.testing.assert_allclose(out.data, 0.0)

    def test_conv2d_matches_naive_loops(self):
        r = rng_for(2)
        x = r.normal(size=(2, 6, 7))
        k = r.normal(size=(3, 2, 3, 3))
        out = T.conv2d(Tensor(x[None]), Tensor(k), stride=(2, 1), padding=(1, 0)).data[0]
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        naive = np.zeros_like(out)
        for co in range(3):
            for i in range(out.shape[1]):
                for j in range(out.shape[2]):
                    patch = xp[:, i * 2 : i * 2 + 3, j : j + 3]
                    naive[co, i, j] = (patch * k[co]).sum()
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_conv3d_gradients_vs_fd(self):
        for seed in SEEDS[:3]:
            r = rng_for(seed)
            x = r.normal(size=(1, 2, 4, 6, 6))
            k = r.normal(size=(2, 2, 3, 3, 3))
            assert_grad_matches(
                lambda a, w: T.tsum(T.mul(T.conv3d(a, w, stride=(1, 2, 2), padding=(1, 1, 1)),
                                          T.conv3d(a, w, stride=(1, 2, 2), padding=(1, 1, 1)))),
                [x, k],
            )

    def test_conv2d_gradients_vs_fd(self):
        for seed in SEEDS[:3]:
            r = rng_for(seed)
            x = r.normal(size=(1, 2, 6, 5))
            k = r.normal(size=(3, 2, 3, 3))
            assert_grad_matches(
                lambda a, w: T.tsum(T.mul(T.conv2d(a, w, stride=(2, 1), padding=(1, 1)),
                                          T.conv2d(a, w, stride=(2, 1), padding=(1, 1)))),
                [x, k],
            )

    def test_batched_matches_per_sample(self):
        r = rng_for(4)
        x = r.normal(size=(3, 2, 4, 5, 5))
        k = r.normal(size=(4, 2, 3, 3, 3))
        batched = T.conv3d(Tensor(x), Tensor(k), padding=(1, 1, 1)).data
        for b in range(3):
            single = T.conv3d(Tensor(x[b : b + 1]), Tensor(k), padding=(1, 1, 1)).data
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
        """The input gradient against col2im_oracle in float64; returns it."""
        r = rng_for(seed)
        x = r.normal(size=x_shape)
        k = r.normal(size=k_shape)
        conv = T.conv3d if len(stride) == 3 else T.conv2d
        xt = Tensor(x.astype(dtype), requires_grad=True)
        out = conv(xt, Tensor(k.astype(dtype)), stride=stride, padding=padding)
        g = r.normal(size=out.shape)
        T.tsum(T.mul(out, Tensor(g.astype(dtype)))).backward()
        want = self.col2im_oracle(g, k, x.shape, stride, padding)
        # float32: rounding of a sum of ~cout*prod(k) products of unit scale
        tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-5, atol=1e-4)
        assert xt.grad.dtype == dtype
        np.testing.assert_allclose(xt.grad, want, **tol)
        return xt.grad

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
        ],
        ids=["strides_1_2_2", "strides_2_1_3", "ragged_3d", "ragged_2d", "short_kernel_3d", "ragged_end_2d"],
    )
    def test_input_grad_matches_col2im_oracle_per_axis(self, x_shape, k_shape, stride, padding):
        self.check_input_grad(7, x_shape, k_shape, stride, padding)

    def test_input_grad_zero_where_no_window_reads(self):
        # kernel 2 < stride 3 along H: padded rows 2, 5, 8 are read by no
        # window; kernel 1 < stride 2 along W: odd columns are never read
        dx = self.check_input_grad(8, (2, 3, 9, 8), (4, 3, 2, 1), (3, 2), (0, 0))
        unread = np.zeros(dx.shape, dtype=bool)
        unread[:, :, 2::3, :] = True
        unread[:, :, :, 1::2] = True
        assert np.all(dx[unread] == 0.0)
        assert np.all(dx[~unread] != 0.0)
        # the same with padding: padded row i is input row i - 1
        dx = self.check_input_grad(9, (2, 3, 5, 9, 8), (4, 3, 3, 2, 1), (2, 3, 2), (1, 1, 0))
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
            # a kernel no longer than its stride: the gradient needs no zero
            # extension and is read through a view
            ((1, 3, 6, 8), (2, 3, 2, 2), (2, 2), (0, 0)),
        ],
        ids=["extended", "unextended"],
    )
    def test_backward_leaves_its_gradient_unchanged(self, x_shape, k_shape, stride, padding):
        r = rng_for(12)
        conv = T.conv3d if len(stride) == 3 else T.conv2d
        x = Tensor(r.normal(size=x_shape), requires_grad=True)
        k = Tensor(r.normal(size=k_shape), requires_grad=True)
        out = conv(x, k, stride=stride, padding=padding)
        g = r.normal(size=out.shape)
        before = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, before)
        assert np.any(x.grad != 0.0) and np.any(k.grad != 0.0)

    def test_backward_does_not_hold_the_padded_input(self):
        x = Tensor(rng_for(13).normal(size=(2, 3, 4, 6, 6)), requires_grad=True)
        out = T.conv3d(x, Tensor(np.ones((2, 3, 3, 3, 3))), stride=(1, 2, 2), padding=(1, 1, 1))
        padded = (2, 3, 6, 8, 8)
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert arrays, "the closure should hold the patch matrix"
        assert all(v.shape != padded and (v.base is None or v.base.shape != padded) for v in arrays)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            T.conv3d(Tensor(np.ones((1, 3, 4, 4, 4))), Tensor(np.ones((2, 4, 3, 3, 3))))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match=r"^conv3d: input rank must be 5, got 4$"):
            T.conv3d(Tensor(np.ones((3, 4, 4, 4))), Tensor(np.ones((2, 3, 3, 3, 3))))
        with pytest.raises(ValueError, match=r"^conv2d: input rank must be 4, got 3$"):
            T.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 3, 3, 3))))

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError, match="H"):
            T.conv2d(Tensor(np.ones((1, 1, 2, 8))), Tensor(np.ones((1, 1, 5, 3))))


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
        # conv3d -> relu -> pool -> cosine against a fixed direction
        for seed in SEEDS[:3]:
            r = rng_for(seed)
            x = r.normal(size=(1, 2, 3, 5, 5))
            k = r.normal(size=(3, 2, 3, 3, 3)) * 0.5
            ref = r.normal(size=3)

            def build(a, w):
                # the one sample's (C, T, H, W) map, pooled per channel
                feat = T.global_avg_pool(T.reshape(T.relu(T.conv3d(a, w, padding=(1, 1, 1))), (3, 3, 5, 5)))
                return T.cosine_similarity(feat, Tensor(ref))

            assert_grad_matches(build, [x, k], tol=1e-4)

    def test_forward_deterministic(self):
        r = rng_for(5)
        x = r.normal(size=(1, 2, 3, 4, 4))
        k = r.normal(size=(2, 2, 3, 3, 3))
        a = T.tsum(T.relu(T.conv3d(Tensor(x), Tensor(k), padding=(1, 1, 1))))
        b = T.tsum(T.relu(T.conv3d(Tensor(x), Tensor(k), padding=(1, 1, 1))))
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
        h = T.leaky_relu(T.conv2d(x, k, padding=(1, 1)))
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
        h = T.layer_norm(T.conv2d(x, k, stride=(2, 2), padding=(1, 1)), gamma, beta, axis=1)
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
    def chain(x, k, gamma, beta, w, refs=None):
        """sum(leaky_relu(layer_norm(conv3d(x, k))) @ w); `refs` collects
        weakrefs to each of the conv, layer-norm and leaky-ReLU output arrays
        and to the array that owns its memory."""
        h = T.conv3d(x, k, stride=(1, 2, 2), padding=(1, 1, 1))
        n = T.layer_norm(h, gamma, beta, axis=1)
        act = T.leaky_relu(n)
        if refs is not None:
            refs.extend((weakref.ref(t.data), weakref.ref(memory_owner(t.data))) for t in (h, n, act))
        return T.tsum(T.matmul(act, w))

    def test_dropped_intermediates_free_what_no_backward_reads(self):
        r = rng_for(14)
        arrays = [r.normal(size=(2, 2, 3, 5, 5)), r.normal(size=(3, 2, 3, 3, 3)),
                  r.normal(size=(1, 3, 1, 1, 1)) + 1.0, r.normal(size=(1, 3, 1, 1, 1)), r.normal(size=(3, 2))]
        refs = []
        loss = self.chain(*[Tensor(a, requires_grad=True) for a in arrays], refs=refs)
        (conv_out, conv_owner), (norm_out, norm_owner), (act_out, act_owner) = refs
        # the conv output feeds only layer_norm, which reads its xhat, and the
        # layer-norm output feeds only leaky_relu, which reads its mask
        assert conv_out() is None and conv_owner() is None
        assert norm_out() is None and norm_owner() is None
        # matmul's weight gradient reads its input
        assert act_out() is not None
        loss.backward()
        assert_grad_matches(self.chain, arrays)


class TestFiniteDifferenceOracle:
    def test_oracle_on_quadratic(self):
        # the oracle itself: grad of sum(x^2) is 2x
        x = np.array([1.0, -2.0, 3.0])
        g = finite_difference_grad(lambda a: float((a ** 2).sum()), x.copy())
        assert max_rel_error(2 * x, g) < 1e-8
