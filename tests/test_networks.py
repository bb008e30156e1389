"""Shape contracts, gradient reach, attention audits, checkpoint roundtrip."""

import re

import numpy as np
import pytest

from cmssl import tensor as T
from cmssl.networks import (
    _CKPT_HEADER,
    ModelBundle,
    ModelConfig,
    TransformerConfig,
    load_arrays,
    load_checkpoint,
    save_arrays,
    save_checkpoint,
)
from cmssl.tensor import Tensor

from conftest import graph_nodes


@pytest.fixture(scope="module")
def bundle():
    return ModelBundle(seed=0)


def rand_clip(rng, b=1):
    return rng.normal(size=(b, 3, 8, 32, 32))


class TestShapeContracts:
    def test_v_forward_desk_shape(self, bundle):
        rng = np.random.default_rng(0)
        out = bundle.v_forward(rand_clip(rng))
        assert out.shape == (1, 32, 2, 8, 8)
        out = bundle.v_forward(rand_clip(rng, b=2))
        assert out.shape == (2, 32, 2, 8, 8)

    def test_i_forward_desk_shape(self, bundle):
        rng = np.random.default_rng(1)
        out = bundle.i_forward(rng.normal(size=(1, 3, 32, 32)))
        assert out.shape == (1, 32, 8, 8)

    def test_m_forward_desk_shape(self, bundle):
        rng = np.random.default_rng(2)
        out = bundle.m_forward(rng.normal(size=(1, 2, 8, 32, 32)))
        assert out.shape == (1, 32, 2, 4, 4)

    def test_transformer_shapes(self, bundle):
        assert bundle.transformer.seq_in == 128
        assert bundle.transformer.n_queries == 32
        rng = np.random.default_rng(3)
        out = bundle.transformer_predict(rng.normal(size=(1, 32, 2, 8, 8)))
        assert out.shape == (1, 32, 2, 4, 4)

    def test_head_output_dims(self, bundle):
        rng = np.random.default_rng(4)
        for head, d in ((bundle.g_v, 32), (bundle.g_i, 32)):
            out = head.forward(Tensor(rng.normal(size=(5, d))))
            assert out.shape == (5, 32)

    def test_per_point_projection_column_count(self, bundle):
        rng = np.random.default_rng(5)
        fmap = bundle.m_forward(rng.normal(size=(2, 2, 8, 32, 32)))
        B, c3 = fmap.shape[0], fmap.shape[1]
        n = int(np.prod(fmap.shape[2:]))
        flat = T.reshape(fmap, (B, c3, n))
        out = bundle.g_m1.forward_points(flat)
        assert out.shape == (2, 32, 32)  # N = 2*4*4 = 32 columns

    def test_geometry_mismatch_rejected(self, bundle):
        with pytest.raises(ValueError, match="clip shape"):
            bundle.v_forward(np.zeros((1, 3, 8, 16, 16)))
        with pytest.raises(ValueError, match="mv clip shape"):
            bundle.m_forward(np.zeros((1, 3, 8, 32, 32)))
        with pytest.raises(ValueError, match="iframe shape"):
            bundle.i_forward(np.zeros((1, 3, 8, 8)))
        # a single sample without its batch axis is rejected too
        with pytest.raises(ValueError, match="clip shape"):
            bundle.v_forward(np.zeros((3, 8, 32, 32)))
        with pytest.raises(ValueError, match="transformer input shape"):
            bundle.transformer_predict(np.zeros((32, 2, 8, 8)))

    def test_width_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            TransformerConfig(width=30, heads=4)

    @pytest.mark.parametrize("bad", [0, -8, True, 8.0, "8", None])
    @pytest.mark.parametrize("field", ["encoder_layers", "decoder_layers", "width", "heads", "ff_width"])
    def test_transformer_size_not_a_positive_int_named(self, field, bad):
        want = rf"^TransformerConfig\.{field} must be a positive int, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            TransformerConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [0, -8, True, 8.0, "8", None])
    @pytest.mark.parametrize("field", ["input_size", "clip_len", "mv_len", "embed_dim", "head_hidden"])
    def test_model_size_not_a_positive_int_named(self, field, bad):
        want = rf"^ModelConfig\.{field} must be a positive int, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            ModelConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [[-6, 2, 2], (16, 0, 32), (16, 32), (16, 32, 32, 32), (16, 32.0, 32), 16, "abc"])
    @pytest.mark.parametrize("field", ["v_channels", "i_channels", "m_channels"])
    def test_channels_not_three_positive_ints_named(self, field, bad):
        want = rf"^ModelConfig\.{field} must be 3 positive ints, one per stage, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            ModelConfig(**{field: bad})

    def test_transformer_not_a_config_named(self):
        with pytest.raises(ValueError, match=r"^ModelConfig\.transformer must be a TransformerConfig, got 3$"):
            ModelConfig(transformer=3)

    def test_numpy_ints_and_lists_accepted(self):
        cfg = ModelConfig(input_size=np.int64(16), v_channels=[4, 4, 4], transformer={"heads": np.int32(2)})
        assert cfg.v_channels == (4, 4, 4) and cfg.transformer.heads == 2


class TestForwardSemantics:
    def test_zero_final_conv_gives_zero_map(self):
        b = ModelBundle(seed=1)
        kernel = b.v_net.layers[-1][0]
        kernel.data[...] = 0.0
        out = b.v_forward(np.random.default_rng(0).normal(size=(1, 3, 8, 32, 32)))
        np.testing.assert_allclose(out.data, 0.0)

    def test_zero_head_weights_give_zero_embedding(self):
        b = ModelBundle(seed=2)
        for p in b.g_v.params().values():
            p.data[...] = 0.0
        out = b.g_v.forward(Tensor(np.ones((3, 32))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_mlp_head_matches_numpy(self, bundle):
        def leaky(x):
            return np.where(x > 0, x, 0.01 * x)

        rng = np.random.default_rng(11)
        for head in (bundle.g_m1, bundle.transformer.enc_layers[0]["ff"]):
            w1, b1, w2, b2 = (p.data for p in head.params().values())
            x = rng.normal(size=(2, 5, w1.shape[0]))
            want = leaky(x @ w1 + b1) @ w2 + b2
            np.testing.assert_allclose(head.forward(Tensor(x)).data, want, atol=1e-12)
            points = head.forward_points(Tensor(x.transpose(0, 2, 1))).data
            np.testing.assert_allclose(points, want.transpose(0, 2, 1), atol=1e-12)

    def test_eval_forward_bitwise_deterministic(self, bundle):
        rng = np.random.default_rng(6)
        x = rand_clip(rng, b=2)
        with T.no_grad():
            a = bundle.v_forward(x).data
            b = bundle.v_forward(x).data
        assert np.array_equal(a, b)

    def test_distinct_mv_clips_distinct_features(self):
        embeddings = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            b = ModelBundle(seed=seed)
            x1 = rng.normal(size=(1, 2, 8, 32, 32))
            x2 = rng.normal(size=(1, 2, 8, 32, 32))
            f1 = b.m_forward(x1).data
            f2 = b.m_forward(x2).data
            embeddings.append((f1, f2))
            assert not np.allclose(f1, f2), f"collision at seed {seed}"

    def test_first_layer_receives_gradient(self, bundle):
        bundle.zero_grads()
        rng = np.random.default_rng(7)
        out = bundle.v_forward(rand_clip(rng))
        T.tmean(out).backward()
        first_kernel = bundle.v_net.layers[0][0]
        assert np.abs(first_kernel.grad).max() > 0
        bundle.zero_grads()


class TestTransformer:
    def test_encoder_token_permutation_invariance(self, bundle):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(1, 32, 2, 8, 8)))
        tokens = bundle.transformer.embed_inputs(x)
        perm = rng.permutation(128)
        with T.no_grad():
            out = bundle.transformer.decode(bundle.transformer.encode(tokens)).data
            permuted = Tensor(tokens.data[:, perm, :])
            out_p = bundle.transformer.decode(bundle.transformer.encode(permuted)).data
        np.testing.assert_allclose(out, out_p, atol=1e-9)

    def test_flattening_is_t_major(self, bundle):
        # bump one feature position; exactly one input token must change
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 32, 2, 8, 8))
        base = bundle.transformer.embed_inputs(Tensor(x)).data
        x2 = x.copy()
        x2[0, :, 1, 0, 0] += 1.0  # t=1, h=0, w=0 -> token index 1*64 + 0*8 + 0
        bumped = bundle.transformer.embed_inputs(Tensor(x2)).data
        changed = np.where(np.abs(bumped - base).sum(axis=-1)[0] > 1e-12)[0]
        assert list(changed) == [64]

    def test_each_pre_norm_computed_once(self, bundle):
        x = Tensor(np.random.default_rng(11).normal(size=(2, 32, 2, 8, 8)).astype(np.float32))
        norms = [n for n in graph_nodes(bundle.transformer.forward(x)) if n.op == "layer_norm"]
        cfg = bundle.config.transformer
        # ln1 and ln2 per encoder layer, ln1 to ln3 per decoder layer, and the
        # two final norms: self-attention reads one pre-norm as query, key and value
        assert len(norms) == 2 * cfg.encoder_layers + 3 * cfg.decoder_layers + 2 == 18


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        b = ModelBundle(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(b, path, extra_arrays={"opt/velocity": np.ones(3)}, meta={"epoch": 5})
        b2, extras, meta = load_checkpoint(path)
        assert meta["epoch"] == 5
        np.testing.assert_array_equal(extras["opt/velocity"], np.ones(3))
        assert b2.params().keys() == b.params().keys()
        for name, p in b.params().items():
            assert np.array_equal(p.data, b2.params()[name].data), name

    def test_roundtrip_non_default_config(self, tmp_path):
        cfg = ModelConfig(
            v_channels=(8, 16, 24), i_channels=(4, 8, 12), m_channels=(6, 12, 16),
            embed_dim=16, head_hidden=24,
            transformer=TransformerConfig(encoder_layers=1, decoder_layers=3, width=16, heads=2, ff_width=40),
        )
        b = ModelBundle(cfg, seed=6)
        path = tmp_path / "custom.ckpt"
        save_checkpoint(b, path)
        b2, _, _ = load_checkpoint(path)
        assert b2.config == b.config
        for name, p in b.params().items():
            assert np.array_equal(p.data, b2.params()[name].data), name

    def test_missing_param_rejected(self, tmp_path):
        b = ModelBundle(seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(b, path)
        arrays, meta = load_arrays(path)
        del arrays[sorted(arrays)[0]]
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)
        # a checkpoint with the older feed-forward keys (ff.lin1.w, ...) is not read
        save_checkpoint(b, path)
        arrays, meta = load_arrays(path)
        save_arrays(path, {k.replace(".ff.w1", ".ff.lin1.w"): v for k, v in arrays.items()}, meta)
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        """A default checkpoint and what load_arrays reads back from it."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(ModelBundle(seed=7), path)
        arrays, meta = load_arrays(path)
        return path, arrays, meta

    def test_metadata_without_model_config_rejected(self, tmp_path):
        path, arrays, meta = self.saved(tmp_path)
        del meta["model_config"]
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match="no model_config"):
            load_checkpoint(path)
        # a caller that brings its own bundle needs no config
        load_checkpoint(path, ModelBundle(seed=7))

    def test_unknown_config_key_rejected(self, tmp_path):
        path, arrays, meta = self.saved(tmp_path)
        meta["model_config"]["extra"] = 1
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match="bad model_config.*'extra'"):
            load_checkpoint(path)
        meta["model_config"].pop("extra")
        meta["model_config"]["transformer"]["depth"] = 3
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match="bad model_config.*'depth'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "section, key, bad, field",
        [
            ("transformer", "heads", 0, "TransformerConfig.heads"),
            (None, "v_channels", [-6, 2, 2], "ModelConfig.v_channels"),
            (None, "embed_dim", -1, "ModelConfig.embed_dim"),
        ],
        ids=["zero_heads", "negative_channels", "negative_embed_dim"],
    )
    def test_bad_config_value_named(self, tmp_path, section, key, bad, field):
        path, arrays, meta = self.saved(tmp_path)
        config = meta["model_config"]
        (config[section] if section else config)[key] = bad
        save_arrays(path, arrays, meta)
        want = rf"^{re.escape(str(path))}: bad model_config: {re.escape(field)} must be "
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)

    @pytest.mark.parametrize("part", ["name", "shape", "body"])
    def test_truncated_array_rejected(self, tmp_path, part):
        path, arrays, meta = self.saved(tmp_path)
        data = path.read_bytes()
        first = sorted(arrays)[0]
        # the first array record: u16 name length, name, u8 rank, u32 dims, f8 body
        start = _CKPT_HEADER.size + _CKPT_HEADER.unpack(data[: _CKPT_HEADER.size])[2] + 4
        name_at = start + 2
        shape_at = name_at + len(first) + 1
        body_at = shape_at + 4 * arrays[first].ndim
        cut = {"name": name_at + 1, "shape": shape_at + 2, "body": body_at + 8}[part]
        path.write_bytes(data[:cut])
        want = {
            "name": f"truncated array 0 name at byte {name_at}",
            "shape": f"truncated array {first} shape at byte {shape_at}",
            "body": f"truncated array {first} body at byte {body_at}",
        }[part]
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)

    def test_rank_above_32_rejected(self, tmp_path):
        # numpy itself would fail on rank 65 without naming the file
        path, arrays, meta = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        first = sorted(arrays)[0]
        rank_at = _CKPT_HEADER.size + _CKPT_HEADER.unpack(data[: _CKPT_HEADER.size])[2] + 4 + 2 + len(first)
        assert data[rank_at] == arrays[first].ndim
        data[rank_at] = 65
        path.write_bytes(bytes(data))
        want = rf"^{re.escape(str(path))}: array {re.escape(first)} rank 65 at byte {rank_at} exceeds 32$"
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _, _ = self.saved(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ValueError, match=f"3 trailing bytes after the last array, from byte {size}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        path, arrays, meta = self.saved(tmp_path)
        name = "g_m1.w2"
        arrays[name].reshape(-1)[5] = bad
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match=f"array {name} holds {bad} at flat index 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_exact_in_the_bundle_dtype(self, tmp_path, dtype):
        b = ModelBundle(seed=8, dtype=dtype)
        path = tmp_path / "model.ckpt"
        save_checkpoint(b, path)
        b2, _, _ = load_checkpoint(path)
        for name, p in b.params().items():
            got = b2.params()[name].data
            assert got.dtype == dtype, name
            assert np.array_equal(p.data, got), name
        # a float32 file widens exactly into a float64 bundle
        b64, _, _ = load_checkpoint(path, ModelBundle(seed=0, dtype=np.float64))
        for name, p in b.params().items():
            assert np.array_equal(p.data.astype(np.float64), b64.params()[name].data), name

    @pytest.mark.parametrize("bad", ["float16", "complex", 5])
    def test_unknown_checkpoint_dtype_rejected(self, tmp_path, bad):
        path, arrays, meta = self.saved(tmp_path)
        meta["dtype"] = bad
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError, match=f"checkpoint dtype {bad!r} is not float32 or float64"):
            load_checkpoint(path)

    def test_value_beyond_float32_rejected(self, tmp_path):
        b = ModelBundle(seed=9, dtype=np.float64)
        b.value_head.w.data.reshape(-1)[3] = 1e39  # the parameter that sorts last
        path = tmp_path / "model.ckpt"
        save_checkpoint(b, path)
        dest = ModelBundle(seed=10)
        before = {name: p.data.copy() for name, p in dest.params().items()}
        want = r"parameter value_head.w holds 1e\+39 at flat index 3, not finite in float32"
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path, dest)
        # a failed load writes none of the parameters of the bundle it was given
        assert all(np.array_equal(p.data, before[name]) for name, p in dest.params().items())
        # the bundle built from the file's own dtype holds the value
        b64, _, _ = load_checkpoint(path)
        assert b64.dtype == np.float64 and b64.value_head.w.data.reshape(-1)[3] == 1e39

    def test_bundle_dtype_other_than_float32_or_float64_rejected(self):
        with pytest.raises(ValueError, match="float32 or float64, got float16"):
            ModelBundle(dtype=np.float16)

    def test_float32_parameters_are_the_float64_draws_rounded(self):
        p64 = ModelBundle(seed=3, dtype=np.float64).params()
        for name, p in ModelBundle(seed=3).params().items():
            assert p.data.dtype == p.grad.dtype == np.float32, name
            assert np.array_equal(p.data, p64[name].data.astype(np.float32)), name
            assert not p.grad.any(), name


class TestGradAudit:
    def test_zero_grad_fraction_helper(self):
        b = ModelBundle(seed=5)
        b.zero_grads()
        assert b.zero_grad_fraction() == 1.0
