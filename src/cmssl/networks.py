"""Learnable components: video/iframe/motion backbones, the future-feature
Transformer, and the four projection heads, bundled with checkpoint IO.

Backbones are small conv stacks (conv -> channel layer norm -> leaky relu,
with no activation after the last stage, each stage one conv3d/conv2d call
and one graph node) sized for 32x32 inputs; the geometry of every feature
map is derived from ModelConfig so shape contracts can be asserted up
front. `point_tokens` owns the one order that flattens a map into point
tokens, t-major, then h, then w (plain C-order reshape), which checkpoint
portability depends on.

`_Init` names and orders every parameter: each is drawn under its full
name, and the bundle's `params()` lists them in draw order, which is the
order checkpoints, updates and gradient counts see.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _positive_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 0


def _check_positive_ints(config, names):
    """A ValueError naming the first of `names` that is not a positive int."""
    for name in names:
        value = getattr(config, name)
        if not _positive_int(value):
            raise ValueError(f"{type(config).__name__}.{name} must be a positive int, got {value!r}")


@dataclass
class TransformerConfig:
    encoder_layers: int = 2
    decoder_layers: int = 4
    width: int = 32
    heads: int = 4
    ff_width: int = 64

    def __post_init__(self):
        _check_positive_ints(self, ("encoder_layers", "decoder_layers", "width", "heads", "ff_width"))
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")


@dataclass
class ModelConfig:
    input_size: int = 32
    clip_len: int = 8
    mv_len: int = 8
    v_channels: tuple = (16, 32, 32)
    i_channels: tuple = (16, 32, 32)
    m_channels: tuple = (16, 32, 32)
    embed_dim: int = 32
    head_hidden: int = 64
    transformer: TransformerConfig = field(default_factory=TransformerConfig)

    def __post_init__(self):
        if isinstance(self.transformer, dict):
            self.transformer = TransformerConfig(**self.transformer)
        if not isinstance(self.transformer, TransformerConfig):
            raise ValueError(f"ModelConfig.transformer must be a TransformerConfig, got {self.transformer!r}")
        _check_positive_ints(self, ("input_size", "clip_len", "mv_len", "embed_dim", "head_hidden"))
        for name in ("v_channels", "i_channels", "m_channels"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or len(value) != 3 or not all(map(_positive_int, value)):
                raise ValueError(f"ModelConfig.{name} must be 3 positive ints, one per stage, got {value!r}")
            setattr(self, name, tuple(value))
        if self.input_size % 8:
            raise ValueError(f"input_size must be divisible by 8, got {self.input_size}")
        if self.clip_len % 4 or self.mv_len % 4:
            raise ValueError("clip_len and mv_len must be divisible by 4")

    # clip features: two stride-2 stages in time and space
    @property
    def clip_feat_shape(self):
        return (self.v_channels[-1], self.clip_len // 4, self.input_size // 4, self.input_size // 4)

    # I-frame features: two spatial stride-2 stages
    @property
    def iframe_feat_shape(self):
        return (self.i_channels[-1], self.input_size // 4, self.input_size // 4)

    # motion features: two stride-2 stages in time, three in space
    @property
    def motion_feat_shape(self):
        return (self.m_channels[-1], self.mv_len // 4, self.input_size // 8, self.input_size // 8)


class _Init:
    """Makes and names every parameter of a bundle: values drawn in float64
    from one seeded generator in call order, stored once in the bundle's
    dtype, with their gradient buffers. `params` maps each full name to its
    parameter in draw order; a name given twice is a ValueError."""

    def __init__(self, seed: int, dtype):
        self.rng = np.random.default_rng(np.random.PCG64(seed))
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def normal(self, name: str, std: float, shape) -> Tensor:
        return self._param(name, self.rng.normal(0.0, std, size=shape))

    def he(self, name: str, shape, fan_in: int) -> Tensor:
        return self.normal(name, np.sqrt(2.0 / fan_in), shape)

    def full(self, name: str, value: float, shape) -> Tensor:
        return self._param(name, np.full(shape, value, dtype=self.dtype))

    def _param(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter name {name!r} used twice")
        p = self.params[name] = Tensor(values.astype(self.dtype, copy=False), requires_grad=True)
        return p


class ConvStack:
    """conv -> layer norm over channels -> leaky relu, repeated, with the last
    stage ending after its layer norm; 2-D or 3-D. Each stage is one
    T.conv3d/T.conv2d call given the stage's gamma and beta, which applies the
    norm and the activation to the conv output in place (see tensor)."""

    def __init__(self, name, init, in_channels, channels, strides, nd, kernels=None):
        self.nd = nd
        self.layers = []
        kernels = kernels or [(3,) * nd] * len(channels)
        c_prev = in_channels
        for i, (c, s, k) in enumerate(zip(channels, strides, kernels)):
            kernel = init.he(f"{name}.conv{i}.kernel", (c, c_prev) + tuple(k), c_prev * int(np.prod(k)))
            gshape = (1, c) + (1,) * nd
            gamma = init.full(f"{name}.conv{i}.gamma", 1.0, gshape)
            beta = init.full(f"{name}.conv{i}.beta", 0.0, gshape)
            self.layers.append((kernel, gamma, beta, s, tuple(d // 2 for d in k)))
            c_prev = c

    def forward(self, x: Tensor) -> Tensor:
        conv = T.conv3d if self.nd == 3 else T.conv2d
        last = len(self.layers) - 1
        for i, (kernel, gamma, beta, stride, pad) in enumerate(self.layers):
            # leaky slope keeps every channel trainable at desk batch sizes;
            # the final stage ends linear so pooled embeddings keep both signs
            x = conv(x, kernel, stride=stride, padding=pad, gamma=gamma, beta=beta, leaky=i != last)
        return x


class MlpHead:
    """Two affine layers with one leaky relu between them: the projection
    heads, and the Transformer's feed-forward blocks."""

    def __init__(self, name, init, in_dim, hidden, out_dim):
        self.w1 = init.he(f"{name}.w1", (in_dim, hidden), in_dim)
        self.b1 = init.full(f"{name}.b1", 0.0, hidden)
        self.w2 = init.normal(f"{name}.w2", np.sqrt(1.0 / hidden), (hidden, out_dim))
        self.b2 = init.full(f"{name}.b2", 0.0, out_dim)

    def forward(self, x: Tensor) -> Tensor:
        """(..., in_dim) -> (..., out_dim)."""
        h = T.leaky_relu(T.add(T.matmul(x, self.w1), self.b1))
        return T.add(T.matmul(h, self.w2), self.b2)

    def forward_points(self, x: Tensor) -> Tensor:
        """(M, N, in_dim) point tokens -> (M * N, out_dim) rows, each point
        projected independently: row m * N + n is sample m, point n."""
        rows = self.forward(x)
        return T.reshape(rows, (-1, rows.shape[2]))


def point_tokens(x: Tensor) -> Tensor:
    """(M, C, *spatial) map -> (M, N, C) point tokens, position n the map's
    C-order flat index: t-major, then h, then w."""
    M, C = x.shape[:2]
    return T.transpose(T.reshape(x, (M, C, -1)), (0, 2, 1))


class _Linear:
    def __init__(self, name, init, d_in, d_out):
        self.w = init.normal(f"{name}.w", np.sqrt(1.0 / d_in), (d_in, d_out))
        self.b = init.full(f"{name}.b", 0.0, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.w), self.b)


class _LayerNormParams:
    def __init__(self, name, init, dim):
        self.gamma = init.full(f"{name}.gamma", 1.0, dim)
        self.beta = init.full(f"{name}.beta", 0.0, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


def _attention(q, k, v, heads):
    """Multi-head scaled dot-product attention over (B, S, D) tensors, the heads
    an axis: q and v (B, heads, S, dh), k straight to (B, heads, dh, Sk)."""
    B, Sq, D = q.shape
    Sk = k.shape[1]
    dh = D // heads
    qh = T.transpose(T.reshape(q, (B, Sq, heads, dh)), (0, 2, 1, 3))
    kt = T.transpose(T.reshape(k, (B, Sk, heads, dh)), (0, 2, 3, 1))
    vh = T.transpose(T.reshape(v, (B, Sk, heads, dh)), (0, 2, 1, 3))
    attn = T.softmax(T.scale(T.matmul(qh, kt), 1.0 / np.sqrt(dh)))
    return T.reshape(T.transpose(T.matmul(attn, vh), (0, 2, 1, 3)), (B, Sq, D))


class _AttentionBlock:
    def __init__(self, name, init, d):
        self.q = _Linear(f"{name}.q", init, d, d)
        # no key bias: q·b_k is the same for every key, so the softmax ignores it
        self.k_w = init.normal(f"{name}.k.w", np.sqrt(1.0 / d), (d, d))
        self.v = _Linear(f"{name}.v", init, d, d)
        self.o = _Linear(f"{name}.o", init, d, d)

    def __call__(self, x_q, x_kv, heads):
        return self.o(_attention(self.q(x_q), T.matmul(x_kv, self.k_w), self.v(x_kv), heads))


class _Block:
    """One pre-LN residual block: self-attention on one pre-norm, then
    cross-attention to the encoder memory (decoder blocks only), then the
    feed-forward MlpHead, each added back to its input. The norms are
    numbered ln1, ln2, ln3 in that order."""

    def __init__(self, name, init, cfg: TransformerConfig, cross: bool):
        d = cfg.width
        self.heads = cfg.heads
        self.ln1 = _LayerNormParams(f"{name}.ln1", init, d)
        self.self_attn = _AttentionBlock(f"{name}.self_attn", init, d)
        self.ln_cross = self.cross_attn = None
        if cross:
            self.ln_cross = _LayerNormParams(f"{name}.ln2", init, d)
            self.cross_attn = _AttentionBlock(f"{name}.cross_attn", init, d)
        self.ln_ff = _LayerNormParams(f"{name}.ln{3 if cross else 2}", init, d)
        self.ff = MlpHead(f"{name}.ff", init, d, cfg.ff_width, d)

    def __call__(self, x: Tensor, memory: Tensor | None = None) -> Tensor:
        h = self.ln1(x)  # self-attention: the one pre-norm is query, key and value
        x = T.add(x, self.self_attn(h, h, self.heads))
        if self.cross_attn is not None:
            x = T.add(x, self.cross_attn(self.ln_cross(x), memory, self.heads))
        return T.add(x, self.ff.forward(self.ln_ff(x)))


class Transformer:
    """Pre-LN encoder-decoder predicting motion point tokens from clip
    feature maps, both in `point_tokens` order."""

    def __init__(self, init, model_cfg: ModelConfig):
        cfg = model_cfg.transformer
        self.cfg = cfg
        c1, t1, h1, w1 = model_cfg.clip_feat_shape
        c3, t3, h3, w3 = model_cfg.motion_feat_shape
        self.in_shape = (c1, t1, h1, w1)
        self.seq_in = t1 * h1 * w1
        self.n_queries = t3 * h3 * w3
        d = cfg.width

        self.in_proj = _Linear("transformer.in_proj", init, c1, d)
        self.pos_enc = init.normal("transformer.pos_enc", 0.02, (self.seq_in, d))
        self.queries = init.normal("transformer.queries", 0.02, (self.n_queries, d))
        self.query_pos = init.normal("transformer.query_pos", 0.02, (self.n_queries, d))

        self.enc_layers = [_Block(f"transformer.enc{i}", init, cfg, cross=False) for i in range(cfg.encoder_layers)]
        self.dec_layers = [_Block(f"transformer.dec{i}", init, cfg, cross=True) for i in range(cfg.decoder_layers)]
        self.enc_norm = _LayerNormParams("transformer.enc_norm", init, d)
        self.dec_norm = _LayerNormParams("transformer.dec_norm", init, d)
        self.out_proj = _Linear("transformer.out_proj", init, d, c3)

    def embed_inputs(self, x: Tensor) -> Tensor:
        """(B, C1, T1, H1, W1) -> (B, S, width) tokens with positions added."""
        _check_batch(x, self.in_shape, "transformer input")
        return T.add(self.in_proj(point_tokens(x)), self.pos_enc)

    def encode(self, tokens: Tensor) -> Tensor:
        h = tokens
        for layer in self.enc_layers:
            h = layer(h)
        return self.enc_norm(h)

    def decode(self, memory: Tensor) -> Tensor:
        B = memory.shape[0]
        zeros = np.zeros((B, self.n_queries, self.cfg.width), dtype=self.queries.data.dtype)
        q = T.add(T.add(self.queries, self.query_pos), Tensor(zeros))
        for layer in self.dec_layers:
            q = layer(q, memory)
        return self.dec_norm(q)

    def forward(self, x: Tensor) -> Tensor:
        """(B, C1, T1, H1, W1) -> (B, T3 * H3 * W3, C3) motion point tokens."""
        return self.out_proj(self.decode(self.encode(self.embed_inputs(x))))


def _check_batch(x, want: tuple, what: str):
    """A batch (B,) + want; an unbatched input fails too."""
    if tuple(x.shape[1:]) != want:
        raise ValueError(f"{what} shape {tuple(x.shape[1:])}, expected {want}")


class ModelBundle:
    """All learnable state: three backbones, the Transformer, four MLP heads,
    and a tiny per-point value head for the direct-regression loss variant.

    Parameters are drawn in float64 from `seed` and stored in `dtype`
    (float32 or float64), so both dtypes start from the same values rounded.
    Every forward computes in that dtype."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"ModelBundle dtype must be float32 or float64, got {self.dtype}")
        self.config = config or ModelConfig()
        cfg = self.config
        init = _Init(seed, self.dtype)
        # spatial-only stem keeps the full-resolution layer cheap; temporal
        # mixing starts at the stride-2 stages
        self.v_net = ConvStack(
            "v_net", init, 3, cfg.v_channels,
            [(1, 1, 1), (2, 2, 2), (2, 2, 2)], nd=3,
            kernels=[(1, 3, 3), (3, 3, 3), (3, 3, 3)],
        )
        self.i_net = ConvStack("i_net", init, 3, cfg.i_channels, [(1, 1), (2, 2), (2, 2)], nd=2)
        self.m_net = ConvStack(
            "m_net", init, 2, cfg.m_channels, [(2, 2, 2), (2, 2, 2), (1, 2, 2)], nd=3
        )
        self.transformer = Transformer(init, cfg)
        c1 = cfg.clip_feat_shape[0]
        c2 = cfg.iframe_feat_shape[0]
        c3 = cfg.motion_feat_shape[0]
        self.g_v = MlpHead("g_v", init, c1, cfg.head_hidden, cfg.embed_dim)
        self.g_i = MlpHead("g_i", init, c2, cfg.head_hidden, cfg.embed_dim)
        self.g_m1 = MlpHead("g_m1", init, c3, cfg.head_hidden, cfg.embed_dim)
        self.g_m2 = MlpHead("g_m2", init, c3, cfg.head_hidden, cfg.embed_dim)
        self.value_head = _Linear("value_head", init, c3, 2)
        self._params = init.params

    # -- forward passes: batches only, numpy arrays or Tensors ---------------

    def _batch(self, x) -> Tensor:
        """A numpy batch as a Tensor of the parameters' dtype; a Tensor as is."""
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))

    def v_forward(self, clip) -> Tensor:
        """(B, 3, clip_len, S, S) clips -> (B, C1, T1, H1, W1) features."""
        cfg = self.config
        _check_batch(clip, (3, cfg.clip_len, cfg.input_size, cfg.input_size), "clip")
        return self.v_net.forward(self._batch(clip))

    def i_forward(self, iframe) -> Tensor:
        """(B, 3, S, S) I-frames -> (B, C2, H2, W2) features."""
        cfg = self.config
        _check_batch(iframe, (3, cfg.input_size, cfg.input_size), "iframe")
        return self.i_net.forward(self._batch(iframe))

    def m_forward(self, mv_clip) -> Tensor:
        """(B, 2, mv_len, S, S) motion clips -> (B, C3, T3, H3, W3) features."""
        cfg = self.config
        _check_batch(mv_clip, (2, cfg.mv_len, cfg.input_size, cfg.input_size), "mv clip")
        return self.m_net.forward(self._batch(mv_clip))

    def transformer_predict(self, x) -> Tensor:
        """(B, C1, T1, H1, W1) clip features -> (B, T3 * H3 * W3, C3) motion
        point tokens, in `point_tokens` order."""
        return self.transformer.forward(x)

    # -- parameter plumbing ---------------------------------------------------

    def params(self) -> dict:
        """Every parameter by full name, in draw order; a new dict each call."""
        return dict(self._params)

    def zero_grads(self):
        for p in self.params().values():
            p.zero_grad()

    def zero_grad_fraction(self) -> float:
        """Fraction of parameters whose gradient is exactly zero."""
        total = 0
        zeros = 0
        for p in self.params().values():
            total += p.data.size
            if p.grad is None:
                zeros += p.data.size
            else:
                zeros += int((p.grad == 0).sum())
        return zeros / max(total, 1)


# -- checkpoint container --------------------------------------------------------

CKPT_MAGIC = b"CMCK"
CKPT_VERSION = 2
# the largest rank every supported numpy can build (numpy 1.x caps it at 32)
_CKPT_MAX_RANK = 32
# magic, version, metadata length, CRC32 of every byte after the header
_CKPT_HEADER = struct.Struct("<4sHII")


def save_arrays(path, arrays: dict, meta: dict | None = None):
    """Versioned binary of named arrays plus a JSON metadata blob. Every array
    is stored as little-endian float64 (`<f8`), whatever its dtype; a float32
    array widens exactly. The header ends with the zlib CRC32 of the body:
    the metadata and every array record after it."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode()
    body = [meta_bytes, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        nb = name.encode()
        body.append(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
        body.append(arr.astype("<f8").tobytes())
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, len(meta_bytes), crc))
        fh.writelines(body)


def load_arrays(path):
    """Read a save_arrays file. A malformed file raises a ValueError naming
    the byte offset and, past the metadata, the array it was reading. The
    body's CRC32 is checked once the whole file has parsed, so a structural
    fault is named as such; a mismatch names both CRCs."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: truncated {what} at byte {pos}: needs {n} bytes, {len(buf) - pos} left")
        pos += n
        return buf[pos - n : pos]

    magic, version, meta_len, stored_crc = _CKPT_HEADER.unpack(take(_CKPT_HEADER.size, "checkpoint header"))
    if magic != CKPT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(take(meta_len, "metadata").decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: metadata at byte {_CKPT_HEADER.size} is not JSON: {e}") from None
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays = {}
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"array {i} name length"))
        raw = take(nlen, f"array {i} name")
        try:
            name = raw.decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: array {i} name at byte {pos - nlen} is not UTF-8") from None
        if name in arrays:
            raise ValueError(f"{path}: array {name} stored twice (second at byte {pos - nlen})")
        (ndim,) = struct.unpack("<B", take(1, f"array {name} rank"))
        if ndim > _CKPT_MAX_RANK:
            raise ValueError(f"{path}: array {name} rank {ndim} at byte {pos - 1} exceeds {_CKPT_MAX_RANK}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"array {name} shape"))
        arr = np.frombuffer(take(8 * math.prod(shape), f"array {name} body"), dtype="<f8")
        if not np.isfinite(arr).all():
            j = int(np.argmin(np.isfinite(arr)))
            raise ValueError(f"{path}: array {name} holds {arr[j]} at flat index {j}")
        arrays[name] = arr.reshape(shape).astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after the last array, from byte {pos}")
    crc = zlib.crc32(memoryview(buf)[_CKPT_HEADER.size :])
    if crc != stored_crc:
        raise ValueError(f"{path}: body CRC32 {crc:#010x} does not match the header's {stored_crc:#010x}")
    return arrays, meta


def save_checkpoint(bundle: ModelBundle, path, extra_arrays: dict | None = None, meta: dict | None = None):
    arrays = {name: p.data for name, p in bundle.params().items()}
    if extra_arrays:
        arrays.update(extra_arrays)
    full_meta = {"model_config": asdict(bundle.config), "dtype": bundle.dtype.name}
    full_meta.update(meta or {})
    save_arrays(path, arrays, full_meta)


def load_checkpoint(path, bundle: ModelBundle | None = None):
    """Restore (or build) a bundle; returns (bundle, extra_arrays, meta).

    A bundle built here gets the config and dtype the checkpoint recorded.
    Every parameter is checked before any is written, so a checkpoint that
    fails leaves a given bundle as it was."""
    arrays, meta = load_arrays(path)
    if bundle is None:
        if not isinstance(meta, dict) or not isinstance(meta.get("model_config"), dict):
            raise ValueError(f"{path}: checkpoint metadata has no model_config to build a bundle from")
        try:
            config = ModelConfig(**meta["model_config"])
        except (TypeError, ValueError) as e:  # an unknown key, or a value the configs reject
            raise ValueError(f"{path}: bad model_config: {e}") from None
        dtype = meta.get("dtype", "float32")
        if dtype not in ("float32", "float64"):
            raise ValueError(f"{path}: checkpoint dtype {dtype!r} is not float32 or float64")
        bundle = ModelBundle(config=config, dtype=dtype)
    extras, loaded = {}, {}
    params = bundle.params()
    for name, arr in arrays.items():
        if name not in params:
            extras[name] = arr
            continue
        dest = params[name].data
        if dest.shape != arr.shape:
            raise ValueError(f"{path}: parameter {name} shape {arr.shape} != {dest.shape}")
        with np.errstate(over="ignore"):
            loaded[name] = arr.astype(dest.dtype)
        if not np.isfinite(loaded[name]).all():
            j = int(np.argmin(np.isfinite(loaded[name])))
            raise ValueError(
                f"{path}: parameter {name} holds {arr.flat[j]} at flat index {j}, not finite in {dest.dtype}"
            )
    missing = set(params) - set(loaded)
    if missing:
        raise ValueError(f"{path}: checkpoint missing parameters: {sorted(missing)[:4]}...")
    for name, value in loaded.items():
        params[name].data[...] = value
    return bundle, extras, meta

