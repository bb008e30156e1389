"""Sampling, augmentation, and the contrastive objectives.

The joint objective combines a batch-level context matching loss between
clip and I-frame embeddings with a pointwise motion prediction loss between
predicted and encoded future motion features, extended by same-video hard
negative motion clips in the denominator pool. Variant toggles cover the
current-vs-future target period and the InfoNCE-vs-MSE motion loss.

Raster contract: `load_videos` resizes each decoded video once, by nearest
neighbour, to the model raster (`ModelConfig.input_size` square), and a
`VideoRecord` holds its frames there; `materialize_sample` reads them as they
are and rejects a record on any other raster. Motion maps are resampled to
that raster from the MV grids of the record's `MotionField` as each sample
is built; a record holds no I-frame or residual of the codec.

All augmentation happens in model space, so an identity parameter draw
leaves a sample bit-identical. Horizontal flips negate the dx channel of
motion maps, and crops rescale offsets by the resize factor.

A training sample holds the augmented clip, I-frame and motion windows the
pretext losses read. An eval sample (`materialize_sample(train=False)`)
holds only its unaugmented clip, the one input the frozen video backbone
reads: no I-frame, no motion map is built for it, and its collated batch is
`{"clip", "video_ids"}`.

Dtypes: every array a sample holds, and so every float array `collate`
returns, is float32, the default ModelBundle's dtype; a float64 bundle casts
it up exactly. Frame indices, video ids and the codec's pixels and motion
vectors stay integer until a sample is built from them. Augmentation
computes in its input's float dtype.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .codec import MotionField, decode_video, extract_modalities, nearest_raster, read_cmv1
from .networks import ModelBundle, ModelConfig, _positive_int, point_tokens
from .synthgen import SPLITS, load_manifest
from .tensor import Tensor

# the I-frame is drawn from the positions within this many GOPs of the clip
IFRAME_WINDOW_GOPS = 1
# a crop keeps at least this share of the side; flips happen with this chance
CROP_MIN_SCALE = 0.6
FLIP_PROB = 0.5


@dataclass
class PretextConfig:
    temperature: float = 0.1
    alpha: float = 0.5
    target_period: str = "future"  # future | current
    motion_loss: str = "pointwise_infonce"  # pointwise_infonce | mse
    hard_negative_count: int = 3
    clip_stride: int = 2
    blur_prob: float = 0.5
    jitter_strength: float = 0.2

    def __post_init__(self):
        # nan fails every range test; a stride below 1 would freeze or reverse the clip
        for name, ok, want in (
            ("alpha", 0.0 <= self.alpha <= 1.0, "in [0, 1]"),
            ("temperature", 0.0 < self.temperature < np.inf, "positive and finite"),
            ("clip_stride", _positive_int(self.clip_stride), "a positive int"),
            ("hard_negative_count", self.hard_negative_count == 0 or _positive_int(self.hard_negative_count), "an int >= 0"),
            ("blur_prob", 0.0 <= self.blur_prob <= 1.0, "in [0, 1]"),
            ("jitter_strength", 0.0 <= self.jitter_strength < 1.0, "in [0, 1)"),
        ):
            if not ok:
                raise ValueError(f"PretextConfig.{name} must be {want}, got {getattr(self, name)!r}")
        if self.target_period not in ("future", "current"):
            raise ValueError(f"unknown target_period {self.target_period!r}")
        if self.motion_loss not in ("pointwise_infonce", "mse"):
            raise ValueError(f"unknown motion_loss {self.motion_loss!r}")


@dataclass
class VideoRecord:
    """A decoded dataset video: what sampling reads and nothing more.
    `frames` is the decode resized to the model raster, (T, s, s, 3) uint8
    with s = `ModelConfig.input_size`. `cv` is the video's `MotionField`:
    the codec config, the coded height, width and frame count, and the MV
    grids. No I-frame or residual is held; the context I-frame is read from
    `frames`."""

    video_id: int
    frames: np.ndarray  # (T, s, s, 3) uint8, decoded, on the model raster
    cv: MotionField
    context_class: int
    motion_class: int
    split: str


def load_videos(dataset_dir, split: str | None = None, model_cfg: ModelConfig | None = None) -> list[VideoRecord]:
    """Decode every dataset video of `split` ("train", "test", or None for
    all) into memory (desk scale keeps this cheap), each resized once to the
    raster of `model_cfg` (None: `ModelConfig()`), the only one sampling for
    that model reads.

    The manifest is read and checked by `synthgen.load_manifest`, which names
    the record of a path that is not a file. `read_cmv1` checks each file
    once, and decoding adds only the reconstruction-range check. Each
    video's full-resolution frames, I-frames and residuals are dropped as
    soon as it is decoded and resized, so a record holds its model-raster
    frames and its MV grids; the next video's arrays reuse the freed blocks.
    """
    if split not in (None, *SPLITS):
        raise ValueError(f"unknown split {split!r}, expected one of {SPLITS} or None")
    size = (model_cfg or ModelConfig()).input_size
    dataset_dir = Path(dataset_dir)
    records = []
    for i, rec in enumerate(load_manifest(dataset_dir)):
        if split is not None and rec["split"] != split:
            continue
        cv = read_cmv1(dataset_dir / rec["path"])
        frames = resize_nn(decode_video(cv).frames, (size, size))
        # the full-resolution decode is already gone; rebinding frees the
        # I-frames and residuals before the next video is read, so that its
        # arrays reuse their heap blocks
        cv = cv.motion_field()
        records.append(
            VideoRecord(
                video_id=i,
                frames=frames,
                cv=cv,
                context_class=rec["context_class"],
                motion_class=rec["motion_class"],
                split=rec["split"],
            )
        )
    return records


def resize_nn(frames: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize of (..., H, W, C) along the two spatial axes."""
    ys = nearest_raster(frames.shape[-3], size[0])
    xs = nearest_raster(frames.shape[-2], size[1])
    return np.take(np.take(frames, ys, axis=-3), xs, axis=-2)


# -- index-level sampling (pure, cheap to audit) --------------------------------


@dataclass
class SampleIndices:
    video_id: int
    clip_indices: np.ndarray
    iframe_index: int
    mv_indices: np.ndarray
    negative_mv_starts: list


def valid_clip_start_range(n_frames, clip_len, stride, horizon) -> int:
    """Largest valid clip start (inclusive); negative means video too short.

    The horizon is reserved for both target periods so that toggling the
    period swaps only the supervision window, never the clip distribution."""
    return n_frames - ((clip_len - 1) * stride + 1) - horizon


def build_motion_target(clip_indices: np.ndarray, horizon: int, cfg: PretextConfig) -> np.ndarray:
    """Frame indices of the motion supervision window for either period."""
    if cfg.target_period == "future":
        end = int(clip_indices[-1])
        return np.arange(end + 1, end + 1 + horizon)
    # current: ride along the clip window, evenly subsampled to the horizon (exactly itself if as long)
    pos = np.linspace(0, len(clip_indices) - 1, horizon)
    return clip_indices[np.floor(pos + 0.5).astype(int)]


def draw_sample_indices(
    n_frames: int,
    video_id: int,
    iframe_positions: list[int],
    gop_size: int,
    model_cfg: ModelConfig,
    cfg: PretextConfig,
    rng: np.random.Generator,
) -> SampleIndices | None:
    """Pure index logic for one training sample; None if the video is too short."""
    clip_len, horizon = model_cfg.clip_len, model_cfg.mv_len
    max_start = valid_clip_start_range(n_frames, clip_len, cfg.clip_stride, horizon)
    if max_start < 0:
        return None
    start = int(rng.integers(0, max_start + 1))
    clip_indices = start + cfg.clip_stride * np.arange(clip_len)
    clip_end = int(clip_indices[-1])

    lo = start - IFRAME_WINDOW_GOPS * gop_size
    hi = clip_end + IFRAME_WINDOW_GOPS * gop_size
    # never empty: [start - gop_size, start] holds a multiple of gop_size, an I-frame
    nearby = [t for t in iframe_positions if lo <= t <= hi]
    iframe_index = int(nearby[rng.integers(0, len(nearby))])

    mv_indices = build_motion_target(clip_indices, horizon, cfg)

    # hard negatives: every window start overlapping the positive window by
    # less than half the horizon
    starts = np.arange(n_frames - horizon + 1)
    overlap = np.minimum(starts + horizon - 1, mv_indices[-1]) - np.maximum(starts, mv_indices[0]) + 1
    candidates = starts[overlap < horizon / 2.0]
    if not len(candidates):
        return None
    neg_starts = [int(candidates[rng.integers(0, len(candidates))]) for _ in range(cfg.hard_negative_count)]
    return SampleIndices(
        video_id=video_id,
        clip_indices=clip_indices,
        iframe_index=iframe_index,
        mv_indices=mv_indices,
        negative_mv_starts=neg_starts,
    )


# -- sample materialization and augmentation -------------------------------------


@dataclass
class TrainingSample:
    """One sample's model-space arrays, all float32. An eval sample holds
    only its clip, C-contiguous; its three pretext fields are None."""

    video_id: int
    clip: np.ndarray  # (3, T, h, w) in [0, 1]
    iframe: np.ndarray | None = None  # (3, h, w) in [0, 1]
    future_mv: np.ndarray | None = None  # (2, T', h, w), offsets normalized by search_range
    hard_negative_mvs: np.ndarray | None = None  # (k, 2, T', h, w), normalized the same way


@dataclass
class AugmentParams:
    crop: tuple  # (top, left, size) in model-space pixels
    flip: bool
    blur_sigma: float  # 0 disables
    brightness: float
    contrast: float


def draw_augment_params(size: int, cfg: PretextConfig, rng: np.random.Generator) -> AugmentParams:
    scale = rng.uniform(CROP_MIN_SCALE, 1.0)
    crop_size = max(8, int(np.floor(size * scale + 0.5)))  # <= size, as scale < 1 and size >= 8
    top = int(rng.integers(0, size - crop_size + 1))
    left = int(rng.integers(0, size - crop_size + 1))
    flip = bool(rng.random() < FLIP_PROB)
    blur_sigma = float(rng.uniform(0.3, 1.0)) if rng.random() < cfg.blur_prob else 0.0
    j = cfg.jitter_strength
    brightness = float(rng.uniform(1.0 - j, 1.0 + j))
    contrast = float(rng.uniform(1.0 - j, 1.0 + j))
    return AugmentParams(crop=(top, left, crop_size), flip=flip, blur_sigma=blur_sigma,
                         brightness=brightness, contrast=contrast)


def _blur(frames: np.ndarray, sigma: float) -> np.ndarray:
    """Separable 3-tap Gaussian along the last two axes, edge-padded, in the
    input's float dtype."""
    if sigma <= 0.0:
        return frames
    # Python floats, so a float32 input stays float32
    k1 = float(np.exp(-0.5 / (sigma * sigma)))
    total = k1 + 1.0 + k1
    side, centre = k1 / total, 1.0 / total
    for axis in (frames.ndim - 2, frames.ndim - 1):
        n = frames.shape[axis]
        p = np.concatenate([frames.take([0], axis=axis), frames, frames.take([-1], axis=axis)], axis=axis)
        lo, mid, hi = (p[(slice(None),) * axis + (slice(i, i + n),)] for i in range(3))
        frames = side * lo + centre * mid + side * hi
    return frames


def augment_frames(frames: np.ndarray, params: AugmentParams, out_size: int) -> np.ndarray:
    """Crop/resize/flip/blur/jitter float image frames of shape (..., H, W, C)
    in [0, 1], in their dtype."""
    top, left, size = params.crop
    if size > frames.shape[-3] or size > frames.shape[-2]:
        raise ValueError(f"crop {size} larger than frame {frames.shape[-3:-1]}")
    out = frames[..., top : top + size, left : left + size, :]
    if size != out_size:
        out = resize_nn(out, (out_size, out_size))
    if params.flip:
        out = out[..., ::-1, :]
    # Known defect: this filters W and the colour channels, not H and W. The fix moves the
    # benchmark's gate losses, so it waits for ROADMAP item 4: read no colour result as blur's.
    out = _blur(out, params.blur_sigma)
    if params.brightness != 1.0:
        out = out * params.brightness
    if params.contrast != 1.0:
        mean = out.mean(axis=(-3, -2), keepdims=True)
        out = (out - mean) * params.contrast + mean
    return np.clip(out, 0.0, 1.0)


def augment_mv(mv: np.ndarray, params: AugmentParams, out_size: int) -> np.ndarray:
    """Crop/resize/flip float motion maps (..., 2, T, H, W) in their dtype;
    offsets track the geometry. The result never shares memory with mv."""
    top, left, size = params.crop
    if size > mv.shape[-2] or size > mv.shape[-1]:
        raise ValueError(f"crop {size} larger than mv map {mv.shape[-2:]}")
    out = mv[..., top : top + size, left : left + size]
    if size != out_size:
        # a trailing unit axis gives resize_nn the (..., H, W, C) layout it expects
        out = resize_nn(out[..., None], (out_size, out_size))[..., 0]
        factor = out_size / size
        out = out * factor  # offsets are in pixels; rescale with the raster
    if params.flip:
        out = out[..., ::-1].copy()
        out[..., 0, :, :, :] = -out[..., 0, :, :, :]  # dx channel flips sign
    return out if out.base is None else out.copy()


def materialize_sample(
    video: VideoRecord, idx: SampleIndices, model_cfg: ModelConfig, cfg: PretextConfig,
    rng: np.random.Generator | None = None, train: bool = True,
) -> TrainingSample:
    """Extract model-space arrays for drawn indices, then augment.

    `video.frames` must sit on the model raster (see `load_videos`). In
    training mode the positive motion clip reuses the clip's crop and flip;
    the I-frame and each hard negative get independent draws from `rng`.
    Eval mode builds the clip alone, unaugmented; the sample's I-frame and
    motion windows are None.
    """
    size = model_cfg.input_size
    horizon = model_cfg.mv_len
    scale_hw = (size, size)
    if video.frames.shape[1:3] != scale_hw:
        raise ValueError(
            f"video {video.video_id}: frames {video.frames.shape} are not on the model raster "
            f"of input_size {size}; load them with this model's config"
        )

    if not train:
        # an identity draw would leave the clip as it is: float32 u / 255 is
        # float64 u / 255 rounded, already in [0, 1]
        frames = video.frames[idx.clip_indices].transpose(3, 0, 1, 2)
        clip = np.divide(frames, 255, out=np.empty(frames.shape, np.float32), dtype=np.float32)
        return TrainingSample(video_id=video.video_id, clip=clip)
    if rng is None:
        raise ValueError("training-mode materialization needs an rng")

    # float32 u / 255 is float64 u / 255 rounded, for every uint8 u
    clip_frames = np.divide(video.frames[idx.clip_indices], 255, dtype=np.float32)
    iframe = np.divide(video.frames[idx.iframe_index], 255, dtype=np.float32)

    # the positive window, then each hard negative's, gathered in one call
    windows = [idx.mv_indices] + [s + np.arange(horizon) for s in idx.negative_mv_starts]
    maps = extract_modalities(video.cv, np.concatenate(windows), out_size=scale_hw)
    mvs = maps.reshape(len(windows), horizon, 2, size, size).transpose(0, 2, 1, 3, 4)  # (1 + k, 2, T', h, w)
    pos_mv, neg_mvs = mvs[0], mvs[1:]

    clip_params = draw_augment_params(size, cfg, rng)
    iframe_params = draw_augment_params(size, cfg, rng)
    neg_params = [draw_augment_params(size, cfg, rng) for _ in range(len(neg_mvs))]

    clip = augment_frames(clip_frames, clip_params, size).transpose(3, 0, 1, 2)
    ifr = augment_frames(iframe, iframe_params, size).transpose(2, 0, 1)
    pos = augment_mv(pos_mv, clip_params, size)  # crop/flip shared with the clip
    negs = (
        np.stack([augment_mv(m, p, size) for m, p in zip(neg_mvs, neg_params)])
        if len(neg_mvs)
        else neg_mvs
    )

    sr = max(video.cv.config.search_range, 1)
    return TrainingSample(
        video_id=video.video_id,
        clip=clip,
        iframe=ifr,
        future_mv=pos / sr,
        hard_negative_mvs=negs / sr,
    )


def sample_training_batch(
    videos: list[VideoRecord], batch_size: int, model_cfg: ModelConfig, cfg: PretextConfig,
    rng: np.random.Generator,
) -> list[TrainingSample]:
    """Draw B samples from distinct videos (cycling when B exceeds the pool)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not videos:
        raise ValueError("empty video pool")
    perm = rng.permutation(len(videos))
    chosen = [videos[perm[i % len(videos)]] for i in range(batch_size)]
    samples = []
    for video in chosen:
        idx = draw_sample_indices(
            video.frames.shape[0], video.video_id, video.cv.iframe_indices(),
            video.cv.config.gop_size, model_cfg, cfg, rng,
        )
        if idx is None:
            warnings.warn(f"video {video.video_id} too short for clip+horizon, skipped")
            continue
        samples.append(materialize_sample(video, idx, model_cfg, cfg, rng=rng, train=True))
    if not samples:
        raise ValueError("no video in the pool is long enough for the configured windows")
    return samples


def collate(samples: list[TrainingSample]) -> dict:
    """Stack what the samples hold: a training batch is {"clip", "iframe",
    "mv", "neg_mv", "video_ids"}, with the hard negatives of every sample
    concatenated along the first axis; an eval batch is {"clip",
    "video_ids"}. A list mixing the two kinds is rejected."""
    if not samples:
        raise ValueError("collate needs at least one sample")
    n_eval = sum(s.iframe is None for s in samples)
    if n_eval not in (0, len(samples)):
        raise ValueError(
            f"collate got {n_eval} eval and {len(samples) - n_eval} training samples; a batch holds one kind"
        )
    batch = {"clip": np.stack([s.clip for s in samples])}
    if not n_eval:
        batch["iframe"] = np.stack([s.iframe for s in samples])
        batch["mv"] = np.stack([s.future_mv for s in samples])
        batch["neg_mv"] = np.concatenate([s.hard_negative_mvs for s in samples], axis=0)
    batch["video_ids"] = np.array([s.video_id for s in samples])
    return batch


# -- losses ------------------------------------------------------------------------


def _info_nce(anchors: Tensor, positives: Tensor, negatives: Tensor | None, tau: float):
    """InfoNCE over (P, C) rows: anchor i is scored against positive i and,
    in the denominator, against every positive and every negative row.

    Returns (mean loss, the logits it read as numpy (P, Q)): [i, k] is
    cos(a_i, pool_k) / tau over the P positives, then the negatives in order."""
    an = T.scale(T.l2_normalize(anchors), 1.0 / tau)
    pos = T.l2_normalize(positives)
    pool = pos if negatives is None else T.concat([pos, T.l2_normalize(negatives)], axis=0)
    logits = T.matmul(an, T.transpose(pool, (1, 0)))
    diag = T.tsum(T.mul(an, pos), axis=1)  # logits[i, i], as a row dot
    return T.tmean(T.sub(T.logsumexp(logits), diag)), logits.data


def context_matching_loss(clip_emb: Tensor, iframe_emb: Tensor, tau: float):
    """Batch InfoNCE between clip anchors and I-frame candidates.

    Returns (loss, logits as numpy (B_anchor, B_candidate)), see _info_nce."""
    B = clip_emb.shape[0]
    if B == 0:
        raise ValueError("empty batch")
    if iframe_emb.shape[0] != B:
        raise ValueError(f"batch mismatch: {B} clips vs {iframe_emb.shape[0]} iframes")
    return _info_nce(clip_emb, iframe_emb, None, tau)


def motion_prediction_loss(pred: Tensor, truth: Tensor, negatives: Tensor | None, tau: float):
    """Pointwise InfoNCE over `MlpHead.forward_points` rows (P, C): anchor i is
    a predicted point, positive i the true point at the same (video, position);
    hard-negative rows only enlarge the pool. Returns (loss, logits numpy
    (P, Q)): cos / tau against the P true points, then each negative row."""
    if tuple(truth.shape) != tuple(pred.shape):
        raise ValueError(f"pred {tuple(pred.shape)} vs truth {tuple(truth.shape)} shape mismatch")
    return _info_nce(pred, truth, negatives, tau)


def motion_mse_loss(pred: Tensor, truth: Tensor) -> Tensor:
    """Plain MSE on raw motion values (the direct-regression variant)."""
    if tuple(pred.shape) != tuple(truth.shape):
        raise ValueError(f"shape mismatch: {tuple(pred.shape)} vs {tuple(truth.shape)}")
    d = T.sub(pred, truth)
    return T.tmean(T.mul(d, d))


def joint_loss(j_i: Tensor | None, j_m: Tensor | None, alpha: float) -> Tensor:
    """(1 - alpha) * j_i + alpha * j_m for an alpha PretextConfig has checked."""
    if alpha == 0.0:
        return j_i
    if alpha == 1.0:
        return j_m
    return T.add(T.scale(j_i, 1.0 - alpha), T.scale(j_m, alpha))


def pool_mv_values(mv: np.ndarray, out_shape: tuple) -> np.ndarray:
    """Average-pool raw (B, 2, T', h, w) motion values to (B, 2, T3, H3, W3),
    the last three of `out_shape`; regression target for the MSE variant."""
    B, c, t, h, w = mv.shape
    _, t3, h3, w3 = out_shape
    ft, fh, fw = t // t3, h // h3, w // w3
    return mv.reshape(B, c, t3, ft, h3, fh, w3, fw).mean(axis=(3, 5, 7))


# -- full pretext forward ------------------------------------------------------------


@dataclass
class PretextOutput:
    """The losses, and as numpy (P, Q) the logits each InfoNCE read: anchor i
    against the P positives (its own at column i), then the negatives."""

    loss: Tensor
    j_i: Tensor | None
    j_m: Tensor | None
    context_logits: np.ndarray | None
    motion_logits: np.ndarray | None


def pretext_forward(bundle: ModelBundle, batch: dict, cfg: PretextConfig) -> PretextOutput:
    """Run every branch the configured objective needs and combine losses."""
    if "iframe" not in batch:
        raise ValueError("the batch holds eval samples (clip only); the pretext losses need training samples")
    j_i = j_m = None
    context_logits = motion_logits = None

    xv = bundle.v_forward(batch["clip"])  # (B, C1, T1, H1, W1)

    if cfg.alpha < 1.0:
        zi = bundle.i_forward(batch["iframe"])
        clip_emb = bundle.g_v.forward(T.tmean(xv, axis=(2, 3, 4)))
        iframe_emb = bundle.g_i.forward(T.tmean(zi, axis=(2, 3)))
        j_i, context_logits = context_matching_loss(clip_emb, iframe_emb, cfg.temperature)

    if cfg.alpha > 0.0:
        vhat = bundle.transformer_predict(xv)  # (B, N, C3) point tokens
        if cfg.motion_loss == "mse":
            target = pool_mv_values(batch["mv"], bundle.config.motion_feat_shape)
            target = point_tokens(Tensor(target.astype(bundle.dtype, copy=False)))  # (B, N, 2)
            j_m = motion_mse_loss(bundle.value_head(vhat), target)
        else:
            truth = bundle.g_m1.forward_points(point_tokens(bundle.m_forward(batch["mv"])))
            pred = bundle.g_m2.forward_points(vhat)
            negatives = None
            if batch["neg_mv"].shape[0] > 0:
                negatives = bundle.g_m1.forward_points(point_tokens(bundle.m_forward(batch["neg_mv"])))
            j_m, motion_logits = motion_prediction_loss(pred, truth, negatives, cfg.temperature)

    return PretextOutput(
        loss=joint_loss(j_i, j_m, cfg.alpha),
        j_i=j_i,
        j_m=j_m,
        context_logits=context_logits,
        motion_logits=motion_logits,
    )
