"""Mini block-based video codec: I-frames plus motion-compensated P-frames.

Frames are (H, W, 3) uint8 on a whole block grid, which encoding requires. Each
GOP stores one full I-frame followed by P-frames carrying a per-block MV grid
and a lossless int16 residual, so decode(encode(v)) is v, bit for bit.

Motion search is exhaustive: every block tries every offset (dx, dy) with
|dx|, |dy| <= search_range and keeps the one with the smallest sum of
absolute differences (SAD) over all 3 channels. A candidate is excluded
when its block would leave the frame (y+dy < 0, y+dy+b > H, and the same
for x), so a range wider than the frame is fine. Ties go to the smallest
|dx|+|dy|, then the smallest dy, then the smallest dx. Only moving blocks,
those that differ from the co-located reference block, are searched; a
static block gets (0, 0), which is what the full search returns for it:
its SAD at (0, 0) is 0, no SAD is negative, and (0, 0) comes first in the
tie-break. The arithmetic is exact: absolute differences stay in uint8,
and column and block sums in unsigned types wide enough for 255*b and
765*b*b. Encodes are therefore the same on every platform.

Prediction copies each reference frame whole, so a block with vector
(0, 0) keeps its pixels with the frame, and then gathers only the moving
blocks, each as one b x b tile. Encoding predicts all P-frames of a video
at once. Decoding steps through the GOPs together, P-frame j of every GOP
in one step, and checks the reconstruction range once at the end; its
error still names the first out-of-range frame in frame order.

In memory a CompressedVideo of T frames, gop_size g and block_size b is
three arrays:
  iframes    (G, H, W, 3) uint8, G = ceil(T / g): frame t = g*i is iframes[i];
  mvs        (P, H/b, W/b, 2) int16, P = T - G: (dx, dy) per block;
  residuals  (P, H, W, 3) int16.
P-frames are in frame order: frame t (t % g != 0) is P-frame p = t - t//g - 1,
which is P-frame p % (g - 1) of GOP p // (g - 1).
Residuals are needed only to rebuild pixels. A video whose frames are
already decoded may drop them (residuals None): its I-frames and MVs are
still checked when it is built, but decode_video and write_cmv1 refuse it.

Container format CMV1 (all integers little-endian):
  magic 'CMV1', version u16, H u32, W u32, gop_size u16, block_size u16,
  search_range u16, frame_count u32; then per GOP the raw I-frame bytes,
  and per P-frame the MV grid (dx, dy as i16, row-major) and the residual
  as i16 samples.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CMV1_MAGIC = b"CMV1"
CMV1_VERSION = 1


@dataclass(frozen=True)
class CodecConfig:
    block_size: int = 8
    search_range: int = 7
    gop_size: int = 12

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.search_range < 0:
            raise ValueError(f"search_range must be >= 0, got {self.search_range}")
        if self.gop_size < 2:
            raise ValueError(f"gop_size must be >= 2, got {self.gop_size}")


@dataclass
class RawVideo:
    frames: np.ndarray  # (T, H, W, 3) uint8

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 4 or self.frames.shape[-1] != 3:
            raise ValueError(f"frames must be (T, H, W, 3), got {self.frames.shape}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


_ARRAYS = (("iframes", np.uint8), ("mvs", np.int16), ("residuals", np.int16))


def _shapes(cfg: CodecConfig, height: int, width: int, frame_count: int) -> tuple:
    """The shapes of iframes, mvs and residuals of a video of this geometry."""
    b = cfg.block_size
    n_i = -(-frame_count // cfg.gop_size)
    n_p = frame_count - n_i
    return (n_i, height, width, 3), (n_p, height // b, width // b, 2), (n_p, height, width, 3)


def _allocate(cfg: CodecConfig, height: int, width: int, frame_count: int) -> list:
    """Uninitialised iframes, mvs and residuals of a video of this geometry."""
    return [np.empty(shape, dtype) for shape, (_, dtype) in zip(_shapes(cfg, height, width, frame_count), _ARRAYS)]


def _check_geometry(cfg: CodecConfig, height: int, width: int, frame_count: int):
    """The geometry a video is laid out by: a whole block grid, one frame or more."""
    b = cfg.block_size
    for name, size in (("height", height), ("width", width)):
        if size < 1 or size % b:
            raise ValueError(f"{name} {size} is not a positive multiple of block_size {b}")
    if frame_count < 1:
        raise ValueError(f"frame_count {frame_count}: a video needs at least one frame")


@dataclass(frozen=True, eq=False)
class CompressedVideo:
    """I-frames, then every P-frame's MV grid and residual in frame order
    (see the module docstring). Building one checks everything but the
    reconstruction range, which only decoding can see, and the arrays it
    holds are read-only, so a CompressedVideo stays valid. Residuals None
    means they were dropped after decode: the video serves its I-frames and
    MVs, and cannot be decoded or written."""

    config: CodecConfig
    iframes: np.ndarray  # (G, H, W, 3) uint8
    mvs: np.ndarray  # (P, Hb, Wb, 2) int16, [..., 0] = dx, [..., 1] = dy
    residuals: np.ndarray | None  # (P, H, W, 3) int16, or None once dropped

    def __post_init__(self):
        for name, dtype in _ARRAYS:
            arr = getattr(self, name)
            if arr is None and name == "residuals":
                continue
            if not isinstance(arr, np.ndarray) or arr.dtype != dtype or arr.ndim != 4:
                got = f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ValueError(f"{name} must be a 4-d {np.dtype(dtype)} array, got {got}")
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        cfg = self.config
        g, b = cfg.gop_size, cfg.block_size
        h, w, n = self.height, self.width, self.frame_count
        _check_geometry(cfg, h, w, n)
        for (name, _), want in zip(_ARRAYS, _shapes(cfg, h, w, n)):
            arr = getattr(self, name)
            if arr is not None and arr.shape != want:
                raise ValueError(f"{name} of shape {arr.shape}, expected {want} for {n} frames at gop_size {g}")
        if len(self.mvs) == 0:
            return
        res = self.residuals
        # a uint8 pixel minus a uint8 prediction lies in [-255, 255]
        if res is not None and (res.min() < -255 or res.max() > 255):
            p, y, x, c = np.argwhere((res < -255) | (res > 255))[0]
            gi, pi = divmod(int(p), g - 1)
            raise ValueError(
                f"GOP {gi} P-frame {pi} pixel ({y}, {x}) channel {c}: residual {res[p, y, x, c]} outside [-255, 255]"
            )
        # per block, the (dx, dy) bounds of the search window cut to the frame
        r = cfg.search_range
        x, y = np.arange(w // b) * b, np.arange(h // b)[:, None] * b
        low = np.empty((h // b, w // b, 2), dtype=np.int64)
        high = np.empty_like(low)
        low[..., 0], low[..., 1] = np.maximum(-r, -x), np.maximum(-r, -y)
        high[..., 0], high[..., 1] = np.minimum(r, w - b - x), np.minimum(r, h - b - y)
        bad = (self.mvs < low) | (self.mvs > high)
        if bad.any():
            p, by, bx, _ = np.argwhere(bad)[0]
            gi, pi = divmod(int(p), g - 1)
            dx, dy = (int(v) for v in self.mvs[p, by, bx])
            what = f"exceeds search_range {r}" if max(abs(dx), abs(dy)) > r else f"moves the block outside the {h}x{w} frame"
            raise ValueError(f"GOP {gi} P-frame {pi} block ({by}, {bx}): motion vector ({dx}, {dy}) {what}")

    @property
    def height(self) -> int:
        return self.iframes.shape[1]

    @property
    def width(self) -> int:
        return self.iframes.shape[2]

    @property
    def frame_count(self) -> int:
        return len(self.iframes) + len(self.mvs)

    def iframe_indices(self) -> list[int]:
        return list(range(0, self.frame_count, self.config.gop_size))


def _require_residuals(cv: CompressedVideo, action: str):
    if cv.residuals is None:
        raise ValueError(f"cannot {action} a video whose residuals were dropped after decode")


def nearest_raster(n: int, o: int) -> np.ndarray:
    """Source index of each of o samples resampled from n by nearest neighbour."""
    return np.minimum((np.arange(o) * n) // o, n - 1)


def _sorted_offsets(search_range: int) -> list[tuple[int, int]]:
    # tie-break priority: smallest |dx|+|dy|, then smallest dy, then smallest dx
    offs = [
        (dx, dy)
        for dy in range(-search_range, search_range + 1)
        for dx in range(-search_range, search_range + 1)
    ]
    offs.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o[1], o[0]))
    return offs


def _sad_dtype(block_size: int) -> np.dtype:
    """The unsigned dtype of block SADs: it holds 765*b*b + 1, so its
    maximum, the SAD given to an excluded candidate, exceeds every SAD."""
    return np.min_scalar_type(765 * block_size * block_size + 1)


def _estimate_motion_batch(refs: np.ndarray, tgts: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """The exhaustive SAD search of the module docstring for n (reference,
    target) pairs of (H, W, 3) frames at once -> (n, Hb, Wb, 2) int16 (dx, dy)."""
    n, h, w, _ = tgts.shape
    b, r = cfg.block_size, cfg.search_range
    hb, wb = h // b, w // b
    mvs = np.zeros((n, hb, wb, 2), dtype=np.int16)
    # a static block, equal to its co-located reference block, keeps (0, 0):
    # its SAD there is 0 and (0, 0) wins every tie, so only moving blocks
    # are searched
    differs = (refs != tgts).reshape(n * hb, b, w * 3).any(axis=1)
    f, by, bx = np.nonzero(differs.reshape(n, hb, wb, 3 * b).any(axis=3))
    m = len(f)
    if r == 0 or m == 0:
        return mvs
    offsets = np.array(_sorted_offsets(r), dtype=np.int16)  # (K, 2) as (dx, dy)
    # the m moving blocks sit side by side with the block index innermost:
    # targets as (b, 3b, m), and the window of every candidate of a block,
    # r pixels around it, as (b+2r, 3(b+2r), m), cut from references padded
    # with r pixels of zeros; an offset's candidates are then b rows of 3b*m
    # contiguous bytes
    span = b + 2 * r
    tgt = np.ascontiguousarray(tgts.reshape(n, hb, b, wb, 3 * b).transpose(2, 4, 0, 1, 3)[:, :, f, by, bx])
    ref = np.zeros((n, h + 2 * r, 3 * (w + 2 * r)), dtype=np.uint8)
    ref[:, r : r + h, 3 * r : 3 * (r + w)] = refs.reshape(n, h, 3 * w)
    windows = sliding_window_view(ref, (span, 3 * span), axis=(1, 2))[:, ::b, :: 3 * b]
    win = np.ascontiguousarray(windows.transpose(3, 4, 0, 1, 2)[:, :, f, by, bx])
    absdiff = np.empty_like(tgt)
    low = np.empty_like(tgt)
    # exact accumulators chosen from b: a column of b absolute differences
    # sums to at most 255*b, a block to 765*b*b
    cols = np.empty((3 * b, m), dtype=np.min_scalar_type(255 * b))
    sad = np.empty((len(offsets), m), dtype=_sad_dtype(b))
    for k, (dx, dy) in enumerate(offsets.tolist()):
        cand = win[r + dy : r + dy + b, 3 * (r + dx) : 3 * (r + dx + b)]
        np.maximum(tgt, cand, out=absdiff)  # |t - c| = max - min without leaving uint8
        np.minimum(tgt, cand, out=low)
        np.subtract(absdiff, low, out=absdiff)
        np.add.reduce(absdiff, axis=0, dtype=cols.dtype, out=cols)
        np.add.reduce(cols, axis=0, dtype=sad.dtype, out=sad[k])
    # a candidate counts only if the whole block stays inside the frame; the
    # excluded ones read padding and get a SAD above every real one
    dx, dy = offsets[:, :1], offsets[:, 1:]
    y, x = np.arange(hb) * b, np.arange(wb) * b
    in_y = (y + dy >= 0) & (y + dy + b <= h)  # (K, Hb)
    in_x = (x + dx >= 0) & (x + dx + b <= w)  # (K, Wb)
    np.copyto(sad, np.iinfo(sad.dtype).max, where=~(in_y[:, by] & in_x[:, bx]))
    # argmin returns the first minimum, i.e. the highest-priority offset
    mvs[f, by, bx] = offsets[sad.argmin(axis=0)]
    return mvs


def motion_compensate(reference: np.ndarray, vectors: np.ndarray, block_size: int) -> np.ndarray:
    """Predict frames by copying each block from its reference position.

    reference is (..., H, W, 3) and vectors (..., H/b, W/b, 2) with the same
    leading axes, one vector grid per reference frame. Every vector must keep
    its block inside the frame. The prediction is a copy of the reference, so
    a block with vector (0, 0) is already in place; only the moving blocks
    are then gathered, as b x b tiles. The result shares no memory with the
    reference.
    """
    *_, h, w, _ = reference.shape
    b = block_size
    pred = np.array(reference, copy=True)
    rows = pred.reshape(-1, h, 3 * w)
    grids = vectors.reshape(len(rows), h // b, w // b, 2)
    f, by, bx = np.nonzero(grids.any(axis=3))
    if len(f):
        v = grids[f, by, bx].astype(np.intp)
        # every b x 3b tile of samples in the frames, addressed by its
        # top-left sample; the moving tiles are all gathered before any is
        # written back
        tiles = sliding_window_view(rows, (b, 3 * b), axis=(1, 2))
        moved = tiles[f, by * b + v[:, 1], 3 * (bx * b + v[:, 0])]
        rows.reshape(-1, h // b, b, w // b, 3 * b)[f, by, :, bx] = moved
    return pred


def encode_video(video: RawVideo, cfg: CodecConfig | None = None) -> CompressedVideo:
    """Frame t becomes an I-frame iff t % gop_size == 0; a P-frame predicts
    from frame t - 1. Residuals are lossless, so every reconstructed frame
    equals its source. A partial block grid or no frame raises the
    _check_geometry error. Motion search and prediction each run as one batch."""
    cfg = cfg or CodecConfig()
    frames = video.frames
    n, h, w, _ = frames.shape
    _check_geometry(cfg, h, w, n)
    g, b = cfg.gop_size, cfg.block_size
    iframes, mvs, residuals = _allocate(cfg, h, w, n)
    iframes[...] = frames[::g]
    pframes = np.flatnonzero(np.arange(n) % g)
    refs, tgts = frames[pframes - 1], frames[pframes]
    mvs[...] = _estimate_motion_batch(refs, tgts, cfg)
    np.subtract(tgts, motion_compensate(refs, mvs, b), out=residuals, dtype=np.int16)
    return CompressedVideo(cfg, iframes, mvs, residuals)


def decode_video(cv: CompressedVideo) -> RawVideo:
    """Rebuild every frame; raises naming the GOP, P-frame and pixel whose
    prediction plus residual leaves [0, 255].

    All GOPs are decoded together: step j predicts P-frame j of every GOP
    from the frames of step j - 1 at once, copying its static blocks with
    the frame and gathering only the moving ones. The reconstructions are
    kept and checked once at the end, and the error names the first frame
    out of range in frame order, as a frame-by-frame decode would: every
    frame before it was rebuilt from in-range frames only.
    """
    _require_residuals(cv, "decode")
    g, b = cv.config.gop_size, cv.config.block_size
    n = cv.frame_count
    frames = np.empty((n, cv.height, cv.width, 3), dtype=np.uint8)
    frames[::g] = cv.iframes
    recon = np.empty(cv.residuals.shape, dtype=np.int16)
    for j in range(1, min(g, n)):
        # frame j of GOP i is frame g*i + j and P-frame (g-1)*i + j - 1
        out = recon[j - 1 :: g - 1]
        refs = frames[j - 1 :: g][: len(out)]
        # residuals lie in [-255, 255], so the int16 sum cannot overflow
        np.add(motion_compensate(refs, cv.mvs[j - 1 :: g - 1], b), cv.residuals[j - 1 :: g - 1], out=out)
        frames[j::g] = out
    if len(recon) and (recon.min() < 0 or recon.max() > 255):
        p, y, x, c = np.argwhere((recon < 0) | (recon > 255))[0]
        gi, pi = divmod(int(p), g - 1)
        raise ValueError(
            f"GOP {gi} P-frame {pi} pixel ({y}, {x}) channel {c}: "
            f"reconstruction {recon[p, y, x, c]} outside [0, 255]"
        )
    return RawVideo(frames=frames)


def extract_modalities(cv: CompressedVideo, frames, out_size: tuple[int, int] | None = None) -> np.ndarray:
    """Pixel-resolution MV maps of the given frame indices, (n, 2, h, w) float32.

    Channel 0 is dx, channel 1 is dy; I-frame slots are all zero. When
    out_size is given the maps are nearest-neighbor resampled and the offset
    values are rescaled by the spatial scale factor. Each block's offset is
    scaled in float64 and rounded once to float32, so every value is the
    float64 map's rounded.
    """
    frames = np.asarray(frames)
    if frames.size and frames.dtype.kind not in "iu":
        raise ValueError(f"frame indices must be integers, got dtype {frames.dtype}")
    if frames.ndim != 1 or frames.size == 0 or frames.min() < 0 or frames.max() >= cv.frame_count:
        raise ValueError(f"frame indices {frames.tolist()} outside video of {cv.frame_count} frames")
    g, b = cv.config.gop_size, cv.config.block_size
    h, w = cv.height, cv.width
    oh, ow = out_size or (h, w)
    hb, wb = h // b, w // b
    grids = np.zeros((len(frames), 2, hb * wb))
    p_slots = frames % g != 0
    t = frames[p_slots]
    grids[p_slots] = cv.mvs[t - t // g - 1].reshape(-1, hb * wb, 2).transpose(0, 2, 1)
    grids[:, 0] *= ow / w
    grids[:, 1] *= oh / h
    # the flat block index under each output pixel of the nearest-neighbor raster
    by = nearest_raster(h, oh) // b
    bx = nearest_raster(w, ow) // b
    blocks = (by[:, None] * wb + bx[None, :]).reshape(-1)
    return np.take(grids.astype(np.float32), blocks, axis=2).reshape(len(frames), 2, oh, ow)


# -- CMV1 container ------------------------------------------------------------

_HEADER = struct.Struct("<4sHIIHHHI")


def _body_bytes(cfg: CodecConfig, height: int, width: int, frame_count: int) -> int:
    """A CMV1 body holds the bytes of the three arrays, only interleaved."""
    shapes = _shapes(cfg, height, width, frame_count)
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, (_, dtype) in zip(shapes, _ARRAYS))


def _gop_records(cfg: CodecConfig, height: int, width: int, frame_count: int):
    """The CMV1 body as records of its first, longest GOP: the record dtype
    (I-frame, then an (MV grid, residual) pair per P-frame) and the (record,
    pair) index of every P-frame in frame order. The last GOP may be
    shorter, so the body is a prefix of one record per GOP."""
    b = cfg.block_size
    n = min(cfg.gop_size, frame_count)
    pframe = np.dtype([("mv", "<i2", (height // b, width // b, 2)), ("res", "<i2", (height, width, 3))])
    gop = np.dtype([("i", "u1", (height, width, 3)), ("p", pframe, (n - 1,))])
    n_p = frame_count - -(-frame_count // cfg.gop_size)
    return gop, divmod(np.arange(n_p), max(n - 1, 1))


def write_cmv1(cv: CompressedVideo, path):
    """Write cv as a CMV1 file; a video without residuals raises before
    the file is opened."""
    _require_residuals(cv, "write")
    cfg = cv.config
    gop, slots = _gop_records(cfg, cv.height, cv.width, cv.frame_count)
    records = np.zeros(len(cv.iframes), dtype=gop)
    records["i"] = cv.iframes
    records["p"]["mv"][slots] = cv.mvs
    records["p"]["res"][slots] = cv.residuals
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CMV1_MAGIC,
                CMV1_VERSION,
                cv.height,
                cv.width,
                cfg.gop_size,
                cfg.block_size,
                cfg.search_range,
                cv.frame_count,
            )
        )
        fh.write(records.view(np.uint8)[: _body_bytes(cfg, cv.height, cv.width, cv.frame_count)])


def read_cmv1(path) -> CompressedVideo:
    """Read and check a CMV1 file; every ValueError names the file."""
    try:
        return _read_cmv1(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _read_cmv1(path) -> CompressedVideo:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, version, h, w, gop_size, block_size, search_range, frame_count = _HEADER.unpack(raw)
        if magic != CMV1_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != CMV1_VERSION:
            raise ValueError(f"unsupported CMV1 version {version}")
        cfg = CodecConfig(block_size=block_size, search_range=search_range, gop_size=gop_size)
        _check_geometry(cfg, h, w, frame_count)
        # bound the body by the file size before allocating any of it
        body_bytes = _body_bytes(cfg, h, w, frame_count)
        file_body_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body_bytes > file_body_bytes:
            raise ValueError(
                f"truncated body: the header ({h}x{w}, {frame_count} frames) "
                f"claims {body_bytes} bytes, the file holds {file_body_bytes} after the header"
            )
        if body_bytes < file_body_bytes:
            raise ValueError(f"{file_body_bytes - body_bytes} trailing bytes after {frame_count} frames")
        # the arrays are allocated before the body they are copied from; a
        # body freed below arrays that a caller keeps would leave a heap hole
        # per video that the next, equally large body cannot reuse (a caller
        # that drops the residuals, as load_videos does, frees a block the
        # next video's residuals take)
        iframes, mvs, residuals = _allocate(cfg, h, w, frame_count)
        body = fh.read(body_bytes)
    if len(body) < body_bytes:
        raise ValueError(f"truncated body: read {len(body)} of {body_bytes} bytes")
    gop, slots = _gop_records(cfg, h, w, frame_count)
    records = np.frombuffer(body.ljust(len(iframes) * gop.itemsize, b"\0"), dtype=gop)
    iframes[...] = records["i"]
    mvs[...] = records["p"]["mv"][slots]
    residuals[...] = records["p"]["res"][slots]
    return CompressedVideo(cfg, iframes, mvs, residuals)
