"""Mini block-based video codec: I-frames plus motion-compensated P-frames.

Frames are (H, W, 3) uint8. Each group of pictures stores one full I-frame
followed by P-frames carrying a per-block motion-vector grid and a lossless
int16 residual, so decode(encode(v)) is bit-exact.

Motion search is exhaustive: every block tries every offset (dx, dy) with
|dx|, |dy| <= search_range and keeps the one with the smallest sum of
absolute differences (SAD) over all 3 channels. A candidate is excluded
when its block would leave the frame (y+dy < 0, y+dy+b > H, and the same
for x), so a range wider than the frame is fine. Ties go to the smallest
|dx|+|dy|, then the smallest dy, then the smallest dx. The arithmetic is
exact: absolute differences stay in uint8, row sums in an unsigned type
wide enough for 255*b, and block sums are floats of integers below 2**24
(float32) or 2**53 (float64), where addition never rounds. Encodes are
therefore the same on every platform.

Container format CMV1 (all integers little-endian):
  magic 'CMV1', version u16, H u32, W u32, gop_size u16, block_size u16,
  search_range u16, frame_count u32; then per GOP the raw I-frame bytes,
  and per P-frame the MV grid (dx, dy as i16, row-major) and the residual
  as i16 samples.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

CMV1_MAGIC = b"CMV1"
CMV1_VERSION = 1


@dataclass
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


@dataclass
class MotionVectorMap:
    vectors: np.ndarray  # (Hb, Wb, 2) int16, [..., 0] = dx, [..., 1] = dy
    block_size: int


@dataclass
class Gop:
    i_frame: np.ndarray  # (H, W, 3) uint8
    p_frames: list  # of (MotionVectorMap, residual int16 (H, W, 3))


@dataclass
class CompressedVideo:
    config: CodecConfig
    height: int
    width: int
    frame_count: int
    gops: list = field(default_factory=list)

    def iframe_indices(self) -> list[int]:
        return [g * self.config.gop_size for g in range(len(self.gops))]


def pad_frames_to_block(frames: np.ndarray, block_size: int) -> np.ndarray:
    """Edge-replicate pad H and W up to multiples of block_size."""
    t, h, w, _ = frames.shape
    ph = (-h) % block_size
    pw = (-w) % block_size
    if ph == 0 and pw == 0:
        return frames
    return np.pad(frames, ((0, 0), (0, ph), (0, pw), (0, 0)), mode="edge")


def _sorted_offsets(search_range: int) -> list[tuple[int, int]]:
    # tie-break priority: smallest |dx|+|dy|, then smallest dy, then smallest dx
    offs = [
        (dx, dy)
        for dy in range(-search_range, search_range + 1)
        for dx in range(-search_range, search_range + 1)
    ]
    offs.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o[1], o[0]))
    return offs


def _estimate_motion_batch(refs: np.ndarray, tgts: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Exhaustive SAD search for n (reference, target) pairs at once -> (n, Hb, Wb, 2)."""
    n, h, w, _ = tgts.shape
    b = cfg.block_size
    hb, wb = h // b, w // b
    r = cfg.search_range
    if r == 0:
        return np.zeros((n, hb, wb, 2), dtype=np.int16)
    offsets = np.array(_sorted_offsets(r), dtype=np.int16)  # (K, 2) as (dx, dy)
    # the n frames sit side by side, so pixel row y of all of them is one row
    # of n*w*3 bytes and a block is b rows of 3b contiguous bytes; the
    # references get r pixels of zeros around that strip, so every offset's
    # candidate strip is an in-bounds view
    row = n * w * 3
    tgt = np.ascontiguousarray(tgts.transpose(1, 0, 2, 3)).reshape(h, row)
    ref = np.zeros((h + 2 * r, row + 6 * r), dtype=np.uint8)
    ref[r : r + h, 3 * r : 3 * r + row] = refs.transpose(1, 0, 2, 3).reshape(h, row)
    absdiff = np.empty_like(tgt)
    low = np.empty_like(tgt)
    # exact accumulators chosen from b: a sum of b rows is at most 255*b, and
    # float sums of integers stay exact while the block SAD 765*b*b < 2**24
    # (float32) or < 2**53 (float64)
    rows = np.empty((hb, row), dtype=np.min_scalar_type(255 * b))
    sum_dtype = np.float32 if 765 * b * b < 2**24 else np.float64
    rows_f = np.empty((hb * n, w * 3), dtype=sum_dtype)
    block_of_byte = (np.arange(w * 3)[:, None] // (3 * b) == np.arange(wb)).astype(sum_dtype)
    sad = np.empty((len(offsets), hb, n, wb), dtype=sum_dtype)
    for k, (dx, dy) in enumerate(offsets.tolist()):
        cand = ref[r + dy : r + dy + h, 3 * (r + dx) : 3 * (r + dx) + row]
        np.maximum(tgt, cand, out=absdiff)  # |t - c| = max - min without leaving uint8
        np.minimum(tgt, cand, out=low)
        np.subtract(absdiff, low, out=absdiff)
        np.add.reduce(absdiff.reshape(hb, b, row), axis=1, dtype=rows.dtype, out=rows)
        rows_f[...] = rows.reshape(hb * n, w * 3)
        np.matmul(rows_f, block_of_byte, out=sad[k].reshape(hb * n, wb))
    # a candidate counts only if the whole block stays inside its own frame;
    # the excluded ones read padding or a neighbouring frame
    dx, dy = offsets[:, :1], offsets[:, 1:]
    y, x = np.arange(hb) * b, np.arange(wb) * b
    in_y = (y + dy >= 0) & (y + dy + b <= h)  # (K, Hb)
    in_x = (x + dx >= 0) & (x + dx + b <= w)  # (K, Wb)
    np.copyto(sad, np.inf, where=~(in_y[:, :, None, None] & in_x[:, None, None, :]))
    # argmin returns the first minimum, i.e. the highest-priority offset
    best = offsets[sad.argmin(axis=0)]  # (Hb, n, Wb, 2)
    return np.ascontiguousarray(best.transpose(1, 0, 2, 3))


def estimate_motion(reference: np.ndarray, target: np.ndarray, cfg: CodecConfig) -> MotionVectorMap:
    """Exhaustive-search block matching minimizing SAD over all 3 channels.

    The vector (dx, dy) of each target block points to its best match in the
    reference: ref[y+dy : y+dy+b, x+dx : x+dx+b], over every offset with
    |dx|, |dy| <= search_range. Candidates that would read outside the
    reference are excluded from that block's window; (0, 0) never is. Among
    equal SADs the smallest |dx|+|dy| wins, then the smallest dy, then the
    smallest dx. Every sum is exact, so the result is the same on every
    platform.
    """
    if reference.shape != target.shape:
        raise ValueError(f"frame shape mismatch: reference {reference.shape} vs target {target.shape}")
    h, w, _ = target.shape
    b = cfg.block_size
    if h % b or w % b:
        raise ValueError(f"frame dims ({h}, {w}) not divisible by block_size {b}")
    vectors = _estimate_motion_batch(reference[None], target[None], cfg)[0]
    return MotionVectorMap(vectors=vectors, block_size=b)


def motion_compensate(reference: np.ndarray, mv: MotionVectorMap) -> np.ndarray:
    """Predict a frame by copying each block from its reference position."""
    h, w, _ = reference.shape
    b = mv.block_size
    dx = np.repeat(np.repeat(mv.vectors[:, :, 0], b, axis=0), b, axis=1).astype(np.int64)
    dy = np.repeat(np.repeat(mv.vectors[:, :, 1], b, axis=0), b, axis=1).astype(np.int64)
    rows = np.arange(h)[:, None] + dy
    cols = np.arange(w)[None, :] + dx
    return reference[rows, cols]


def encode_video(video: RawVideo, cfg: CodecConfig | None = None) -> CompressedVideo:
    """Frame t becomes an I-frame iff t % gop_size == 0; P-frames reference
    the immediately preceding reconstructed frame."""
    cfg = cfg or CodecConfig()
    if video.n_frames == 0:
        raise ValueError("cannot encode an empty video")
    frames = pad_frames_to_block(video.frames, cfg.block_size)
    cv = CompressedVideo(
        config=cfg, height=frames.shape[1], width=frames.shape[2], frame_count=frames.shape[0]
    )
    n = frames.shape[0]
    for start in range(0, n, cfg.gop_size):
        end = min(start + cfg.gop_size, n)
        gop = Gop(i_frame=frames[start].copy(), p_frames=[])
        # residuals are lossless, so every reconstructed frame equals its
        # source; the whole GOP's motion search can run as one batch
        if end - start > 1:
            vectors = _estimate_motion_batch(frames[start : end - 1], frames[start + 1 : end], cfg)
            recon = frames[start]
            for i, t in enumerate(range(start + 1, end)):
                mv = MotionVectorMap(vectors=vectors[i], block_size=cfg.block_size)
                pred = motion_compensate(recon, mv)
                residual = frames[t].astype(np.int16) - pred.astype(np.int16)
                gop.p_frames.append((mv, residual))
                recon = (pred.astype(np.int32) + residual).astype(np.uint8)
        cv.gops.append(gop)
    return cv


def _check_header(cv: CompressedVideo):
    """The geometry a CMV1 body is laid out by: a whole block grid, one frame or more."""
    b = cv.config.block_size
    for name, size in (("height", cv.height), ("width", cv.width)):
        if size < 1 or size % b:
            raise ValueError(f"{name} {size} is not a positive multiple of block_size {b}")
    if cv.frame_count < 1:
        raise ValueError(f"frame_count {cv.frame_count}: a video needs at least one frame")


def validate_compressed(cv: CompressedVideo):
    """Structural checks; raises naming the offending field, or GOP, P-frame and block."""
    _check_header(cv)
    g = cv.config.gop_size
    expected_gops = (cv.frame_count + g - 1) // g
    if len(cv.gops) != expected_gops:
        raise ValueError(f"expected {expected_gops} GOPs for {cv.frame_count} frames, found {len(cv.gops)}")
    remaining = cv.frame_count
    b = cv.config.block_size
    hb, wb = cv.height // b, cv.width // b
    grids = []
    for gi, gop in enumerate(cv.gops):
        expect_p = min(remaining, g) - 1
        if len(gop.p_frames) != expect_p:
            raise ValueError(f"GOP {gi}: expected {expect_p} P-frames, found {len(gop.p_frames)}")
        for pi, (mv, residual) in enumerate(gop.p_frames):
            if mv.vectors.shape != (hb, wb, 2):
                raise ValueError(f"GOP {gi} P-frame {pi}: MV grid shape {mv.vectors.shape}, expected {(hb, wb, 2)}")
            if residual.shape != (cv.height, cv.width, 3):
                raise ValueError(f"GOP {gi} P-frame {pi}: residual shape {residual.shape}")
            # a uint8 pixel minus a uint8 prediction lies in [-255, 255]
            if residual.min() < -255 or residual.max() > 255:
                y, x, c = np.argwhere((residual < -255) | (residual > 255))[0]
                raise ValueError(
                    f"GOP {gi} P-frame {pi} pixel ({y}, {x}) channel {c}: "
                    f"residual {residual[y, x, c]} outside [-255, 255]"
                )
            grids.append(mv.vectors)
        remaining -= expect_p + 1
    if not grids:
        return
    vectors = np.concatenate(grids).reshape(-1, hb, wb, 2)
    # per block, the (dx, dy) bounds of the search window cut to the frame
    r = cv.config.search_range
    x, y = np.arange(wb) * b, np.arange(hb)[:, None] * b
    low = np.empty((hb, wb, 2), dtype=np.int64)
    high = np.empty_like(low)
    low[..., 0], low[..., 1] = np.maximum(-r, -x), np.maximum(-r, -y)
    high[..., 0], high[..., 1] = np.minimum(r, cv.width - b - x), np.minimum(r, cv.height - b - y)
    bad = (vectors < low) | (vectors > high)
    if bad.any():
        p, by, bx, _ = np.argwhere(bad)[0]
        gi, pi = divmod(int(p), g - 1)  # every GOP but the last has g - 1 P-frames
        dx, dy = (int(v) for v in vectors[p, by, bx])
        if max(abs(dx), abs(dy)) > r:
            what = f"exceeds search_range {r}"
        else:
            what = f"moves the block outside the {cv.height}x{cv.width} frame"
        raise ValueError(f"GOP {gi} P-frame {pi} block ({by}, {bx}): motion vector ({dx}, {dy}) {what}")


def decode_video(cv: CompressedVideo) -> RawVideo:
    validate_compressed(cv)
    frames = np.empty((cv.frame_count, cv.height, cv.width, 3), dtype=np.uint8)
    t = 0
    for gi, gop in enumerate(cv.gops):
        recon = gop.i_frame
        frames[t] = recon
        t += 1
        for pi, (mv, residual) in enumerate(gop.p_frames):
            pred = motion_compensate(recon, mv)
            # validated residuals lie in [-255, 255], so int16 cannot overflow
            recon = pred.astype(np.int16) + residual
            if recon.min() < 0 or recon.max() > 255:
                y, x, c = np.argwhere((recon < 0) | (recon > 255))[0]
                raise ValueError(
                    f"GOP {gi} P-frame {pi} pixel ({y}, {x}) channel {c}: "
                    f"reconstruction {recon[y, x, c]} outside [0, 255]"
                )
            recon = recon.astype(np.uint8)
            frames[t] = recon
            t += 1
    return RawVideo(frames=frames)


def mv_map_at(cv: CompressedVideo, t: int) -> np.ndarray | None:
    """Pixel-offset grid of frame t, or None when t is an I-frame."""
    g = cv.config.gop_size
    if t % g == 0:
        return None
    return cv.gops[t // g].p_frames[t % g - 1][0].vectors


def extract_modalities(cv: CompressedVideo, frames, out_size: tuple[int, int] | None = None) -> np.ndarray:
    """Pixel-resolution MV maps of the given frame indices, (n, 2, h, w) float64.

    Channel 0 is dx, channel 1 is dy; I-frame slots are all zero. When
    out_size is given the maps are nearest-neighbor resampled and the offset
    values are rescaled by the spatial scale factor.
    """
    frames = np.asarray(frames)
    if frames.ndim != 1 or frames.size == 0 or frames.min() < 0 or frames.max() >= cv.frame_count:
        raise ValueError(f"frame indices {frames.tolist()} outside video of {cv.frame_count} frames")
    b = cv.config.block_size
    h, w = cv.height, cv.width
    oh, ow = out_size or (h, w)
    grids = [mv_map_at(cv, int(t)) for t in frames]
    grids = np.stack([np.zeros((h // b, w // b, 2), np.int16) if g is None else g for g in grids])
    # the block under each output pixel of the nearest-neighbor raster
    by = np.minimum((np.arange(oh) * h) // oh, h - 1) // b
    bx = np.minimum((np.arange(ow) * w) // ow, w - 1) // b
    maps = grids[:, by[:, None], bx[None, :]].transpose(0, 3, 1, 2).astype(np.float64)
    maps[:, 0] *= ow / w
    maps[:, 1] *= oh / h
    return maps


# -- CMV1 container ------------------------------------------------------------

_HEADER = struct.Struct("<4sHIIHHHI")


def write_cmv1(cv: CompressedVideo, path):
    validate_compressed(cv)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CMV1_MAGIC,
                CMV1_VERSION,
                cv.height,
                cv.width,
                cv.config.gop_size,
                cv.config.block_size,
                cv.config.search_range,
                cv.frame_count,
            )
        )
        for gop in cv.gops:
            fh.write(gop.i_frame.astype("<u1").tobytes())
            for mv, residual in gop.p_frames:
                fh.write(mv.vectors.astype("<i2").tobytes())
                fh.write(residual.astype("<i2").tobytes())


def read_cmv1(path) -> CompressedVideo:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, h, w, gop_size, block_size, search_range, frame_count = _HEADER.unpack(raw)
        if magic != CMV1_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CMV1_VERSION:
            raise ValueError(f"{path}: unsupported CMV1 version {version}")
        cfg = CodecConfig(block_size=block_size, search_range=search_range, gop_size=gop_size)
        cv = CompressedVideo(config=cfg, height=h, width=w, frame_count=frame_count)
        _check_header(cv)
        hb, wb = h // block_size, w // block_size
        iframe_bytes = h * w * 3
        mv_bytes = hb * wb * 2 * 2
        residual_bytes = h * w * 3 * 2
        # bound every read below by the file size before allocating any of it
        n_gops = -(-frame_count // gop_size)
        body_bytes = n_gops * iframe_bytes + (frame_count - n_gops) * (mv_bytes + residual_bytes)
        file_body_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body_bytes > file_body_bytes:
            raise ValueError(
                f"{path}: truncated body: the header ({h}x{w}, {frame_count} frames) "
                f"claims {body_bytes} bytes, the file holds {file_body_bytes} after the header"
            )
        remaining = frame_count
        gi = 0
        while remaining > 0:
            data = fh.read(iframe_bytes)
            if len(data) < iframe_bytes:
                raise ValueError(f"{path}: GOP {gi}: truncated I-frame")
            iframe = np.frombuffer(data, dtype="<u1").reshape(h, w, 3).copy()
            gop = Gop(i_frame=iframe, p_frames=[])
            n_p = min(remaining, gop_size) - 1
            for pi in range(n_p):
                mv_raw = fh.read(mv_bytes)
                res_raw = fh.read(residual_bytes)
                if len(mv_raw) < mv_bytes or len(res_raw) < residual_bytes:
                    raise ValueError(f"{path}: GOP {gi} P-frame {pi}: truncated")
                vectors = np.frombuffer(mv_raw, dtype="<i2").reshape(hb, wb, 2).copy()
                residual = np.frombuffer(res_raw, dtype="<i2").reshape(h, w, 3).copy()
                gop.p_frames.append((MotionVectorMap(vectors=vectors, block_size=block_size), residual))
            cv.gops.append(gop)
            remaining -= n_p + 1
            gi += 1
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {frame_count} frames")
    validate_compressed(cv)
    return cv
