"""Procedural labeled videos with independent context and motion classes.

Context class picks the static background texture family (gradient, stripes,
checkerboard, blob palette); motion class picks the trajectory pattern of two
moving sprites (drift, orbit, zigzag, sway). Colors, speeds, phases and start
positions are per-seed jitter, so class identity never leaks through raw
color statistics. Identical SceneSpec -> byte-identical video.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path, PurePath

import numpy as np

from .codec import CodecConfig, RawVideo, encode_video, write_cmv1

CONTEXT_FAMILIES = ("gradient", "stripes", "checker", "blobs")
MOTION_FAMILIES = ("drift", "orbit", "zigzag", "sway")
# a sprite of radius up to 9 keeps its centre one pixel further from each edge
_MIN_FRAME_SIDE = 2 * (9 + 1)


@dataclass
class SceneSpec:
    context_class: int
    motion_class: int
    seed: int
    frames: int = 36
    height: int = 64
    width: int = 64


@dataclass
class LabeledVideo:
    video: RawVideo
    context_class: int
    motion_class: int


def _round_px(v: float) -> int:
    return int(np.floor(v + 0.5))


def _pick_colors(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(20, 236, size=(n, 3)).astype(np.float64)


def _render_background(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    family = CONTEXT_FAMILIES[spec.context_class]
    if family == "gradient":
        c0, c1 = _pick_colors(rng, 2)
        theta = rng.uniform(0, 2 * np.pi)
        proj = xx * np.cos(theta) + yy * np.sin(theta)
        t = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-9)
        bg = c0[None, None] + t[:, :, None] * (c1 - c0)[None, None]
    elif family == "stripes":
        c0, c1 = _pick_colors(rng, 2)
        theta = rng.choice([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
        width = rng.integers(4, 11)
        phase = rng.uniform(0, width)
        proj = xx * np.cos(theta) + yy * np.sin(theta) + phase
        band = (np.floor(proj / width) % 2).astype(int)
        bg = np.where(band[:, :, None] == 0, c0[None, None], c1[None, None])
    elif family == "checker":
        c0, c1 = _pick_colors(rng, 2)
        cell = rng.integers(6, 13)
        oy, ox = rng.integers(0, cell, size=2)
        band = (((yy + oy) // cell + (xx + ox) // cell) % 2).astype(int)
        bg = np.where(band[:, :, None] == 0, c0[None, None], c1[None, None])
    else:  # blobs; generate_video has checked the class
        palette = _pick_colors(rng, 3)
        coarse = rng.integers(0, 3, size=(max(h // 8, 1), max(w // 8, 1)))
        idx = coarse[np.minimum(yy.astype(int) // 8, coarse.shape[0] - 1),
                     np.minimum(xx.astype(int) // 8, coarse.shape[1] - 1)]
        bg = palette[idx]
    return bg


def _sprite_color(rng: np.random.Generator, bg_mean: np.ndarray) -> np.ndarray:
    # keep the sprite visible: resample until far enough from the mean background
    for _ in range(50):
        c = rng.integers(0, 256, size=3).astype(np.float64)
        if np.abs(c - bg_mean).sum() > 120:
            return c
    return 255.0 - bg_mean


class _Sprite:
    """One moving solid shape; position(t) is pure in t given drawn params."""

    def __init__(self, spec: SceneSpec, rng: np.random.Generator, bg_mean: np.ndarray):
        h, w = spec.height, spec.width
        self.radius = int(rng.integers(6, 10))
        self.shape = rng.choice(["disc", "square"])
        self.color = _sprite_color(rng, bg_mean)
        m = self.radius + 1
        self.cx0 = rng.uniform(m, w - m)
        self.cy0 = rng.uniform(m, h - m)
        self.h, self.w = h, w
        family = self.family = MOTION_FAMILIES[spec.motion_class]
        if family == "drift":
            theta = rng.uniform(0, 2 * np.pi)
            speed = rng.uniform(1.2, 2.2)
            self.vx, self.vy = speed * np.cos(theta), speed * np.sin(theta)
        elif family == "orbit":
            self.r_orbit = rng.uniform(9, 16)
            self.omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.28, 0.45)
            self.phase = rng.uniform(0, 2 * np.pi)
            self.ox = np.clip(self.cx0, self.r_orbit + m, w - self.r_orbit - m)
            self.oy = np.clip(self.cy0, self.r_orbit + m, h - self.r_orbit - m)
        elif family == "zigzag":
            self.speed = rng.uniform(1.5, 2.5)
            self.period = int(rng.integers(5, 9))
            self.vy_drift = rng.uniform(-0.5, 0.5)
        elif family == "sway":
            self.amp = rng.uniform(8, 15)
            self.omega = rng.uniform(0.35, 0.6)
            self.phase = rng.uniform(0, 2 * np.pi)
            self.vx_drift = rng.uniform(-0.5, 0.5)
            self.oy = np.clip(self.cy0, self.amp + m, h - self.amp - m)

    def _reflect(self, p: float, lo: float, hi: float) -> float:
        # fold an unbounded coordinate into [lo, hi] by mirror reflection
        span = hi - lo
        if span <= 0:
            return lo
        q = (p - lo) % (2 * span)
        return lo + (q if q <= span else 2 * span - q)

    def center_at(self, t: int) -> tuple[int, int]:
        m = self.radius + 1
        if self.family == "drift":
            cx = self._reflect(self.cx0 + self.vx * t, m, self.w - m)
            cy = self._reflect(self.cy0 + self.vy * t, m, self.h - m)
        elif self.family == "orbit":
            ang = self.phase + self.omega * t
            cx = self.ox + self.r_orbit * np.cos(ang)
            cy = self.oy + self.r_orbit * np.sin(ang)
        elif self.family == "zigzag":
            # triangle wave along x, slow drift along y
            cyc = 2 * self.period
            ph = t % cyc
            leg = ph if ph < self.period else cyc - ph
            cx = self._reflect(self.cx0 + self.speed * (leg - self.period / 2), m, self.w - m)
            cy = self._reflect(self.cy0 + self.vy_drift * t, m, self.h - m)
        else:  # sway
            cx = self._reflect(self.cx0 + self.vx_drift * t, m, self.w - m)
            cy = self.oy + self.amp * np.sin(self.phase + self.omega * t)
        return _round_px(cx), _round_px(cy)

    def paint(self, frames: np.ndarray):
        """Paint the sprite into every frame of a contiguous (T, H, W, 3)
        uint8 video through one (T, H, W) mask; its colour truncates into
        uint8 as the float background does."""
        t, h, w, _ = frames.shape
        cx, cy = np.array([self.center_at(i) for i in range(t)]).reshape(t, 2).T
        dx2 = (np.arange(w) - cx[:, None]) ** 2  # (T, W)
        dy2 = (np.arange(h) - cy[:, None]) ** 2  # (T, H)
        rr = self.radius**2
        if self.shape == "disc":
            mask = dx2[:, None, :] <= rr - dy2[:, :, None]
        else:
            mask = (dx2 <= rr)[:, None, :] & (dy2 <= rr)[:, :, None]
        frames.reshape(-1, 3)[np.flatnonzero(mask)] = np.clip(self.color, 0, 255).astype(np.uint8)


def pad_frames_to_block(frames: np.ndarray, block_size: int) -> np.ndarray:
    """Edge-replicate pad H and W up to multiples of block_size, as encode_video needs."""
    t, h, w, _ = frames.shape
    ph = (-h) % block_size
    pw = (-w) % block_size
    if ph == 0 and pw == 0:
        return frames
    return np.pad(frames, ((0, 0), (0, ph), (0, pw), (0, 0)), mode="edge")


def generate_video(spec: SceneSpec, codec_block_size: int = 8) -> LabeledVideo:
    """Render one labeled video; pads to the codec block grid if needed.

    The float64 background is truncated into uint8 once and copied into all
    T frames; each sprite, the second over the first, is then painted into
    the whole video at once. A pixel ends up as the float background's or
    the last sprite's colour clipped to [0, 255] and truncated, the same
    bytes as compositing each frame in float64 and truncating it.
    """
    if not 0 <= spec.motion_class < len(MOTION_FAMILIES):
        raise ValueError(f"motion_class {spec.motion_class} out of range: 0..{len(MOTION_FAMILIES) - 1}")
    if not 0 <= spec.context_class < len(CONTEXT_FAMILIES):
        raise ValueError(f"context_class {spec.context_class} out of range: 0..{len(CONTEXT_FAMILIES) - 1}")
    for name in ("height", "width"):
        if getattr(spec, name) < _MIN_FRAME_SIDE:
            raise ValueError(f"{name} {getattr(spec, name)} is below the minimum {_MIN_FRAME_SIDE} that fits a sprite")
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    bg = _render_background(spec, rng)
    sprites = [_Sprite(spec, rng, bg.mean(axis=(0, 1))) for _ in range(2)]
    frames = np.empty((spec.frames, spec.height, spec.width, 3), dtype=np.uint8)
    frames[...] = np.clip(bg, 0, 255).astype(np.uint8)
    for s in sprites:
        s.paint(frames)
    return LabeledVideo(
        video=RawVideo(frames=pad_frames_to_block(frames, codec_block_size)),
        context_class=spec.context_class,
        motion_class=spec.motion_class,
    )


def video_seed(dataset_seed: int, index: int) -> int:
    """Stable per-video seed derived from the dataset seed."""
    ss = np.random.SeedSequence(entropy=(int(dataset_seed), int(index)))
    return int(ss.generate_state(1)[0])


def generate_dataset(
    out_dir,
    n_videos: int = 48,
    k_context: int = 4,
    k_motion: int = 4,
    frames: int = 36,
    resolution: tuple[int, int] = (64, 64),
    seed: int = 0,
    split_fraction: float = 2 / 3,
    codec: CodecConfig | None = None,
    threads: int = 1,
) -> Path:
    """Write a class-balanced CMV1 dataset plus a JSONL manifest.

    Videos cycle through the (context, motion) grid, so every pair appears
    n // (Kc*Km) or one more times. Within each pair the first
    floor(count * split_fraction + 0.5) videos (by index) go to train, the
    rest to test. k_context and k_motion must lie in 1..4 (one per texture or
    trajectory family), split_fraction in [0, 1] and n_videos be >= 0.
    """
    for name, k, families in (("k_context", k_context, CONTEXT_FAMILIES), ("k_motion", k_motion, MOTION_FAMILIES)):
        if not 1 <= k <= len(families):
            raise ValueError(f"{name} {k} out of range: 1..{len(families)}, one class per family")
    if not 0 <= split_fraction <= 1:
        raise ValueError(f"split_fraction {split_fraction} out of range [0, 1]")
    if n_videos < 0:
        raise ValueError(f"n_videos {n_videos} is negative")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codec = codec or CodecConfig()
    if n_videos < k_context * k_motion:
        warnings.warn(
            f"n_videos={n_videos} below one per (context, motion) pair ({k_context * k_motion})"
        )

    entries = []
    for i in range(n_videos):
        pair = i % (k_context * k_motion)
        entries.append(
            {
                "index": i,
                "context_class": pair // k_motion,
                "motion_class": pair % k_motion,
                "seed": video_seed(seed, i),
            }
        )

    # stratified split per (context, motion) pair, rounding half up
    by_pair: dict[tuple[int, int], list[dict]] = {}
    for e in entries:
        by_pair.setdefault((e["context_class"], e["motion_class"]), []).append(e)
    for members in by_pair.values():
        n_train = int(np.floor(len(members) * split_fraction + 0.5))
        for j, e in enumerate(members):
            e["split"] = "train" if j < n_train else "test"

    def build_one(e):
        spec = SceneSpec(
            context_class=e["context_class"],
            motion_class=e["motion_class"],
            seed=e["seed"],
            frames=frames,
            height=resolution[0],
            width=resolution[1],
        )
        lv = generate_video(spec, codec_block_size=codec.block_size)
        path = out_dir / f"video_{e['index']:05d}.cmv1"
        write_cmv1(encode_video(lv.video, codec), path)
        return {
            "path": path.name,
            "context_class": e["context_class"],
            "motion_class": e["motion_class"],
            "split": e["split"],
            "seed": e["seed"],
            "frames": int(lv.video.n_frames),
            "H": int(lv.video.height),
            "W": int(lv.video.width),
        }

    if threads > 1 and entries:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            records = list(ex.map(build_one, entries))
    else:
        records = [build_one(e) for e in entries]

    manifest = out_dir / "manifest.jsonl"
    with open(manifest, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return manifest


_MANIFEST_KEYS = ("path", "context_class", "motion_class", "split")
SPLITS = ("train", "test")


def load_manifest(dataset_dir) -> list[dict]:
    """The records of `dataset_dir/manifest.jsonl`, one JSON object per
    non-blank line.

    A line that is not UTF-8 JSON or not an object raises a ValueError naming
    the manifest and the line. A record missing one of path, context_class,
    motion_class and split, with a class id that is not a non-negative int, a
    split other than "train" or "test", or with a path that is not a string
    naming a file of the dataset (a null byte, an absolute path or one
    through "..", a directory, nothing) raises one naming the manifest, the
    record's index and the path.
    """
    manifest = Path(dataset_dir) / "manifest.jsonl"
    records = []
    with open(manifest, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode())
            except UnicodeDecodeError as e:
                raise ValueError(f"{manifest} line {lineno}: not UTF-8 ({e.reason} at byte {e.start})") from None
            except json.JSONDecodeError as e:
                raise ValueError(f"{manifest} line {lineno}: not JSON ({e.msg} at column {e.colno})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{manifest} line {lineno}: {type(rec).__name__} {rec!r} is not a JSON object")
            where = f"{manifest} record {len(records)}"
            missing = [k for k in _MANIFEST_KEYS if k not in rec]
            if missing:
                raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
            if not isinstance(rec["path"], str):
                raise ValueError(f"{where}: path {rec['path']!r} is not a string")
            if "\0" in rec["path"]:
                raise ValueError(f"{where}: path {rec['path']!r} holds a null byte")
            # a path joined to the dataset directory must stay under it
            relative = PurePath(rec["path"])
            if relative.anchor or ".." in relative.parts:
                raise ValueError(f"{where}: path {rec['path']!r} points outside the dataset directory")
            path = manifest.parent / rec["path"]
            for key in ("context_class", "motion_class"):
                if type(rec[key]) is not int or rec[key] < 0:
                    raise ValueError(f"{where} ({path}): {key} {rec[key]!r} is not a non-negative int")
            if rec["split"] not in SPLITS:
                raise ValueError(f"{where} ({path}): split {rec['split']!r} is not one of {SPLITS}")
            if not path.is_file():
                raise ValueError(f"{where}: CMV1 file {path} {'is not a file' if path.exists() else 'does not exist'}")
            records.append(rec)
    return records


def manifest_digest(dataset_dir) -> str:
    """Content hash over the manifest and every referenced CMV1 file."""
    dataset_dir = Path(dataset_dir)
    h = hashlib.sha256()
    h.update((dataset_dir / "manifest.jsonl").read_bytes())
    for rec in load_manifest(dataset_dir):
        h.update((dataset_dir / rec["path"]).read_bytes())
    return h.hexdigest()
