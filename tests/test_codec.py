"""Codec correctness: SAD search, GOP layout, lossless roundtrip, container."""

import dataclasses
import re

import numpy as np
import pytest

from cmssl import codec
from cmssl.codec import (
    _HEADER,
    CodecConfig,
    CompressedVideo,
    RawVideo,
    decode_video,
    encode_video,
    extract_modalities,
    motion_compensate,
    read_cmv1,
    write_cmv1,
)
from cmssl.synthgen import SceneSpec, generate_video

from conftest import grid_at, repeat_then_subsample


def empty_arrays(n_iframes, h, w, b=8):
    """iframes, mvs and residuals of a video with no P-frames."""
    return (
        np.zeros((n_iframes, h, w, 3), dtype=np.uint8),
        np.zeros((0, h // b, w // b, 2), dtype=np.int16),
        np.zeros((0, h, w, 3), dtype=np.int16),
    )


def estimate_motion(reference, target, cfg):
    """The SAD search of one (reference, target) pair -> (Hb, Wb, 2)."""
    return codec._estimate_motion_batch(reference[None], target[None], cfg)[0]


def random_frame(rng, h=32, w=32):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def translate_frame(ref, dx, dy):
    """target(x, y) = ref(x + dx, y + dy), edges replicated."""
    h, w, _ = ref.shape
    ys = np.clip(np.arange(h) + dy, 0, h - 1)
    xs = np.clip(np.arange(w) + dx, 0, w - 1)
    return ref[ys[:, None], xs[None, :]]


def random_video(rng, t=13, h=32, w=32):
    return RawVideo(frames=rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8))


def translating_video(rng, t=13, h=32, w=32, step=(2, 1)):
    base = random_frame(rng, h, w)
    frames = [translate_frame(base, i * step[0], i * step[1]) for i in range(t)]
    return RawVideo(frames=np.stack(frames))


def quantised_frame(rng, h, w, levels):
    """Random frame with `levels` grey levels; few levels force SAD ties."""
    grey = rng.integers(0, levels, size=(h, w, 1)) * (255 // (levels - 1))
    return np.repeat(grey, 3, axis=2).astype(np.uint8)


def brute_force_sad_search(ref, tgt, cfg):
    """Independent per-block double-loop SAD search.

    Returns each block's minimum SAD over the in-frame candidates, and the
    vector chosen among the candidates with that SAD: smallest |dx|+|dy|,
    then smallest dy, then smallest dx.
    """
    h, w, _ = tgt.shape
    b = cfg.block_size
    r = cfg.search_range
    refi = ref.astype(np.int64)
    tgti = tgt.astype(np.int64)
    mins = np.zeros((h // b, w // b), dtype=np.int64)
    vectors = np.zeros((h // b, w // b, 2), dtype=np.int16)
    for by in range(h // b):
        for bx in range(w // b):
            y0, x0 = by * b, bx * b
            block = tgti[y0 : y0 + b, x0 : x0 + b]
            sads = {}
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if not (0 <= y0 + dy and y0 + b + dy <= h and 0 <= x0 + dx and x0 + b + dx <= w):
                        continue
                    cand = refi[y0 + dy : y0 + b + dy, x0 + dx : x0 + b + dx]
                    sads[dx, dy] = np.abs(block - cand).sum()
            mins[by, bx] = min(sads.values())
            ties = [o for o, sad in sads.items() if sad == mins[by, bx]]
            vectors[by, bx] = min(ties, key=lambda o: (abs(o[0]) + abs(o[1]), o[1], o[0]))
    return mins, vectors


def block_sad(ref, tgt, by, bx, dx, dy, b):
    y0, x0 = by * b, bx * b
    block = tgt[y0 : y0 + b, x0 : x0 + b].astype(np.int64)
    cand = ref[y0 + dy : y0 + b + dy, x0 + dx : x0 + b + dx].astype(np.int64)
    return np.abs(block - cand).sum()


class TestMotionEstimation:
    def test_identical_frames_give_zero_vectors(self):
        rng = np.random.default_rng(0)
        f = random_frame(rng)
        mv = estimate_motion(f, f, CodecConfig())
        assert np.all(mv == 0)

    def test_search_range_zero_forces_zero_vectors(self):
        rng = np.random.default_rng(1)
        mv = estimate_motion(random_frame(rng), random_frame(rng), CodecConfig(search_range=0))
        assert np.all(mv == 0)

    @pytest.mark.parametrize("r", [1, 3, 7])
    def test_tie_break_order_computed_once_read_only(self, r):
        # the priority brute_force_sad_search breaks ties by, for every
        # candidate of the range, shared by every search of that range
        offsets = [(dx, dy) for dy in range(-r, r + 1) for dx in range(-r, r + 1)]
        want = sorted(offsets, key=lambda o: (abs(o[0]) + abs(o[1]), o[1], o[0]))
        got = codec._sorted_offsets(r)
        assert got.dtype == np.int16 and got.tolist() == [list(o) for o in want]
        assert codec._sorted_offsets(r) is got and not got.flags.writeable

    def test_translation_recovered_on_interior_blocks(self):
        rng = np.random.default_rng(2)
        cfg = CodecConfig()
        ref = random_frame(rng, 32, 32)
        for dx, dy in [(2, -1), (-3, 3), (7, 7), (0, -7), (-7, 0)]:
            tgt = translate_frame(ref, dx, dy)
            mv = estimate_motion(ref, tgt, cfg)
            # skip the border ring: edge replication makes those blocks ambiguous
            interior = mv[1:-1, 1:-1]
            assert np.all(interior[:, :, 0] == dx), f"shift ({dx},{dy})"
            assert np.all(interior[:, :, 1] == dy), f"shift ({dx},{dy})"

    def test_sad_optimality_vs_brute_force(self):
        cfg = CodecConfig(block_size=8, search_range=3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ref, tgt = random_frame(rng, 16, 16), random_frame(rng, 16, 16)
            mv = estimate_motion(ref, tgt, cfg)
            mins, _ = brute_force_sad_search(ref, tgt, cfg)
            for by in range(2):
                for bx in range(2):
                    dx, dy = mv[by, bx]
                    assert block_sad(ref, tgt, by, bx, dx, dy, 8) == mins[by, bx]

    @pytest.mark.parametrize("block_size", range(1, 12))
    def test_vectors_match_brute_force(self, block_size):
        # 2 x 3 blocks, so every block touches an edge; the last range is
        # wider than the frame
        h, w = 2 * block_size, 3 * block_size
        rng = np.random.default_rng(block_size)
        for r in (0, 1, 3, w + 1):
            cfg = CodecConfig(block_size=block_size, search_range=r)
            for levels in (256, 3, 2):
                ref = quantised_frame(rng, h, w, levels)
                tgt = np.roll(ref, (1, -1), axis=(0, 1))
                tgt[rng.random((h, w)) < 0.1] = quantised_frame(rng, 1, 1, levels)
                mv = estimate_motion(ref, tgt, cfg)
                _, expected = brute_force_sad_search(ref, tgt, cfg)
                np.testing.assert_array_equal(mv, expected, err_msg=f"r={r}, levels={levels}")

    def test_wide_block_accumulators_match_brute_force(self):
        # a 258-pixel block needs 32-bit row sums (258 * 255 > 2**16) and
        # float64 block sums (765 * 258**2 > 2**24)
        rng = np.random.default_rng(24)
        b = 258
        noise = random_frame(rng, 2 * b, 2 * b)
        white = np.full((b, 2 * b, 3), 255, dtype=np.uint8)
        # 16-bit row sums would wrap on the three black columns and pick dx=0
        wraps = np.zeros_like(white)
        wraps[:, 3 : b + 3] = 254
        # float32 would round the SADs of dx=0 and dx=1, one apart, together
        rounds = np.zeros_like(white)
        rounds[0, b, 0] = 1
        cfg = CodecConfig(block_size=b, search_range=3)
        for ref, tgt in ((noise, np.roll(noise, (2, -1), axis=(0, 1))), (wraps, white), (rounds, white)):
            mv = estimate_motion(ref, tgt, cfg)
            _, expected = brute_force_sad_search(ref, tgt, cfg)
            np.testing.assert_array_equal(mv, expected)

    def test_batched_gop_search_matches_brute_force(self):
        # encode_video searches all P-frames of a video at once; no frame's
        # blocks may be matched against another frame's pixels
        rng = np.random.default_rng(25)
        cfg = CodecConfig(block_size=4, search_range=5, gop_size=6)
        frames = np.stack([quantised_frame(rng, 12, 16, 2) for _ in range(9)])
        cv = encode_video(RawVideo(frames=frames), cfg)
        for t in range(1, 9):
            if t % cfg.gop_size:
                _, expected = brute_force_sad_search(frames[t - 1], frames[t], cfg)
                np.testing.assert_array_equal(grid_at(cv, t), expected, err_msg=f"frame {t}")

    def test_vectors_within_search_range(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mv = estimate_motion(random_frame(rng), random_frame(rng), CodecConfig())
            assert np.abs(mv).max() <= 7

    def test_compensation_inverts_translation(self):
        rng = np.random.default_rng(3)
        ref = random_frame(rng)
        tgt = translate_frame(ref, 3, -2)
        mv = estimate_motion(ref, tgt, CodecConfig())
        pred = motion_compensate(ref, mv, 8)
        inner = slice(8, 24)
        np.testing.assert_array_equal(pred[inner, inner], tgt[inner, inner])

    def test_compensation_matches_per_block_copy(self):
        rng = np.random.default_rng(34)
        for b, hb, wb in ((8, 4, 4), (3, 5, 2), (1, 6, 7)):
            ref = random_frame(rng, hb * b, wb * b)
            vectors = in_frame_vectors(rng, hb, wb, b)
            np.testing.assert_array_equal(motion_compensate(ref, vectors, b), per_block_copy(ref, vectors, b))


def in_frame_vectors(rng, hb, wb, b):
    """A random (dx, dy) per block that keeps the block inside the frame."""
    y, x = np.arange(hb)[:, None] * b, np.arange(wb) * b
    dy = rng.integers(-y, hb * b - b - y + 1, size=(hb, wb))
    dx = rng.integers(-x, wb * b - b - x + 1, size=(hb, wb))
    return np.stack([dx, dy], axis=-1).astype(np.int16)


def per_block_copy(ref, vectors, b):
    """Motion compensation of one frame, one block at a time."""
    want = np.empty_like(ref)
    for by in range(vectors.shape[0]):
        for bx in range(vectors.shape[1]):
            y0, x0, (vx, vy) = by * b, bx * b, vectors[by, bx]
            want[y0 : y0 + b, x0 : x0 + b] = ref[y0 + vy : y0 + vy + b, x0 + vx : x0 + vx + b]
    return want


class TestMotionCompensateStack:
    """motion_compensate on a stack of frames, one vector grid per frame."""

    @pytest.mark.parametrize("b", [1, 4, 8, 16])
    def test_stack_matches_per_frame_calls(self, b):
        rng = np.random.default_rng(35 + b)
        hb, wb = 3, 5
        h, w = hb * b, wb * b
        y, x = np.arange(hb)[:, None] * b, np.arange(wb) * b
        edges = in_frame_vectors(rng, hb, wb, b)
        # each block touches one frame edge, in turn top, bottom, left, right
        kind = (np.arange(hb)[:, None] * wb + np.arange(wb)) % 4
        edges[..., 1] = np.where(kind == 0, -y, np.where(kind == 1, h - b - y, edges[..., 1]))
        edges[..., 0] = np.where(kind == 2, -x, np.where(kind == 3, w - b - x, edges[..., 0]))
        static = np.zeros_like(edges)
        moving = in_frame_vectors(rng, hb, wb, b)
        # a vertical move as far as the frame allows is never (0, 0)
        moving[..., 1] = np.where(y > 0, -y, h - b - y)
        assert np.all(np.any(moving != 0, axis=-1))
        vectors = np.stack([edges, static, moving, in_frame_vectors(rng, hb, wb, b)])
        # and some block moves to each edge, not only sits at it
        dx, dy = edges[..., 0], edges[..., 1]
        for reach in (y + dy == 0, y + dy + b == h):
            assert np.any(reach & (dy != 0))
        for reach in (x + dx == 0, x + dx + b == w):
            assert np.any(reach & (dx != 0))
        refs = rng.integers(0, 256, size=(4, h, w, 3), dtype=np.uint8)
        kept = refs.copy()
        pred = motion_compensate(refs, vectors, b)
        assert pred.shape == refs.shape and pred.dtype == np.uint8
        assert not np.shares_memory(pred, refs)
        np.testing.assert_array_equal(refs, kept)
        for i in range(4):
            single = motion_compensate(refs[i], vectors[i], b)
            assert not np.shares_memory(single, refs)
            np.testing.assert_array_equal(pred[i], single, err_msg=f"frame {i}")
            np.testing.assert_array_equal(single, per_block_copy(refs[i], vectors[i], b), err_msg=f"frame {i}")
        np.testing.assert_array_equal(pred[1], refs[1])


def moving_blocks(ref, tgt, b):
    """The (Hb, Wb) mask of target blocks that differ from the co-located reference block."""
    h, w, _ = tgt.shape
    return (ref != tgt).reshape(h // b, b, w // b, 3 * b).any(axis=(1, 3))


class TestStaticBlockSkip:
    """Only blocks that differ from their co-located reference block are
    searched; the rest must still get what the exhaustive search gives."""

    def test_rendered_frames_match_brute_force(self):
        cfg = CodecConfig()
        for motion in range(4):
            scene = SceneSpec(context_class=motion, motion_class=motion, seed=40 + motion, frames=4)
            frames = generate_video(scene).video.frames
            for t in range(1, 4):
                moving = moving_blocks(frames[t - 1], frames[t], 8)
                assert moving.any() and not moving.all(), f"motion {motion} frame {t}"
                mv = estimate_motion(frames[t - 1], frames[t], cfg)
                _, expected = brute_force_sad_search(frames[t - 1], frames[t], cfg)
                np.testing.assert_array_equal(mv, expected, err_msg=f"motion {motion} frame {t}")
                assert np.all(mv[~moving] == 0)

    def test_flat_region_ties_match_brute_force(self):
        # a square moves over a flat background: the blocks it leaves differ
        # from their reference but match it at many offsets with SAD 0
        cfg = CodecConfig(block_size=4, search_range=5)
        ref = np.full((24, 32, 3), 90, dtype=np.uint8)
        tgt = ref.copy()
        ref[8:14, 9:15] = (200, 30, 60)
        tgt[9:15, 12:18] = (200, 30, 60)
        moving = moving_blocks(ref, tgt, 4)
        mv = estimate_motion(ref, tgt, cfg)
        mins, expected = brute_force_sad_search(ref, tgt, cfg)
        np.testing.assert_array_equal(mv, expected)
        assert np.any(moving & (mins == 0) & np.any(mv != 0, axis=-1))
        assert np.all(mv[~moving] == 0)

    def test_moving_block_can_keep_zero_vector(self):
        rng = np.random.default_rng(41)
        cfg = CodecConfig()
        ref = random_frame(rng)
        tgt = ref.copy()
        tgt[10, 13, 1] ^= 1  # block (1, 1) differs by one grey level
        mv = estimate_motion(ref, tgt, cfg)
        _, expected = brute_force_sad_search(ref, tgt, cfg)
        assert moving_blocks(ref, tgt, 8).sum() == 1
        np.testing.assert_array_equal(mv, expected)
        assert np.all(mv == 0)

    def test_static_video_runs_no_search(self, monkeypatch):
        def no_search(search_range):
            raise AssertionError("a static video was searched")

        monkeypatch.setattr(codec, "_sorted_offsets", no_search)
        rng = np.random.default_rng(42)
        frames = np.repeat(random_frame(rng, 16, 24)[None], 30, axis=0)
        cv = encode_video(RawVideo(frames=frames), CodecConfig(block_size=4, gop_size=7))
        assert cv.mvs.shape == (25, 4, 6, 2) and np.all(cv.mvs == 0) and np.all(cv.residuals == 0)

    def test_short_last_gop_matches_per_pair_search(self):
        # GOPs of 12, 12 and 5 frames, searched in one batch
        cfg = CodecConfig()
        frames = generate_video(SceneSpec(context_class=2, motion_class=1, seed=43, frames=29)).video.frames
        cv = encode_video(RawVideo(frames=frames), cfg)
        assert len(cv.iframes) == 3 and len(cv.mvs) == 26
        for t in range(1, 29):
            if t % cfg.gop_size:
                want = estimate_motion(frames[t - 1], frames[t], cfg)
                np.testing.assert_array_equal(grid_at(cv, t), want, err_msg=f"frame {t}")
        assert np.any(cv.mvs[-4:] != 0)

    def test_sad_dtype_sentinel_exceeds_every_sad(self):
        # an excluded candidate gets the SAD dtype's maximum, which must stay
        # above the largest SAD a block can have, 765*b*b
        for b in range(1, 2400):
            assert np.iinfo(codec._sad_dtype(b)).max > 765 * b * b, b
        assert codec._sad_dtype(9) == np.uint16 and codec._sad_dtype(10) == np.uint32
        assert codec._sad_dtype(2369) == np.uint32 and codec._sad_dtype(2370) == np.uint64

    @pytest.mark.parametrize("block_size", [1, 8, 9, 10])
    def test_largest_sad_beats_excluded_candidates(self, block_size):
        # a black block on white: every in-frame candidate has the largest
        # SAD, 765*b*b, and every candidate off the top-left edge reads
        # padding that matches it better
        b = block_size
        ref = np.full((2 * b, 2 * b, 3), 255, dtype=np.uint8)
        tgt = ref.copy()
        tgt[:b, :b] = 0
        cfg = CodecConfig(block_size=b, search_range=2)
        mins, expected = brute_force_sad_search(ref, tgt, cfg)
        assert mins[0, 0] == 765 * b * b
        mv = estimate_motion(ref, tgt, cfg)
        np.testing.assert_array_equal(mv, expected)
        assert np.all(mv == 0)


class TestGopLayout:
    def test_24_frames_two_gops(self):
        rng = np.random.default_rng(4)
        cv = encode_video(random_video(rng, t=24))
        assert cv.iframes.shape == (2, 32, 32, 3)
        assert cv.mvs.shape == (22, 4, 4, 2) and cv.residuals.shape == (22, 32, 32, 3)
        assert cv.motion_field().iframe_indices() == [0, 12]
        np.testing.assert_array_equal(cv.iframes, random_video(np.random.default_rng(4), t=24).frames[[0, 12]])

    def test_single_frame_video(self):
        rng = np.random.default_rng(5)
        cv = encode_video(random_video(rng, t=1))
        assert len(cv.iframes) == 1 and cv.frame_count == 1
        assert cv.mvs.shape == (0, 4, 4, 2) and cv.residuals.shape == (0, 32, 32, 3)

    def test_static_13_frames(self):
        frame = np.full((32, 32, 3), 77, dtype=np.uint8)
        cv = encode_video(RawVideo(frames=np.repeat(frame[None], 13, axis=0)))
        assert len(cv.iframes) == 2 and len(cv.mvs) == 11
        assert np.all(cv.mvs == 0)
        assert np.all(cv.residuals == 0)

    def test_iframe_positions_are_gop_multiples(self):
        rng = np.random.default_rng(6)
        cv = encode_video(random_video(rng, t=30), CodecConfig(gop_size=7))
        assert cv.motion_field().iframe_indices() == [0, 7, 14, 21, 28]


class TestRoundtrip:
    def test_random_noise_video(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            v = random_video(rng, t=14)
            out = decode_video(encode_video(v))
            np.testing.assert_array_equal(out.frames, v.frames)

    def test_static_video(self):
        v = RawVideo(frames=np.full((5, 16, 16, 3), 9, dtype=np.uint8))
        out = decode_video(encode_video(v))
        np.testing.assert_array_equal(out.frames, v.frames)

    def test_translating_video(self):
        rng = np.random.default_rng(7)
        v = translating_video(rng, t=13)
        out = decode_video(encode_video(v))
        np.testing.assert_array_equal(out.frames, v.frames)

    def test_search_range_beyond_frame(self, tmp_path):
        rng = np.random.default_rng(23)
        v = random_video(rng, t=13, h=4, w=16)
        cfg = CodecConfig(block_size=4, search_range=6)
        cv = encode_video(v, cfg)
        path = tmp_path / "narrow.cmv1"
        write_cmv1(cv, path)
        out = decode_video(read_cmv1(path))
        np.testing.assert_array_equal(out.frames, v.frames)
        x = np.arange(4) * 4  # the frame is one row of four 4x4 blocks
        for t in range(1, 13):
            if t % cfg.gop_size:
                dx, dy = grid_at(cv, t)[0].T
                assert np.all(dy == 0) and np.all((x + dx >= 0) & (x + dx + 4 <= 16))

    @pytest.mark.parametrize("t", [25, 29])
    def test_short_last_gop(self, t):
        # GOPs of 12, 12 and 1 or 5 frames
        rng = np.random.default_rng(t)
        rendered = generate_video(SceneSpec(context_class=1, motion_class=2, seed=t, frames=t)).video
        for v in (random_video(rng, t=t), translating_video(rng, t=t), rendered):
            cv = encode_video(v)
            assert len(cv.iframes) == 3 and len(cv.mvs) == t - 3
            np.testing.assert_array_equal(decode_video(cv).frames, v.frames)


class TestExtractModalities:
    def test_static_window_is_zero(self):
        v = RawVideo(frames=np.full((13, 32, 32, 3), 5, dtype=np.uint8))
        cv = encode_video(v)
        clip = extract_modalities(cv, np.arange(2, 10))
        assert clip.shape == (8, 2, 32, 32)
        np.testing.assert_array_equal(clip, 0.0)

    def test_iframe_slot_is_zero(self):
        rng = np.random.default_rng(9)
        cv = encode_video(random_video(rng, t=24))
        clip = extract_modalities(cv, np.arange(10, 14))  # covers I-frame at t=12
        np.testing.assert_array_equal(clip[2], 0.0)
        assert np.any(clip[1] != 0.0)

    def test_translation_appears_in_maps(self):
        rng = np.random.default_rng(10)
        v = translating_video(rng, t=13, step=(2, 1))
        cv = encode_video(v)
        clip = extract_modalities(cv, np.arange(1, 5))
        center = (slice(None), slice(12, 20), slice(12, 20))
        for i in range(4):
            np.testing.assert_array_equal(clip[i][0][center[1:]], 2.0)
            np.testing.assert_array_equal(clip[i][1][center[1:]], 1.0)

    def test_matches_per_frame_maps(self):
        rng = np.random.default_rng(11)
        cv = encode_video(random_video(rng, t=13))
        clip = extract_modalities(cv, np.arange(3, 9))
        for i, t in enumerate(range(3, 9)):
            grid = grid_at(cv, t)
            full = np.repeat(np.repeat(grid, 8, axis=0), 8, axis=1).transpose(2, 0, 1)
            np.testing.assert_array_equal(clip[i], full)

    def test_resize_rescales_values(self):
        rng = np.random.default_rng(12)
        v = translating_video(rng, t=13, h=64, w=64, step=(4, 2))
        cv = encode_video(v)
        clip = extract_modalities(cv, np.arange(1, 3), out_size=(32, 32))
        assert clip.shape == (2, 2, 32, 32)
        center = (slice(8, 24), slice(8, 24))
        np.testing.assert_array_equal(clip[0][0][center], 2.0)  # dx 4 * 32/64
        np.testing.assert_array_equal(clip[0][1][center], 1.0)  # dy 2 * 32/64

    def test_out_of_range_window_rejected(self):
        rng = np.random.default_rng(13)
        cv = encode_video(random_video(rng, t=13))
        for frames in (np.arange(10, 18), [-1, 0], [13], [], np.zeros((2, 2), dtype=int)):
            with pytest.raises(ValueError, match="outside video of 13 frames"):
                extract_modalities(cv, frames)
        # a float index is not rounded to some frame
        for frames in (np.array([1.7, 2.2]), [True, False]):
            with pytest.raises(ValueError, match=f"must be integers, got dtype {np.asarray(frames).dtype}"):
                extract_modalities(cv, frames)

    def test_non_square_non_divisible_resize_matches_oracle(self):
        rng = np.random.default_rng(14)
        cv = encode_video(random_video(rng, t=13, h=48, w=64))
        frames = np.arange(1, 9)
        for out_size in ((23, 27), (48, 64), (37, 100)):
            got = extract_modalities(cv, frames, out_size)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, repeat_then_subsample(cv, frames, out_size).astype(np.float32))
            assert np.any(got[:, 0] != 0) and np.any(got[:, 1] != 0)

    def test_scattered_indices_with_iframe_slots_match_oracle(self):
        rng = np.random.default_rng(15)
        cv = encode_video(random_video(rng, t=30))
        frames = np.array([24, 3, 12, 3, 29, 0, 17])  # unordered, repeated, I-frames 0/12/24
        got = extract_modalities(cv, frames, (20, 24))
        np.testing.assert_array_equal(got, repeat_then_subsample(cv, frames, (20, 24)).astype(np.float32))
        np.testing.assert_array_equal(got[[0, 2, 5]], 0.0)


class TestCompressedVideo:
    def test_arrays_read_only_and_fields_frozen(self):
        cv = encode_video(random_video(np.random.default_rng(31), t=13, h=16, w=16))
        for arr in (cv.iframes, cv.mvs, cv.residuals):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cv.mvs = np.zeros_like(cv.mvs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cv.config.gop_size = 5

    def test_wrong_dtype_or_shape_rejected(self):
        cv = encode_video(random_video(np.random.default_rng(32), t=13, h=16, w=16))
        for change, want in (
            ({"mvs": cv.mvs.astype(np.int32)}, r"mvs must be a 4-d int16 array, got int32 \(11, 2, 2, 2\)"),
            ({"iframes": cv.iframes.astype(np.int16)}, r"iframes must be a 4-d uint8 array, got int16"),
            ({"residuals": cv.residuals[0]}, r"residuals must be a 4-d int16 array, got int16 \(16, 16, 3\)"),
            ({"mvs": list(cv.mvs)}, "mvs must be a 4-d int16 array, got list"),
            ({"residuals": cv.residuals[..., :2]}, r"residuals of shape \(11, 16, 16, 2\), expected \(11, 16, 16, 3\)"),
            ({"mvs": cv.mvs[:, :1]}, r"mvs of shape \(11, 1, 2, 2\), expected \(11, 2, 2, 2\)"),
            ({"residuals": cv.residuals[:, :, :8]}, r"residuals of shape \(11, 16, 8, 3\), expected \(11, 16, 16, 3\)"),
            ({"residuals": cv.residuals[:-1]}, r"residuals of shape \(10, 16, 16, 3\), expected \(11, 16, 16, 3\)"),
            ({"residuals": None}, "residuals must be a 4-d int16 array, got NoneType"),
        ):
            with pytest.raises(ValueError, match=want):
                dataclasses.replace(cv, **change)


class TestMotionField:
    """What a record keeps of a decoded video: config, geometry and MV grids."""

    @pytest.mark.parametrize("gop_size, t", [(12, 25), (5, 27)], ids=["gop12", "gop5_short_last"])
    def test_serves_what_sampling_reads(self, gop_size, t):
        video = translating_video(np.random.default_rng(40), t=t)
        cv = encode_video(video, CodecConfig(gop_size=gop_size))
        field = cv.motion_field()
        assert (field.frame_count, field.height, field.width) == (cv.frame_count, cv.height, cv.width)
        assert field.config == cv.config and field.iframe_indices() == list(range(0, t, gop_size))
        np.testing.assert_array_equal(cv.iframes, video.frames[field.iframe_indices()])
        frames = np.arange(cv.frame_count)
        for out_size in (None, (20, 24)):
            got, want = (extract_modalities(v, frames, out_size) for v in (field, cv))
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    def test_mvs_shared_and_read_only(self):
        cv = encode_video(translating_video(np.random.default_rng(41), t=25))
        field = cv.motion_field()
        assert np.shares_memory(field.mvs, cv.mvs)
        with pytest.raises(ValueError, match="read-only"):
            field.mvs[0, 0, 0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            field.mvs = np.zeros_like(field.mvs)

    def test_holds_no_pixels(self):
        field = encode_video(translating_video(np.random.default_rng(42), t=25)).motion_field()
        assert not hasattr(field, "iframes") and not hasattr(field, "residuals")
        assert [f.name for f in dataclasses.fields(field)] == ["config", "mvs", "height", "width", "frame_count"]


class TestContainer:
    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(16)
        v = translating_video(rng, t=25)
        cv = encode_video(v)
        path = tmp_path / "v.cmv1"
        write_cmv1(cv, path)
        cv2 = read_cmv1(path)
        out = decode_video(cv2)
        np.testing.assert_array_equal(out.frames, v.frames)
        assert cv2.config == cv.config

    @pytest.mark.parametrize("gop_size", [2, 5, 12])
    def test_short_last_gop_reads_back_every_array(self, tmp_path, gop_size):
        # 27 frames: the last GOP holds 1, 2 and 3 frames
        cv = encode_video(translating_video(np.random.default_rng(gop_size), t=27), CodecConfig(gop_size=gop_size))
        assert 27 % gop_size in (1, 2, 3)
        path = tmp_path / "v.cmv1"
        write_cmv1(cv, path)
        got = read_cmv1(path)
        assert got.config == cv.config
        for name in ("iframes", "mvs", "residuals"):
            a, b = getattr(got, name), getattr(cv, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_identical_bytes_on_rewrite(self, tmp_path):
        rng = np.random.default_rng(17)
        cv = encode_video(random_video(rng, t=13))
        p1, p2 = tmp_path / "a.cmv1", tmp_path / "b.cmv1"
        write_cmv1(cv, p1)
        write_cmv1(cv, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.cmv1"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            read_cmv1(p)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        cv = encode_video(random_video(rng, t=13))
        p = tmp_path / "t.cmv1"
        write_cmv1(cv, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            read_cmv1(p)

    def test_body_larger_than_file_rejected_before_reading(self, tmp_path):
        # 90 bytes whose header claims 1000 frames of 65528x65528
        path = tmp_path / "huge.cmv1"
        path.write_bytes(_HEADER.pack(b"CMV1", 1, 65528, 65528, 12, 8, 7, 1000).ljust(90, b"\x00"))
        with pytest.raises(ValueError, match=r"claims 24927272020816 bytes, the file holds 66 after the header"):
            read_cmv1(path)

    def test_corrupt_mv_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        cv = encode_video(random_video(rng, t=13))
        mvs = cv.mvs.copy()
        mvs[0, 0, 0, 0] = 99
        with pytest.raises(ValueError, match=r"GOP 0 P-frame 0 block \(0, 0\): motion vector \(99, 5\) exceeds"):
            dataclasses.replace(cv, mvs=mvs)

    @staticmethod
    def write_patched(path, cv, gop, p_frame, at, values):
        """Write cv as CMV1, then overwrite i16 samples of one P-frame record
        (its MV grid, then its residual), starting `at` samples in."""
        write_cmv1(cv, path)
        h, w, b, g = cv.height, cv.width, cv.config.block_size, cv.config.gop_size
        p_bytes = (h // b) * (w // b) * 4 + h * w * 3 * 2
        gop_bytes = h * w * 3 + (g - 1) * p_bytes
        offset = _HEADER.size + gop * gop_bytes + h * w * 3 + p_frame * p_bytes + 2 * at
        patch = np.array(values, dtype="<i2").tobytes()
        data = bytearray(path.read_bytes())
        data[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(data))

    @classmethod
    def write_with_mv(cls, path, cv, gop, p_frame, block, mv):
        """Write cv as CMV1, then overwrite one block's (dx, dy) in the file."""
        cls.write_patched(path, cv, gop, p_frame, 2 * (block[0] * (cv.width // cv.config.block_size) + block[1]), mv)

    @classmethod
    def write_with_residual(cls, path, cv, gop, p_frame, pixel, value):
        """Write cv as CMV1, then overwrite one residual sample (y, x, c) in the file."""
        b = cv.config.block_size
        grid = (cv.height // b) * (cv.width // b) * 2
        y, x, c = pixel
        cls.write_patched(path, cv, gop, p_frame, grid + (y * cv.width + x) * 3 + c, [value])

    def test_residual_out_of_range_rejected(self, tmp_path):
        rng = np.random.default_rng(29)
        cv = encode_video(random_video(rng, t=25))
        path = tmp_path / "res.cmv1"
        self.write_with_residual(path, cv, 1, 3, (5, 7, 2), 256)
        want = r"GOP 1 P-frame 3 pixel \(5, 7\) channel 2: residual 256 outside \[-255, 255\]"
        with pytest.raises(ValueError, match=want):
            read_cmv1(path)
        residuals = cv.residuals.copy()
        residuals[2, 4, 6, 0] = -256
        with pytest.raises(ValueError, match=r"GOP 0 P-frame 2 pixel \(4, 6\) channel 0: residual -256 outside"):
            dataclasses.replace(cv, residuals=residuals)

    def test_reconstruction_out_of_range_rejected(self, tmp_path):
        rng = np.random.default_rng(30)
        v = random_video(rng, t=25)
        cv = encode_video(v)
        for (gop, p_frame, (y, x, c)), past in (((1, 4, (9, 2, 1)), 256), ((0, 7, (30, 31, 0)), -1)):
            # a residual inside [-255, 255] that takes the pixel just past the range
            residual = cv.residuals[11 * gop + p_frame]
            pred = int(v.frames[12 * gop + p_frame + 1][y, x, c]) - int(residual[y, x, c])
            assert -255 <= past - pred <= 255
            path = tmp_path / "recon.cmv1"
            self.write_with_residual(path, cv, gop, p_frame, (y, x, c), past - pred)
            cv2 = read_cmv1(path)
            want = rf"GOP {gop} P-frame {p_frame} pixel \({y}, {x}\) channel {c}: reconstruction {past} outside \[0, 255\]"
            with pytest.raises(ValueError, match=want):
                decode_video(cv2)

    def test_first_bad_reconstruction_in_frame_order_named(self, tmp_path):
        # decoding steps through P-frame j of every GOP at once, so it builds
        # GOP 1 P-frame 2 (frame 15) before GOP 0 P-frame 7 (frame 8); the
        # error must still name frame 8, the first bad frame in frame order
        rng = np.random.default_rng(31)
        v = random_video(rng, t=29)
        cv = encode_video(v)
        residuals = cv.residuals.copy()
        bad = {(1, 2): (3, 20, 1), (0, 7): (17, 4, 2)}
        for (gop, p_frame), (y, x, c) in bad.items():
            t, p = 12 * gop + p_frame + 1, 11 * gop + p_frame
            pred = int(v.frames[t][y, x, c]) - int(residuals[p][y, x, c])
            past = 256 if pred >= 1 else -1  # so that past - pred stays in [-255, 255]
            residuals[p][y, x, c] = past - pred
            bad[gop, p_frame] += (past,)
        path = tmp_path / "two_bad.cmv1"
        write_cmv1(dataclasses.replace(cv, residuals=residuals), path)
        (y, x, c, past) = bad[0, 7]
        want = rf"GOP 0 P-frame 7 pixel \({y}, {x}\) channel {c}: reconstruction {past} outside \[0, 255\]"
        with pytest.raises(ValueError, match=want):
            decode_video(read_cmv1(path))
        # the GOP 1 frame alone is found too
        only_gop_1 = cv.residuals.copy()
        only_gop_1[13] = residuals[13]
        (y, x, c, past) = bad[1, 2]
        want = rf"GOP 1 P-frame 2 pixel \({y}, {x}\) channel {c}: reconstruction {past} outside"
        with pytest.raises(ValueError, match=want):
            decode_video(dataclasses.replace(cv, residuals=only_gop_1))

    def test_mv_leaving_top_left_rejected(self, tmp_path):
        rng = np.random.default_rng(26)
        cv = encode_video(random_video(rng, t=25))
        path = tmp_path / "tl.cmv1"
        self.write_with_mv(path, cv, 1, 2, (0, 0), (-2, -2))
        with pytest.raises(ValueError, match=r"GOP 1 P-frame 2 block \(0, 0\).*outside"):
            read_cmv1(path)
        mvs = cv.mvs.copy()
        mvs[11 + 2, 0, 0] = (-2, -2)
        with pytest.raises(ValueError, match=r"GOP 1 P-frame 2 block \(0, 0\).*outside"):
            dataclasses.replace(cv, mvs=mvs)

    def test_mv_leaving_right_edge_rejected(self, tmp_path):
        rng = np.random.default_rng(27)
        cv = encode_video(random_video(rng, t=13))
        path = tmp_path / "re.cmv1"
        self.write_with_mv(path, cv, 0, 4, (1, 3), (3, 0))
        with pytest.raises(ValueError, match=r"GOP 0 P-frame 4 block \(1, 3\).*outside"):
            read_cmv1(path)

    def test_wrong_pframe_count_rejected(self):
        rng = np.random.default_rng(20)
        cv = encode_video(random_video(rng, t=13))
        want = r"iframes of shape \(2, 32, 32, 3\), expected \(1, 32, 32, 3\) for 12 frames at gop_size 12"
        with pytest.raises(ValueError, match=want):
            dataclasses.replace(cv, mvs=cv.mvs[:-1], residuals=cv.residuals[:-1])

    # a bad header geometry is rejected before any body byte is read, so the
    # files below hold the header alone; building a CompressedVideo checks
    # the same fields

    def test_height_not_block_multiple_rejected(self, tmp_path):
        path = tmp_path / "h12.cmv1"
        path.write_bytes(_HEADER.pack(b"CMV1", 1, 12, 16, 12, 8, 7, 13))
        with pytest.raises(ValueError, match="height 12 is not a positive multiple of block_size 8"):
            read_cmv1(path)
        cv = encode_video(random_video(np.random.default_rng(28), t=13, h=16, w=16))
        with pytest.raises(ValueError, match="height 12 is not a positive multiple of block_size 8"):
            dataclasses.replace(cv, iframes=cv.iframes[:, :12], residuals=cv.residuals[:, :12])
        # encode_video takes only a whole block grid: it pads nothing, so
        # what it accepts decodes back at its own size
        for h, w, want in ((12, 16, "height 12"), (16, 29, "width 29"), (30, 29, "height 30")):
            with pytest.raises(ValueError, match=f"{want} is not a positive multiple of block_size 8"):
                encode_video(random_video(np.random.default_rng(29), t=5, h=h, w=w))

    def test_zero_height_rejected(self, tmp_path):
        path = tmp_path / "h0.cmv1"
        path.write_bytes(_HEADER.pack(b"CMV1", 1, 0, 16, 12, 8, 7, 1))
        with pytest.raises(ValueError, match="height 0 is not a positive multiple"):
            read_cmv1(path)
        with pytest.raises(ValueError, match="height 0 is not a positive multiple"):
            CompressedVideo(CodecConfig(), *empty_arrays(1, 0, 16))

    def test_zero_frame_count_rejected(self, tmp_path):
        path = tmp_path / "t0.cmv1"
        path.write_bytes(_HEADER.pack(b"CMV1", 1, 16, 16, 12, 8, 7, 0))
        with pytest.raises(ValueError, match="frame_count 0"):
            read_cmv1(path)
        with pytest.raises(ValueError, match="frame_count 0"):
            CompressedVideo(CodecConfig(), *empty_arrays(0, 16, 16))
        with pytest.raises(ValueError, match="frame_count 0"):
            encode_video(RawVideo(frames=np.zeros((0, 16, 16, 3), dtype=np.uint8)))

    def test_trailing_bytes_rejected(self, tmp_path):
        cv = encode_video(random_video(np.random.default_rng(33), t=13, h=16, w=16))
        path = tmp_path / "tail.cmv1"
        write_cmv1(cv, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ValueError, match=r"tail\.cmv1: 3 trailing bytes after 13 frames"):
            read_cmv1(path)

    def test_header_errors_name_the_file(self, tmp_path):
        path = tmp_path / "hdr.cmv1"
        for (gop_size, block_size), want in (
            ((1, 8), "gop_size must be >= 2, got 1"),
            ((12, 0), "block_size must be >= 1, got 0"),
            ((12, 2052), "height 16 is not a positive multiple of block_size 2052"),
        ):
            path.write_bytes(_HEADER.pack(b"CMV1", 1, 16, 16, gop_size, block_size, 7, 13))
            with pytest.raises(ValueError, match=re.escape(f"{path}: {want}")):
                read_cmv1(path)

    def test_file_shrinking_while_read_rejected(self, tmp_path, monkeypatch):
        # the reader bounds the body by the size it saw; a shorter read is not
        # padded into a video
        cv = encode_video(random_video(np.random.default_rng(35), t=13, h=16, w=16))
        path = tmp_path / "shrunk.cmv1"
        write_cmv1(cv, path)
        stat = path.stat()
        path.write_bytes(path.read_bytes()[:-10])
        monkeypatch.setattr(codec.os, "fstat", lambda fd: stat)
        with pytest.raises(ValueError, match=rf"shrunk\.cmv1: truncated body: read {stat.st_size - 34} of {stat.st_size - 24}"):
            read_cmv1(path)
