"""Generator determinism, labeling balance, and codec compatibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from cmssl import synthgen
from cmssl.codec import decode_video, encode_video, extract_modalities, read_cmv1
from cmssl.synthgen import (
    SceneSpec,
    generate_dataset,
    generate_video,
    load_manifest,
    manifest_digest,
    pad_frames_to_block,
)


def spec(seed=0, context=0, motion=0, frames=13, res=64):
    return SceneSpec(
        context_class=context, motion_class=motion, seed=seed, frames=frames, height=res, width=res
    )


def per_frame_render(spec, codec_block_size=8):
    """generate_video one frame at a time: each frame a float64 copy of the
    background, each sprite painted through its own mask, then clipped and
    truncated into uint8."""
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    bg = synthgen._render_background(spec, rng)
    sprites = [synthgen._Sprite(spec, rng, bg.mean(axis=(0, 1))) for _ in range(2)]
    frames = np.empty((spec.frames, spec.height, spec.width, 3), dtype=np.uint8)
    for t in range(spec.frames):
        frame = bg.copy()
        for s in sprites:
            cx, cy = s.center_at(t)
            r = s.radius
            yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
            if s.shape == "disc":
                mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
            else:
                mask = (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
            frame[mask] = s.color
        frames[t] = np.clip(frame, 0, 255).astype(np.uint8)
    return pad_frames_to_block(frames, codec_block_size)


class TestRenderOracle:
    @pytest.mark.parametrize("height, width", [(64, 64), (20, 20), (64, 20), (37, 45)])
    def test_matches_per_frame_render(self, height, width):
        for context in range(4):
            for motion in range(4):
                scene = SceneSpec(context, motion, seed=100 * context + motion + 1, frames=9, height=height, width=width)
                got = generate_video(scene).video.frames
                assert got.shape == (9, -(-height // 8) * 8, -(-width // 8) * 8, 3)
                np.testing.assert_array_equal(got, per_frame_render(scene), err_msg=f"{context}, {motion}")

    def test_fallback_sprite_colour_truncates_like_astype(self, monkeypatch):
        class NearTheMean:
            """Every colour drawn lies within 2 of the background mean."""

            def integers(self, low, high, size):
                return np.floor(mean).astype(np.int64)

        mean = np.array([100.25, 30.5, 200.75])
        np.testing.assert_array_equal(synthgen._sprite_color(NearTheMean(), mean), 255.0 - mean)
        # a gradient's mean, so 255 - mean is not an integer
        monkeypatch.setattr(synthgen, "_sprite_color", lambda rng, bg_mean: 255.0 - bg_mean)
        for motion in (0, 2):
            scene = SceneSpec(0, motion, seed=11 + motion, frames=7, height=37, width=45)
            rng = np.random.default_rng(np.random.PCG64(scene.seed))
            colour = 255.0 - synthgen._render_background(scene, rng).mean(axis=(0, 1))
            assert np.all(colour != np.floor(colour))
            got = generate_video(scene).video.frames
            np.testing.assert_array_equal(got, per_frame_render(scene))
            assert np.any(np.all(got == colour.astype(np.uint8), axis=-1))


class TestGenerateVideo:
    def test_same_seed_byte_identical(self):
        a = generate_video(spec(seed=7))
        b = generate_video(spec(seed=7))
        np.testing.assert_array_equal(a.video.frames, b.video.frames)

    def test_different_seed_same_classes_different_pixels(self):
        a = generate_video(spec(seed=1, context=2, motion=3))
        b = generate_video(spec(seed=2, context=2, motion=3))
        assert a.context_class == b.context_class
        assert a.motion_class == b.motion_class
        assert np.any(a.video.frames != b.video.frames)

    def test_moving_classes_produce_motion(self):
        for motion in range(4):
            lv = generate_video(spec(seed=4, motion=motion, frames=13))
            cv = encode_video(lv.video)
            clip = extract_modalities(cv, np.arange(13))
            assert np.abs(clip).max() > 0, f"motion class {motion} produced no MVs"

    def test_codec_roundtrip_lossless(self):
        for seed in range(4):
            lv = generate_video(spec(seed=seed, context=seed % 4, motion=seed % 4))
            out = decode_video(encode_video(lv.video))
            np.testing.assert_array_equal(out.frames, lv.video.frames)

    def test_padding_to_block_multiple(self):
        rng = np.random.default_rng(8)
        frames = rng.integers(0, 256, size=(3, 30, 29, 3), dtype=np.uint8)
        padded = pad_frames_to_block(frames, 8)
        assert padded.shape[1:3] == (32, 32)
        np.testing.assert_array_equal(padded[:, :30, :29], frames)

    def test_odd_resolution_padded_and_recorded(self):
        lv = generate_video(spec(seed=5, res=30))
        assert lv.video.height == 32 and lv.video.width == 32
        # the padding replicates the last rendered row and column
        frames = lv.video.frames
        np.testing.assert_array_equal(frames[:, 30:], np.repeat(frames[:, 29:30], 2, axis=1))
        np.testing.assert_array_equal(frames[:, :, 30:], np.repeat(frames[:, :, 29:30], 2, axis=2))

    def test_background_static_across_frames(self):
        lv = generate_video(spec(seed=6, motion=1, frames=8))
        # corners are sprite-free for this seed: background must not change
        corner = lv.video.frames[:, :4, :4]
        for t in range(1, 8):
            np.testing.assert_array_equal(corner[t], corner[0])

    def test_invalid_classes_rejected(self):
        with pytest.raises(ValueError, match="motion_class"):
            generate_video(spec(motion=-1))
        with pytest.raises(ValueError, match="context_class"):
            generate_video(spec(context=-1))
        # one class per family: class 4 would repeat family 0 under a new label
        with pytest.raises(ValueError, match=r"^motion_class 4 out of range: 0..3$"):
            generate_video(spec(motion=4))
        with pytest.raises(ValueError, match=r"^context_class 4 out of range: 0..3"):
            generate_video(spec(context=4))

    def test_frame_too_small_for_a_sprite_rejected(self, tmp_path):
        for motion in range(4):
            for seed in range(3):
                assert generate_video(spec(seed=seed, motion=motion, res=20)).video.height == 24
        for height, width, name in ((19, 64, "height"), (64, 19, "width")):
            small = SceneSpec(context_class=0, motion_class=0, seed=0, frames=4, height=height, width=width)
            with pytest.raises(ValueError, match=f"^{name} 19 is below the minimum 20 "):
                generate_video(small)
        with pytest.raises(ValueError, match="^height 16 is below the minimum 20 "):
            generate_dataset(tmp_path, n_videos=4, k_context=2, k_motion=2, frames=13, resolution=(16, 16))


class TestGenerateDataset:
    def test_balance_and_split_counts(self, tmp_path):
        generate_dataset(tmp_path, n_videos=36, k_context=3, k_motion=3, frames=13, seed=1,
                         split_fraction=2 / 3)
        records = load_manifest(tmp_path)
        assert len(records) == 36
        counts = {}
        for r in records:
            counts.setdefault((r["context_class"], r["motion_class"]), []).append(r["split"])
        assert all(len(v) == 4 for v in counts.values())
        # floor(4 * 2/3 + 0.5) = 3 train per pair
        for splits in counts.values():
            assert splits.count("train") == 3
            assert splits.count("test") == 1

    def test_motion_marginal_identical_per_context(self, tmp_path):
        generate_dataset(tmp_path, n_videos=32, k_context=4, k_motion=4, frames=13, seed=2)
        records = load_manifest(tmp_path)
        per_context = {}
        for r in records:
            per_context.setdefault(r["context_class"], []).append(r["motion_class"])
        dists = [sorted(v) for v in per_context.values()]
        assert all(d == dists[0] for d in dists)

    @pytest.mark.parametrize(
        "kwargs, want",
        [
            ({"k_context": 5}, r"k_context 5 out of range: 1..4"),
            ({"k_motion": 5}, r"k_motion 5 out of range: 1..4"),
            ({"k_context": 0}, r"k_context 0 out of range: 1..4"),
            ({"k_motion": 0}, r"k_motion 0 out of range: 1..4"),
            ({"split_fraction": 1.5}, r"split_fraction 1.5 out of range \[0, 1\]"),
            ({"split_fraction": -0.5}, r"split_fraction -0.5 out of range \[0, 1\]"),
            ({"split_fraction": float("nan")}, r"split_fraction nan out of range \[0, 1\]"),
            ({"n_videos": -1}, r"n_videos -1 is negative"),
        ],
    )
    def test_bad_arguments_rejected_before_writing(self, tmp_path, kwargs, want):
        out = tmp_path / "ds"
        with pytest.raises(ValueError, match="^" + want):
            generate_dataset(out, **{"n_videos": 4, "frames": 13, **kwargs})
        assert not out.exists()

    def test_class_and_split_bounds_accepted(self, tmp_path):
        generate_dataset(tmp_path / "a", n_videos=4, k_context=4, k_motion=1, frames=13, split_fraction=1.0)
        assert {r["split"] for r in load_manifest(tmp_path / "a")} == {"train"}
        generate_dataset(tmp_path / "b", n_videos=4, k_context=1, k_motion=4, frames=13, split_fraction=0.0)
        records = load_manifest(tmp_path / "b")
        assert {r["split"] for r in records} == {"test"}
        assert sorted(r["motion_class"] for r in records) == [0, 1, 2, 3]

    def test_empty_dataset(self, tmp_path):
        with pytest.warns(UserWarning, match="below one per"):
            generate_dataset(tmp_path, n_videos=0, frames=13, seed=3)
        assert load_manifest(tmp_path) == []

    def test_regeneration_identical_digest(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_dataset(d1, n_videos=8, k_context=2, k_motion=2, frames=13, seed=4)
        generate_dataset(d2, n_videos=8, k_context=2, k_motion=2, frames=13, seed=4)
        assert manifest_digest(d1) == manifest_digest(d2)

    def test_warns_when_undersampled(self, tmp_path):
        with pytest.warns(UserWarning, match="below one per"):
            generate_dataset(tmp_path, n_videos=3, k_context=2, k_motion=2, frames=13, seed=5)

    def test_files_decodable(self, tmp_path):
        generate_dataset(tmp_path, n_videos=4, k_context=2, k_motion=2, frames=13, seed=6)
        for rec in load_manifest(tmp_path):
            cv = read_cmv1(tmp_path / rec["path"])
            assert cv.frame_count == rec["frames"]
            decode_video(cv)

    def test_reference_dataset_digest_pinned(self, tmp_path):
        # the dataset every benchmark gate runs on; a change to CMV1 bytes or
        # to rendering moves this digest
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        want = json.loads(reference.read_text())["dataset_digest"]
        generate_dataset(tmp_path, n_videos=16, seed=0)
        assert manifest_digest(tmp_path) == want

    def test_threads_do_not_change_content(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_dataset(d1, n_videos=6, k_context=2, k_motion=2, frames=13, seed=7, threads=1)
        generate_dataset(d2, n_videos=6, k_context=2, k_motion=2, frames=13, seed=7, threads=3)
        assert manifest_digest(d1) == manifest_digest(d2)


class TestLoadManifest:
    @pytest.mark.parametrize(
        "line, want",
        [
            (b'{"path": "a.cmv1"', r"line 3: not JSON \(Expecting ',' delimiter at column 18\)"),
            (b"5", r"line 3: int 5 is not a JSON object"),
            (b"\xff{}", r"line 3: not UTF-8 \(invalid start byte at byte 0\)"),
        ],
        ids=["not_json", "not_an_object", "not_utf8"],
    )
    def test_bad_line_named(self, tmp_path, line, want):
        generate_dataset(tmp_path, n_videos=1, k_context=1, k_motion=1, frames=13, seed=0)
        manifest = tmp_path / "manifest.jsonl"
        # a blank line 2, so the bad line is line 3 of the file but record 1
        manifest.write_bytes(manifest.read_bytes() + b"\n" + line + b"\n")
        with pytest.raises(ValueError, match=r"manifest.jsonl " + want):
            load_manifest(tmp_path)

    def test_path_not_a_string_named(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text(
            json.dumps({"path": 5, "context_class": 0, "motion_class": 0, "split": "train"}) + "\n"
        )
        with pytest.raises(ValueError, match=r"manifest.jsonl record 0: path 5 is not a string"):
            load_manifest(tmp_path)


def mv_oracle(cv) -> np.ndarray:
    """A fixed motion feature: per P-frame, the mean (dx, dy) over the blocks
    whose vector is not zero (zero when none is), then |rfft| of each
    component along time, which drops the trajectory's phase."""
    mvs = cv.mvs.reshape(len(cv.mvs), -1, 2).astype(np.float64)
    moving = np.any(mvs != 0, axis=2)
    mean = mvs.sum(axis=1) / np.maximum(moving.sum(axis=1), 1)[:, None]
    return np.abs(np.fft.rfft(mean, axis=0)).ravel()


def nn_accuracy(bank, bank_labels, queries, query_labels) -> float:
    """Cosine 1-NN accuracy of the queries against the bank, both centred by
    the bank mean."""
    mu = bank.mean(axis=0)
    b, q = bank - mu, queries - mu
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return float(np.mean(bank_labels[np.argmax(q @ b.T, axis=1)] == query_labels))


def test_motion_vectors_carry_the_motion_class_and_not_the_context(tmp_path):
    """The property every learned row relies on, with no training: a fixed MV
    feature reads the motion class well above chance (0.25) and the context
    class near it. The codec is bit-exact, so seed 0 always reads motion
    15/16 and context 5/16."""
    generate_dataset(tmp_path, n_videos=48, seed=0)
    records = load_manifest(tmp_path)
    feats = np.stack([mv_oracle(read_cmv1(tmp_path / r["path"])) for r in records])
    split = np.array([r["split"] for r in records])
    acc = {}
    for key in ("motion_class", "context_class"):
        labels = np.array([r[key] for r in records])
        train, test = split == "train", split == "test"
        acc[key] = nn_accuracy(feats[train], labels[train], feats[test], labels[test])
    assert acc["motion_class"] >= 0.75 and acc["context_class"] <= 0.5, acc
