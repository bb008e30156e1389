"""Generator determinism, labeling balance, and codec compatibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from cmssl.codec import decode_video, encode_video, extract_modalities, read_cmv1
from cmssl.synthgen import (
    STATIC_MOTION,
    SceneSpec,
    generate_dataset,
    generate_video,
    load_manifest,
    manifest_digest,
)


def spec(seed=0, context=0, motion=0, frames=13, res=64):
    return SceneSpec(
        context_class=context, motion_class=motion, seed=seed, frames=frames, height=res, width=res
    )


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

    def test_static_motion_class_gives_zero_mv(self):
        lv = generate_video(spec(seed=3, motion=STATIC_MOTION))
        cv = encode_video(lv.video)
        clip = extract_modalities(cv, np.arange(lv.video.n_frames))
        np.testing.assert_array_equal(clip, 0.0)

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
            generate_video(spec(motion=-2))
        with pytest.raises(ValueError, match="context_class"):
            generate_video(spec(context=-1))


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

    def test_empty_dataset(self, tmp_path):
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
