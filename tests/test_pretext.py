"""Loss oracles, sampler audits, and augmentation geometry.

The InfoNCE oracles below are brute-force double loops over plain numpy
vectors, sharing nothing with the tensor engine except the documented
epsilon-stabilized cosine (eps = 1e-8 added to each norm).
"""

import ctypes
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cmssl import tensor as T
from cmssl.codec import (
    CodecConfig,
    CompressedVideo,
    MotionField,
    decode_video,
    encode_video,
    extract_modalities,
    read_cmv1,
)
from cmssl import pretext as pretext_module
from cmssl.networks import ModelBundle, ModelConfig
from cmssl.pretext import (
    IFRAME_WINDOW_GOPS,
    AugmentParams,
    PretextConfig,
    VideoRecord,
    augment_frames,
    augment_mv,
    build_motion_target,
    collate,
    context_matching_loss,
    draw_augment_params,
    draw_sample_indices,
    joint_loss,
    load_videos,
    materialize_sample,
    motion_mse_loss,
    motion_prediction_loss,
    pool_mv_values,
    pretext_forward,
    resize_nn,
    sample_training_batch,
    valid_clip_start_range,
)
from cmssl.synthgen import SceneSpec, generate_dataset, generate_video, load_manifest, manifest_digest
from cmssl.tensor import Tensor

from conftest import TINY_MODEL, graph_nodes, repeat_then_subsample

EPS = 1e-8


def cos_oracle(a, b):
    return float(np.dot(a, b) / ((np.linalg.norm(a) + EPS) * (np.linalg.norm(b) + EPS)))


def context_loss_oracle(clip_embs, iframe_embs, tau):
    """Direct scalar evaluation: anchor clip i against all iframe candidates."""
    B = len(clip_embs)
    total = 0.0
    for i in range(B):
        num = math.exp(cos_oracle(iframe_embs[i], clip_embs[i]) / tau)
        den = sum(math.exp(cos_oracle(iframe_embs[k], clip_embs[i]) / tau) for k in range(B))
        total += math.log(num / den)
    return -total / B


def motion_loss_oracle(pred, truth, negatives, tau):
    """Brute force over all (i, j) anchors and (k, l) pool points.

    pred/truth: (B, C, N); negatives: (M, C, N) appended to the pool only."""
    B, _, N = pred.shape
    pool = [truth[k, :, l] for k in range(B) for l in range(N)]
    if negatives is not None:
        pool += [negatives[k, :, l] for k in range(negatives.shape[0]) for l in range(N)]
    total = 0.0
    for i in range(B):
        for j in range(N):
            anchor = pred[i, :, j]
            num = math.exp(cos_oracle(truth[i, :, j], anchor) / tau)
            den = sum(math.exp(cos_oracle(p, anchor) / tau) for p in pool)
            total += math.log(num / den)
    return -total / (B * N)


class TestContextLoss:
    def test_matches_oracle_on_random_batches(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            B = int(rng.integers(2, 5))
            clip = rng.normal(size=(B, 6))
            ifr = rng.normal(size=(B, 6))
            loss, _ = context_matching_loss(Tensor(clip), Tensor(ifr), tau=0.5)
            assert abs(loss.item() - context_loss_oracle(clip, ifr, 0.5)) < 1e-9

    def test_single_sample_is_zero(self):
        rng = np.random.default_rng(0)
        loss, _ = context_matching_loss(Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))), 0.1)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_embeddings_give_log_b(self):
        v = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        loss, _ = context_matching_loss(Tensor(v), Tensor(v), 0.1)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-9)

    def test_identity_cos_matrix_closed_form(self):
        # large norms make the epsilon stabilizer invisible at 1e-9
        z = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = context_matching_loss(Tensor(z), Tensor(z), tau=1.0)
        expected = -math.log(math.e / (math.e + 1.0))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            context_matching_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), 0.1)

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(1)
        clip = rng.normal(size=(5, 8))
        ifr = rng.normal(size=(5, 8))
        loss, _ = context_matching_loss(Tensor(clip), Tensor(ifr), 0.2)
        assert loss.item() >= 0.0
        perm = rng.permutation(5)
        loss_p, _ = context_matching_loss(Tensor(clip[perm]), Tensor(ifr[perm]), 0.2)
        assert abs(loss.item() - loss_p.item()) < 1e-12

    def test_strictly_decreases_when_positive_similarity_rises(self):
        rng = np.random.default_rng(2)
        clip = rng.normal(size=(4, 6))
        ifr = rng.normal(size=(4, 6))
        base = context_loss_oracle(clip, ifr, 0.3)
        # move one iframe embedding toward its clip: its positive cosine rises,
        # check via the scalar oracle that the loss strictly drops
        ifr2 = ifr.copy()
        ifr2[2] = ifr2[2] + 0.5 * (clip[2] / np.linalg.norm(clip[2]) * np.linalg.norm(ifr2[2]) - ifr2[2])
        assert cos_oracle(ifr2[2], clip[2]) > cos_oracle(ifr[2], clip[2])
        moved = context_loss_oracle(clip, ifr2, 0.3)
        loss, _ = context_matching_loss(Tensor(clip), Tensor(ifr2), 0.3)
        assert abs(loss.item() - moved) < 1e-9
        assert loss.item() < base or cos_oracle(ifr2[2], clip[2 - 1]) > 0  # strict drop expected
        assert moved < base


def point_rows(x):
    """(M, C, N) numpy -> Tensor (M * N, C): row m * N + n is sample m, point n,
    the rows `MlpHead.forward_points` gives the loss."""
    return Tensor(x.transpose(0, 2, 1).reshape(-1, x.shape[1]))


class TestMotionLoss:
    def test_matches_bruteforce_with_negatives(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            B, C, N = 2, 5, 6
            pred = rng.normal(size=(B, C, N))
            truth = rng.normal(size=(B, C, N))
            negs = rng.normal(size=(3, C, N))
            loss, _ = motion_prediction_loss(point_rows(pred), point_rows(truth), point_rows(negs), tau=0.4)
            assert abs(loss.item() - motion_loss_oracle(pred, truth, negs, 0.4)) < 1e-9

    def test_matches_bruteforce_without_negatives(self):
        rng = np.random.default_rng(7)
        pred = rng.normal(size=(4, 3, 8))
        truth = rng.normal(size=(4, 3, 8))
        loss, _ = motion_prediction_loss(point_rows(pred), point_rows(truth), None, tau=0.1)
        assert abs(loss.item() - motion_loss_oracle(pred, truth, None, 0.1)) < 1e-9

    def test_single_point_no_negatives_is_zero(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(1, 4, 1))
        loss, _ = motion_prediction_loss(point_rows(v), point_rows(v.copy()), None, 0.1)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_closed_form(self):
        # B*N = 4 mutually orthogonal points, prediction equals truth:
        # J_M = -log(e / (e + BN - 1))
        truth = (np.eye(4) * 100.0).reshape(2, 2, 4).transpose(0, 2, 1)  # (B=2, C=4, N=2)
        loss, _ = motion_prediction_loss(point_rows(truth), point_rows(truth.copy()), None, tau=1.0)
        expected = -math.log(math.e / (math.e + 3.0))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_adding_negatives_never_decreases_loss(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(2, 4, 5))
        truth = rng.normal(size=(2, 4, 5))
        base, _ = motion_prediction_loss(point_rows(pred), point_rows(truth), None, 0.2)
        for m in (1, 2, 3):
            negs = rng.normal(size=(m, 4, 5))
            bigger, _ = motion_prediction_loss(point_rows(pred), point_rows(truth), point_rows(negs), 0.2)
            assert bigger.item() >= base.item() - 1e-12

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            motion_prediction_loss(Tensor(np.ones((8, 3))), Tensor(np.ones((10, 3))), None, 0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        pred = rng.normal(size=(3, 4, 2))
        truth = rng.normal(size=(3, 4, 2))
        a, _ = motion_prediction_loss(point_rows(pred), point_rows(truth), None, 0.3)
        perm = rng.permutation(3)
        b, _ = motion_prediction_loss(point_rows(pred[perm]), point_rows(truth[perm]), None, 0.3)
        assert abs(a.item() - b.item()) < 1e-12


class TestLogitsContract:
    """The (P, Q) array each InfoNCE returns is the logits its loss read, so
    top-1 accuracies and hit rates can be taken from it by argmax: column j < P
    is positive j, column P + k negative row k, and [i, i] anchor i's own
    positive."""

    @staticmethod
    def check(loss, logits, anchors, pool, tau):
        P = len(anchors)
        want = np.array([[cos_oracle(a, p) / tau for p in pool] for a in anchors])
        assert logits.shape == want.shape
        np.testing.assert_allclose(logits, want, rtol=0, atol=1e-12)
        m = logits.max(axis=1)
        log_z = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        assert abs(loss.item() - np.mean(log_z - logits[np.arange(P), np.arange(P)])) < 1e-12

    def test_motion_logits_are_positives_then_negatives(self):
        rng = np.random.default_rng(13)
        pred, truth, negs = rng.normal(size=(6, 5)), rng.normal(size=(6, 5)), rng.normal(size=(4, 5))
        loss, logits = motion_prediction_loss(Tensor(pred), Tensor(truth), Tensor(negs), 0.3)
        self.check(loss, logits, pred, list(truth) + list(negs), 0.3)

    def test_context_logits(self):
        rng = np.random.default_rng(14)
        clip, ifr = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
        loss, logits = context_matching_loss(Tensor(clip), Tensor(ifr), 0.2)
        self.check(loss, logits, clip, list(ifr), 0.2)


class TestMseAndJoint:
    def test_mse_trivial_values(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 3, 2, 2))
        assert motion_mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0
        assert motion_mse_loss(Tensor(x + 1.0), Tensor(x)).item() == pytest.approx(1.0, abs=1e-12)

    def test_mse_matches_naive_sum(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        expected = sum((a.reshape(-1)[i] - b.reshape(-1)[i]) ** 2 for i in range(12)) / 12
        assert motion_mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(expected, abs=1e-12)

    def test_mse_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            motion_mse_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_joint_combination(self):
        j = joint_loss(Tensor(2.0), Tensor(4.0), 0.5)
        assert j.item() == pytest.approx(3.0, abs=1e-12)
        assert joint_loss(Tensor(2.0), None, 0.0).item() == 2.0
        assert joint_loss(None, Tensor(4.0), 1.0).item() == 4.0

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            PretextConfig(alpha=-0.1)

    @pytest.mark.parametrize("field, value, want", [
        ("alpha", np.nan, r"alpha must be in \[0, 1\]"),
        ("temperature", 0.0, "temperature must be positive and finite"),
        ("temperature", np.nan, "temperature must be positive and finite"),
        ("temperature", np.inf, "temperature must be positive and finite"),
        ("clip_stride", -1, "clip_stride must be a positive int, got -1"),
        ("clip_stride", 0, "clip_stride must be a positive int, got 0"),
        ("clip_stride", 1.5, "clip_stride must be a positive int, got 1.5"),
        ("hard_negative_count", -2, "hard_negative_count must be an int >= 0, got -2"),
        ("hard_negative_count", 2.0, "hard_negative_count must be an int >= 0, got 2.0"),
        ("blur_prob", -0.1, r"blur_prob must be in \[0, 1\]"),
        ("blur_prob", 1.5, r"blur_prob must be in \[0, 1\]"),
        ("blur_prob", np.nan, r"blur_prob must be in \[0, 1\]"),
        ("jitter_strength", -0.1, r"jitter_strength must be in \[0, 1\)"),
        ("jitter_strength", 1.0, r"jitter_strength must be in \[0, 1\)"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ])
    def test_config_rejects_what_it_would_mishandle(self, field, value, want):
        # a negative stride reversed each clip, a zero one froze it, a
        # negative count meant 0 and a nan temperature passed; a zero batch
        # size was reported as videos too short
        with pytest.raises(ValueError, match=want):
            if field == "batch_size":
                sample_training_batch([make_video_record()], value, ModelConfig(), PretextConfig(),
                                      np.random.default_rng(0))
            else:
                PretextConfig(**{field: value})

    def test_config_accepts_its_range_ends(self):
        for kwargs in ({"alpha": 0.0}, {"alpha": 1.0}, {"clip_stride": 1}, {"hard_negative_count": 0},
                       {"blur_prob": 0.0}, {"blur_prob": 1.0}, {"jitter_strength": 0.0},
                       {"clip_stride": np.int64(3)}, {"hard_negative_count": np.int64(0)}):
            PretextConfig(**kwargs)

    def test_pool_mv_values(self):
        mv = np.arange(2 * 2 * 4 * 4 * 4, dtype=np.float64).reshape(2, 2, 4, 4, 4)
        pooled = pool_mv_values(mv, (2, 2, 2, 2))
        assert pooled.shape == (2, 2, 2, 2, 2)
        np.testing.assert_allclose(pooled[0, 0, 0, 0, 0], mv[0, 0, :2, :2, :2].mean())


def make_encoded_record(seed=0, motion=0, frames=36):
    """(record, cv): a record as load_videos builds it for ModelConfig(),
    frames on the model raster and `cv` the motion field, and next to it the
    whole CompressedVideo, whose `decode_video` gives the full-resolution
    frames."""
    lv = generate_video(SceneSpec(context_class=0, motion_class=motion, seed=seed, frames=frames))
    cv = encode_video(lv.video, CodecConfig())
    size = ModelConfig().input_size
    record = VideoRecord(
        video_id=seed, frames=resize_nn(lv.video.frames, (size, size)), cv=cv.motion_field(),
        context_class=lv.context_class, motion_class=lv.motion_class, split="train",
    )
    return record, cv


def make_video_record(seed=0, motion=0, frames=36):
    """A record as load_videos builds it for ModelConfig()."""
    return make_encoded_record(seed, motion, frames)[0]


def draw_sample_indices_loop(n_frames, video_id, iframe_positions, gop_size, model_cfg, cfg, rng):
    """draw_sample_indices with its hard-negative candidates tested one start
    at a time, as a loop."""
    clip_len, horizon = model_cfg.clip_len, model_cfg.mv_len
    max_start = valid_clip_start_range(n_frames, clip_len, cfg.clip_stride, horizon)
    if max_start < 0:
        return None
    start = int(rng.integers(0, max_start + 1))
    clip_indices = start + cfg.clip_stride * np.arange(clip_len)
    clip_end = int(clip_indices[-1])
    lo = start - IFRAME_WINDOW_GOPS * gop_size
    hi = clip_end + IFRAME_WINDOW_GOPS * gop_size
    nearby = [t for t in iframe_positions if lo <= t <= hi]
    iframe_index = int(nearby[rng.integers(0, len(nearby))])
    mv_indices = build_motion_target(clip_indices, horizon, cfg)
    p_lo, p_hi = int(mv_indices[0]), int(mv_indices[-1])
    candidates = []
    for s in range(0, n_frames - horizon + 1):
        overlap = max(0, min(s + horizon - 1, p_hi) - max(s, p_lo) + 1)
        if overlap < horizon / 2.0:
            candidates.append(s)
    if not candidates:
        return None
    neg_starts = [int(candidates[rng.integers(0, len(candidates))]) for _ in range(cfg.hard_negative_count)]
    return start, clip_indices, iframe_index, mv_indices, neg_starts


class TestSampler:
    def test_draws_equal_the_per_start_loop(self):
        cases = skipped = 0
        for clip_len, stride, period in [
            (8, 2, "future"), (8, 1, "current"), (16, 1, "future"), (8, 3, "current"), (16, 1, "current"),
        ]:
            mcfg = ModelConfig(clip_len=clip_len)
            cfg = PretextConfig(clip_stride=stride, target_period=period)
            for n_frames in range(12, 50, 3):
                iframes = list(range(0, n_frames, 12))
                for seed in range(10):
                    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = draw_sample_indices(n_frames, 0, iframes, 12, mcfg, cfg, rng_a)
                    want = draw_sample_indices_loop(n_frames, 0, iframes, 12, mcfg, cfg, rng_b)
                    if want is None:
                        assert got is None
                        skipped += 1
                    else:
                        start, clip_indices, iframe_index, mv_indices, neg_starts = want
                        assert got.clip_indices[0] == start and got.iframe_index == iframe_index
                        assert got.negative_mv_starts == neg_starts
                        assert all(type(s) is int for s in got.negative_mv_starts)
                        np.testing.assert_array_equal(got.clip_indices, clip_indices)
                        np.testing.assert_array_equal(got.mv_indices, mv_indices)
                        # every frame the sample reads lies inside the video
                        windows = [got.clip_indices, [got.iframe_index], got.mv_indices]
                        windows += [s + np.arange(mcfg.mv_len) for s in got.negative_mv_starts]
                        read = np.concatenate(windows)
                        assert read.min() >= 0 and read.max() < n_frames, (n_frames, got)
                        cases += 1
                    assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)  # the same draws were made
        assert cases > 300 and skipped > 20, (cases, skipped)

    def test_clip_start_range_contract(self):
        # 36 frames, 16-frame window at stride 1, 8-frame horizon -> [0, 12]
        assert valid_clip_start_range(36, 16, 1, 8) == 12

    def test_start_range_exercised_and_bounded(self):
        cfg = PretextConfig(clip_stride=1)
        mcfg = ModelConfig(clip_len=16, mv_len=8)
        rng = np.random.default_rng(0)
        starts = set()
        for _ in range(300):
            idx = draw_sample_indices(36, 0, [0, 12, 24], 12, mcfg, cfg, rng)
            starts.add(int(idx.clip_indices[0]))
        assert min(starts) == 0 and max(starts) == 12

    def test_future_target_follows_clip(self):
        cfg = PretextConfig(clip_stride=1)
        idx = np.arange(0, 16)
        target = build_motion_target(idx, 8, cfg)
        np.testing.assert_array_equal(target, np.arange(16, 24))

    def test_current_target_rides_clip_window(self):
        cfg = PretextConfig(target_period="current", clip_stride=1)
        idx = np.arange(0, 16)
        target = build_motion_target(idx, 8, cfg)
        assert target.min() >= 0 and target.max() <= 15
        assert len(target) == 8

    def test_period_toggle_changes_only_target(self):
        mcfg = ModelConfig()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        a = draw_sample_indices(36, 0, [0, 12, 24], 12, mcfg, PretextConfig(), rng_a)
        b = draw_sample_indices(36, 0, [0, 12, 24], 12, mcfg, PretextConfig(target_period="current"), rng_b)
        np.testing.assert_array_equal(a.clip_indices, b.clip_indices)
        assert not np.array_equal(a.mv_indices, b.mv_indices)

    def test_negative_windows_overlap_below_half(self):
        cfg = PretextConfig()
        mcfg = ModelConfig()
        rng = np.random.default_rng(1)
        horizon = mcfg.mv_len
        for _ in range(1000):
            idx = draw_sample_indices(36, 0, [0, 12, 24], 12, mcfg, cfg, rng)
            p_lo, p_hi = idx.mv_indices[0], idx.mv_indices[-1]
            for s in idx.negative_mv_starts:
                overlap = max(0, min(s + horizon - 1, p_hi) - max(s, p_lo) + 1)
                assert overlap < horizon / 2
                assert s != p_lo  # never the identical window

    def test_iframe_within_one_gop_of_clip(self):
        cfg = PretextConfig()
        mcfg = ModelConfig()
        rng = np.random.default_rng(2)
        for _ in range(200):
            idx = draw_sample_indices(36, 0, [0, 12, 24], 12, mcfg, cfg, rng)
            assert idx.clip_indices[0] - 12 <= idx.iframe_index <= idx.clip_indices[-1] + 12

    @pytest.mark.xfail(strict=True, reason="hard-negative starts are drawn with replacement (ROADMAP 3(c)); "
                       "drawing them without moves perfbench's gate losses, so it waits for ROADMAP item 4")
    def test_hard_negative_starts_distinct(self):
        # the draw of a 36-frame video (seed 8, motion 2) from default_rng(3): starts [3, 5, 3]
        idx = draw_sample_indices(36, 8, [0, 12, 24], 12, ModelConfig(), PretextConfig(), np.random.default_rng(3))
        assert len(set(idx.negative_mv_starts)) == len(idx.negative_mv_starts), idx.negative_mv_starts

    def test_too_short_video_skipped_with_warning(self):
        videos = [make_video_record(seed=0, frames=36), make_video_record(seed=1, frames=36)]
        videos[1].frames = videos[1].frames[:10]
        cfg = PretextConfig()
        # B=4 from a pool of 2 draws each video twice; both draws of the short one are skipped
        with pytest.warns(UserWarning, match="too short"):
            batch = sample_training_batch(videos, 4, ModelConfig(), cfg, np.random.default_rng(0))
        assert len(batch) == 2 and all(s.video_id == 0 for s in batch)

    def test_fixed_seed_reproducible(self):
        videos = [make_video_record(seed=s) for s in range(3)]
        cfg = PretextConfig()
        a = sample_training_batch(videos, 4, ModelConfig(), cfg, np.random.default_rng(42))
        b = sample_training_batch(videos, 4, ModelConfig(), cfg, np.random.default_rng(42))
        for sa, sb in zip(a, b):
            assert sa.video_id == sb.video_id
            np.testing.assert_array_equal(sa.clip, sb.clip)
            np.testing.assert_array_equal(sa.future_mv, sb.future_mv)

    def test_collated_batch_is_float32(self):
        videos = [make_video_record(seed=s, motion=s % 4) for s in range(3)]
        batch = collate(sample_training_batch(videos, 4, ModelConfig(), PretextConfig(), np.random.default_rng(1)))
        assert {k: v.dtype for k, v in batch.items() if k != "video_ids"} == dict.fromkeys(
            ("clip", "iframe", "mv", "neg_mv"), np.dtype(np.float32)
        )
        assert batch["video_ids"].dtype.kind == "i"


class TestAugment:
    def test_identity_draw_leaves_sample_unchanged(self):
        rng = np.random.default_rng(3)
        identity = AugmentParams(crop=(0, 0, 32), flip=False, blur_sigma=0.0, brightness=1.0, contrast=1.0)
        frames = rng.random(size=(4, 32, 32, 3))
        out = augment_frames(frames, identity, 32)
        np.testing.assert_array_equal(out, frames)
        mv = rng.normal(size=(2, 4, 32, 32))
        out = augment_mv(mv, identity, 32)
        np.testing.assert_array_equal(out, mv)
        assert not np.shares_memory(out, mv)

    def test_flip_negates_dx_only(self):
        rng = np.random.default_rng(4)
        mv = rng.normal(size=(2, 3, 16, 16))
        params = AugmentParams(crop=(0, 0, 16), flip=True, blur_sigma=0.0, brightness=1.0, contrast=1.0)
        out = augment_mv(mv, params, 16)
        np.testing.assert_allclose(out[0], -mv[0][..., ::-1])
        np.testing.assert_allclose(out[1], mv[1][..., ::-1])

    def test_crop_rescales_mv_values(self):
        mv = np.ones((2, 2, 32, 32))
        params = AugmentParams(crop=(0, 0, 16), flip=False, blur_sigma=0.0, brightness=1.0, contrast=1.0)
        out = augment_mv(mv, params, 32)
        np.testing.assert_allclose(out, 2.0)  # 16 -> 32 upscale doubles offsets
        # a crop resized to 24: output pixel (y, x) reads crop pixel (y*20//24, x*20//24)
        mv = np.random.default_rng(9).normal(size=(2, 3, 32, 32))
        out = augment_mv(mv, AugmentParams((5, 9, 20), False, 0.0, 1.0, 1.0), 24)
        src = np.arange(24) * 20 // 24
        np.testing.assert_array_equal(out, mv[..., 5 + src[:, None], 9 + src[None, :]] * (24 / 20))

    def test_crop_larger_than_frame_rejected(self):
        with pytest.raises(ValueError, match="crop"):
            augment_frames(np.zeros((2, 16, 16, 3)), AugmentParams((0, 0, 24), False, 0.0, 1.0, 1.0), 16)

    def test_positive_mv_shares_clip_crop_and_flip(self):
        video = make_video_record(seed=5, motion=1)
        cfg = PretextConfig(blur_prob=0.0, jitter_strength=0.0)
        mcfg = ModelConfig()
        rng = np.random.default_rng(6)
        idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg, rng)
        rng_replay = np.random.default_rng(7)
        sample = materialize_sample(video, idx, mcfg, cfg, rng=rng_replay, train=True)
        # rebuild without augmentation, re-apply the same draw manually in float64
        plain = materialize_sample(video, idx, mcfg, cfg, train=False)
        plain_mv = extract_modalities(video.cv, idx.mv_indices, out_size=(32, 32)).transpose(1, 0, 2, 3)
        plain_mv = plain_mv / video.cv.config.search_range
        params_rng = np.random.default_rng(7)
        clip_params = draw_augment_params(32, cfg, params_rng)
        clip64 = plain.clip.astype(np.float64).transpose(1, 2, 3, 0)
        expect_clip = augment_frames(clip64, clip_params, 32).transpose(3, 0, 1, 2)
        expect_mv = augment_mv(plain_mv.astype(np.float64), clip_params, 32)
        np.testing.assert_allclose(sample.clip, expect_clip, rtol=0, atol=2e-6)
        np.testing.assert_allclose(sample.future_mv, expect_mv, rtol=1e-6, atol=0)

    def test_train_sample_windows_match_extraction(self):
        """The positive window comes first and each hard negative follows in
        the order drawn: the sample is each window extracted on its own and
        augmented with the sample's replayed draw, bit for bit."""
        video = make_video_record(seed=8, motion=2)
        mcfg, cfg = ModelConfig(), PretextConfig()
        idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg,
                                  np.random.default_rng(4))
        assert len(set(idx.negative_mv_starts)) == 3  # distinct, so their order shows
        sample = materialize_sample(video, idx, mcfg, cfg, rng=np.random.default_rng(5), train=True)
        prng = np.random.default_rng(5)
        clip_p, _ = draw_augment_params(32, cfg, prng), draw_augment_params(32, cfg, prng)
        neg_p = [draw_augment_params(32, cfg, prng) for _ in idx.negative_mv_starts]
        sr = video.cv.config.search_range

        def window(frames, params):
            maps = extract_modalities(video.cv, frames, out_size=(32, 32)).transpose(1, 0, 2, 3)
            return augment_mv(maps, params, 32) / sr

        np.testing.assert_array_equal(sample.future_mv, window(idx.mv_indices, clip_p))
        assert len(sample.hard_negative_mvs) == len(idx.negative_mv_starts) == 3
        for got, s, p in zip(sample.hard_negative_mvs, idx.negative_mv_starts, neg_p):
            np.testing.assert_array_equal(got, window(np.arange(s, s + mcfg.mv_len), p))

    def test_uint8_over_255_in_float32_is_float64_rounded(self):
        u = np.arange(256, dtype=np.uint8)
        got = np.divide(u, 255, dtype=np.float32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), (u / 255.0).astype(np.float32).view(np.uint32))

    def test_eval_sample_is_the_float64_sample_rounded(self):
        """An eval sample is its clip alone, the float64 clip rounded bit for
        bit; it holds no I-frame and no motion window."""
        video, cv = make_encoded_record(seed=3, motion=3)
        full = decode_video(cv).frames  # 64x64, resized here on its own
        mcfg, cfg = ModelConfig(), PretextConfig()
        for seed in range(4):
            idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg,
                                      np.random.default_rng(seed))
            sample = materialize_sample(video, idx, mcfg, cfg, train=False)
            clip64 = resize_nn(full[idx.clip_indices], (32, 32)).transpose(3, 0, 1, 2) / 255.0
            assert sample.clip.dtype == np.float32 and sample.clip.flags.c_contiguous
            np.testing.assert_array_equal(sample.clip.view(np.uint32), clip64.astype(np.float32).view(np.uint32))
            assert sample.video_id == video.video_id
            assert sample.iframe is sample.future_mv is sample.hard_negative_mvs is None

    def test_train_sample_tracks_float64_oracle(self):
        """Every augmentation in float64 from the uint8 frames and the codec's
        MV grids; the float32 sample stays within float32 rounding of it."""
        video, cv = make_encoded_record(seed=5, motion=1)
        full = decode_video(cv).frames  # 64x64, resized here on its own
        mcfg, cfg = ModelConfig(), PretextConfig()
        sr, horizon = video.cv.config.search_range, mcfg.mv_len
        drawn = []
        for seed in range(8):
            idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg,
                                      np.random.default_rng(seed))
            sample = materialize_sample(video, idx, mcfg, cfg, rng=np.random.default_rng(100 + seed), train=True)
            prng = np.random.default_rng(100 + seed)
            clip_p, iframe_p = draw_augment_params(32, cfg, prng), draw_augment_params(32, cfg, prng)
            neg_p = [draw_augment_params(32, cfg, prng) for _ in idx.negative_mv_starts]
            drawn += [clip_p, iframe_p] + neg_p

            clip64 = augment_frames(resize_nn(full[idx.clip_indices], (32, 32)) / 255.0, clip_p, 32)
            iframe64 = augment_frames(resize_nn(full[idx.iframe_index], (32, 32)) / 255.0, iframe_p, 32)

            def mv64(frames, params):
                maps = repeat_then_subsample(video.cv, frames, (32, 32)).transpose(1, 0, 2, 3)
                return augment_mv(maps, params, 32) / sr

            assert {a.dtype for a in (sample.clip, sample.iframe, sample.future_mv, sample.hard_negative_mvs)} == {
                np.dtype(np.float32)
            }
            np.testing.assert_allclose(sample.clip, clip64.transpose(3, 0, 1, 2), rtol=0, atol=2e-6)
            np.testing.assert_allclose(sample.iframe, iframe64.transpose(2, 0, 1), rtol=0, atol=2e-6)
            np.testing.assert_allclose(sample.future_mv, mv64(idx.mv_indices, clip_p), rtol=1e-6, atol=0)
            for got, s, p in zip(sample.hard_negative_mvs, idx.negative_mv_starts, neg_p):
                np.testing.assert_allclose(got, mv64(s + np.arange(horizon), p), rtol=1e-6, atol=0)
        # the draws exercised every augmentation
        assert any(p.flip for p in drawn) and any(p.blur_sigma for p in drawn)
        assert any(p.crop[2] < 32 for p in drawn)

    def test_blur_preserves_mean_roughly(self):
        rng = np.random.default_rng(8)
        frames = rng.random(size=(2, 16, 16, 3))
        params = AugmentParams((0, 0, 16), False, 0.8, 1.0, 1.0)
        out = augment_frames(frames, params, 16)
        assert abs(out.mean() - frames.mean()) < 0.02


class TestPretextForward:
    @pytest.fixture(scope="class")
    def batch(self):
        videos = [make_video_record(seed=s, motion=s % 4) for s in range(4)]
        cfg = PretextConfig()
        samples = sample_training_batch(videos, 4, ModelConfig(), cfg, np.random.default_rng(0))
        return collate(samples)

    def test_joint_mode_all_components_touched(self, batch):
        bundle = ModelBundle(seed=0)
        bundle.zero_grads()
        out = pretext_forward(bundle, batch, PretextConfig())
        assert np.isfinite(out.loss.item())
        assert out.j_i.item() >= 0 and out.j_m.item() >= 0
        out.loss.backward()
        assert bundle.zero_grad_fraction() < 0.01

    def test_context_only_skips_motion(self, batch):
        bundle = ModelBundle(seed=1)
        out = pretext_forward(bundle, batch, PretextConfig(alpha=0.0))
        assert out.j_m is None
        assert out.loss.item() == out.j_i.item()

    def test_motion_only_skips_context(self, batch):
        bundle = ModelBundle(seed=2)
        out = pretext_forward(bundle, batch, PretextConfig(alpha=1.0))
        assert out.j_i is None
        assert out.loss.item() == out.j_m.item()

    def test_mse_variant_runs_without_m_net(self, batch):
        bundle = ModelBundle(seed=3)
        bundle.zero_grads()
        out = pretext_forward(bundle, batch, PretextConfig(motion_loss="mse"))
        out.loss.backward()
        assert np.isfinite(out.j_m.item())
        # the m-net target path is bypassed in mse mode
        m_kernel = bundle.m_net.layers[0][0]
        assert np.all(m_kernel.grad == 0)

    def test_every_parameter_learns(self):
        # TINY_MODEL would not do: its one decoder query leaves dec0's
        # self-attention q and k with exactly zero gradient
        videos = [make_video_record(seed=s, motion=s % 4) for s in range(2)]
        largest = {}
        for mode in ("pointwise_infonce", "mse"):
            cfg = PretextConfig(motion_loss=mode)
            batch = collate(sample_training_batch(videos, 2, ModelConfig(), cfg, np.random.default_rng(0)))
            bundle = ModelBundle(seed=0, dtype=np.float64)
            pretext_forward(bundle, batch, cfg).loss.backward()
            for name, p in bundle.params().items():
                largest[name] = max(largest.get(name, 0.0), np.abs(p.grad).max())
        assert not [name for name, g in largest.items() if g <= 1e-12]

    def test_logits_shapes(self, batch):
        bundle = ModelBundle(seed=4)
        out = pretext_forward(bundle, batch, PretextConfig())
        assert out.context_logits.shape == (4, 4)
        n = math.prod(bundle.config.motion_feat_shape[1:])
        assert out.motion_logits.shape == (4 * n, 4 * n + 12 * n)


class TestManifest:
    @staticmethod
    def dataset_with(tmp_path, **changes):
        """A two-video dataset whose second manifest record gets `changes`
        (a value of None deletes the key)."""
        generate_dataset(tmp_path, n_videos=2, k_context=2, k_motion=1, frames=13, seed=0)
        manifest = tmp_path / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        for key, value in changes.items():
            if value is None:
                del records[1][key]
            else:
                records[1][key] = value
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        return tmp_path

    def test_unchanged_dataset_loads(self, tmp_path):
        videos = load_videos(self.dataset_with(tmp_path))
        assert [(v.video_id, v.context_class) for v in videos] == [(0, 0), (1, 1)]

    def test_each_video_validated_once(self, tmp_path, monkeypatch):
        d = self.dataset_with(tmp_path)
        checked = []
        check = CompressedVideo.__post_init__

        def counting(cv):
            checked.append(cv.frame_count)
            check(cv)

        monkeypatch.setattr(CompressedVideo, "__post_init__", counting)
        videos = load_videos(d)
        # read_cmv1 checks the whole video once; the record's motion field
        # shares the checked MVs and is not checked again
        assert [v.frames.shape[0] for v in videos] == [13, 13]
        assert checked == [13, 13]

    def test_missing_cmv1_file_named(self, tmp_path):
        d = self.dataset_with(tmp_path, path="gone.cmv1")
        with pytest.raises(ValueError, match=r"manifest.jsonl record 1: CMV1 file .*gone.cmv1 does not exist"):
            load_videos(d)

    def test_missing_key_named(self, tmp_path):
        d = self.dataset_with(tmp_path, motion_class=None)
        with pytest.raises(ValueError, match=r"manifest.jsonl record 1: missing key\(s\) motion_class"):
            load_videos(d)

    @pytest.mark.parametrize(
        "path, what",
        [("", "is not a file"), (".", "is not a file"), ("sub", "is not a file"), ("a\0b.cmv1", "holds a null byte")],
        ids=["empty", "dot", "subdirectory", "null_byte"],
    )
    def test_path_not_a_file_named(self, tmp_path, path, what):
        (tmp_path / "sub").mkdir()
        d = self.dataset_with(tmp_path, path=path)
        named = f"path {path!r}" if "\0" in path else f"CMV1 file {d / path}"
        want = rf"manifest.jsonl record 1: {re.escape(named)} {what}$"
        for load in (load_videos, manifest_digest):
            with pytest.raises(ValueError, match=want):
                load(d)

    @pytest.mark.parametrize("bad", [-1, 1.0, "1", True])
    def test_class_id_not_a_non_negative_int_named(self, tmp_path, bad):
        d = self.dataset_with(tmp_path, context_class=bad)
        want = rf"manifest.jsonl record 1 \(.*video_00001.cmv1\): context_class {bad!r} is not a non-negative int"
        with pytest.raises(ValueError, match=want):
            load_videos(d)

    @pytest.mark.parametrize("bad", ["val", "Train", "", 1])
    def test_unknown_split_value_named(self, tmp_path, bad):
        d = self.dataset_with(tmp_path, split=bad)
        want = rf"manifest.jsonl record 1 \(.*video_00001.cmv1\): split {re.escape(repr(bad))} is not one of"
        for load in (load_videos, manifest_digest):
            with pytest.raises(ValueError, match=want):
                load(d)

    def test_unknown_split_argument_rejected(self, tmp_path):
        d = self.dataset_with(tmp_path)
        with pytest.raises(ValueError, match=r"unknown split 'tain', expected one of \('train', 'test'\) or None"):
            load_videos(d, split="tain")
        assert [v.split for v in load_videos(d, split="train")] == ["train", "train"]
        assert load_videos(d, split="test") == []


def reachable_arrays(obj) -> list:
    """Every ndarray reachable from obj through instance attributes, lists,
    tuples and dicts, each counted once by the array that owns its memory."""
    seen, owners, todo = set(), {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.extend(vars(o).values())
    return list(owners.values())


class TestMotionFieldRecords:
    """load_videos keeps only the motion field of each compressed video, and
    sampling needs no more."""

    def test_records_hold_the_motion_field(self, tmp_path):
        generate_dataset(tmp_path, n_videos=2, k_context=2, k_motion=1, frames=13, resolution=(32, 32), seed=1)
        videos = load_videos(tmp_path)
        assert len(videos) == 2
        for v, rec in zip(videos, load_manifest(tmp_path)):
            full = read_cmv1(tmp_path / rec["path"])
            assert isinstance(v.cv, MotionField)
            np.testing.assert_array_equal(v.frames, decode_video(full).frames)
            np.testing.assert_array_equal(v.cv.mvs, full.mvs)
            assert v.cv.config == full.config
            assert (v.cv.frame_count, v.cv.height, v.cv.width) == (full.frame_count, full.height, full.width)

    @pytest.fixture(scope="class")
    def dataset64(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("raster64")
        generate_dataset(d, n_videos=2, k_context=2, k_motion=1, frames=13, resolution=(64, 64), seed=1)
        return d

    def test_record_holds_only_frames_and_mvs(self, dataset64):
        """The arrays reachable from a record of a 64x64 video are its
        model-raster frames and its MV grids: no I-frame and no residual."""
        s = ModelConfig().input_size
        videos = load_videos(dataset64)
        assert len(videos) == 2
        for v, rec in zip(videos, load_manifest(dataset64)):
            t, h, w, b = v.cv.frame_count, v.cv.height, v.cv.width, v.cv.config.block_size
            p = t - len(v.cv.iframe_indices())
            assert (h, w, p) == (64, 64, 11)
            assert sum(a.nbytes for a in reachable_arrays(v)) == t * s * s * 3 + p * (h // b) * (w // b) * 2 * 2
            for obj in (v, v.cv):
                assert not hasattr(obj, "iframes") and not hasattr(obj, "residuals")
            # the walk does see what a record holding the whole video would keep
            full = read_cmv1(dataset64 / rec["path"])
            whole = dataclasses.replace(v, cv=full)
            extra = full.iframes.nbytes + full.residuals.nbytes
            assert sum(a.nbytes for a in reachable_arrays(whole)) == sum(a.nbytes for a in reachable_arrays(v)) + extra

    @pytest.mark.parametrize("mcfg", [None, TINY_MODEL], ids=["default", "tiny"])
    def test_records_sit_on_the_model_raster(self, dataset64, mcfg):
        """64x64 videos, so the resize to the model raster is not the identity."""
        s = (mcfg or ModelConfig()).input_size
        videos = load_videos(dataset64, model_cfg=mcfg)
        assert len(videos) == 2
        for v, rec in zip(videos, load_manifest(dataset64)):
            full = read_cmv1(dataset64 / rec["path"])
            assert (full.height, full.width) == (64, 64) and s < 64
            np.testing.assert_array_equal(v.frames, resize_nn(decode_video(full).frames, (s, s)))
            assert v.frames.dtype == np.uint8 and v.frames.nbytes == full.frame_count * s * s * 3
            np.testing.assert_array_equal(v.cv.mvs, full.mvs)

    def test_record_off_the_model_raster_rejected(self):
        video, cv = make_encoded_record(seed=4)  # frames 32x32, ModelConfig()'s raster
        cfg = PretextConfig()
        full_res = dataclasses.replace(video, frames=decode_video(cv).frames)
        for v, mcfg, want in (
            (video, TINY_MODEL, r"video 4: frames \(36, 32, 32, 3\) are not on the model raster of input_size 8"),
            (full_res, ModelConfig(), r"video 4: frames \(36, 64, 64, 3\) are not on the model raster of input_size 32"),
        ):
            idx = draw_sample_indices(36, 4, video.cv.iframe_indices(), 12, mcfg, cfg, np.random.default_rng(0))
            with pytest.raises(ValueError, match=want):
                materialize_sample(v, idx, mcfg, cfg, train=False)
            with pytest.raises(ValueError, match=want):
                sample_training_batch([v], 1, mcfg, cfg, np.random.default_rng(0))

    @pytest.fixture(scope="class")
    def loaded_and_rendered(self, tmp_path_factory):
        """Each record load_videos reads from a 64x64 dataset, and the same
        video rendered from its manifest spec and encoded in memory, built as
        make_encoded_record builds it."""
        d = tmp_path_factory.mktemp("rendered")
        generate_dataset(d, n_videos=4, k_context=2, k_motion=2, frames=36, resolution=(64, 64), seed=2)
        s = ModelConfig().input_size
        rendered = []
        for i, rec in enumerate(load_manifest(d)):
            spec = SceneSpec(rec["context_class"], rec["motion_class"], rec["seed"], rec["frames"], rec["H"], rec["W"])
            lv = generate_video(spec)
            rendered.append(VideoRecord(
                video_id=i, frames=resize_nn(lv.video.frames, (s, s)), cv=encode_video(lv.video).motion_field(),
                context_class=rec["context_class"], motion_class=rec["motion_class"], split=rec["split"],
            ))
        return load_videos(d), rendered

    @staticmethod
    def assert_same_sample(got, want, names=("clip", "iframe", "future_mv", "hard_negative_mvs")):
        for name in names:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.float32, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_loaded_samples_bit_identical_to_the_rendered_video(self, loaded_and_rendered, train):
        mcfg, cfg = ModelConfig(), PretextConfig()
        for seed, pair in enumerate(zip(*loaded_and_rendered)):
            got, want = (
                materialize_sample(
                    v, draw_sample_indices(36, v.video_id, v.cv.iframe_indices(), 12, mcfg, cfg, rng),
                    mcfg, cfg, rng=rng, train=train,
                )
                for v, rng in zip(pair, (np.random.default_rng(seed), np.random.default_rng(seed)))
            )
            if train:
                self.assert_same_sample(got, want)
            else:  # an eval sample holds its clip alone
                self.assert_same_sample(got, want, names=("clip",))

    def test_loaded_batches_bit_identical_to_the_rendered_videos(self, loaded_and_rendered):
        mcfg, cfg = ModelConfig(), PretextConfig()
        got, want = (sample_training_batch(pool, 3, mcfg, cfg, np.random.default_rng(7)) for pool in loaded_and_rendered)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert a.video_id == b.video_id
            self.assert_same_sample(a, b)


class TestEvalSamples:
    """An eval sample is its clip: it builds, holds and collates nothing else,
    and the paths that need more fail before they do any work."""

    @pytest.fixture(scope="class")
    def videos(self):
        return [make_video_record(seed=s, motion=s % 4) for s in range(3)]

    @staticmethod
    def eval_sample(video, seed=0):
        mcfg, cfg = ModelConfig(), PretextConfig()
        idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg,
                                  np.random.default_rng(seed))
        return materialize_sample(video, idx, mcfg, cfg, train=False)

    def test_eval_sample_holds_exactly_its_clip(self, videos):
        mcfg = ModelConfig()
        t, s = mcfg.clip_len, mcfg.input_size
        for seed, v in enumerate(videos):
            sample = self.eval_sample(v, seed)
            assert sum(a.nbytes for a in reachable_arrays(sample)) == 3 * t * s * s * 4
            assert sample.clip.shape == (3, t, s, s) and sample.clip.flags.c_contiguous

    def test_eval_batch_is_clip_and_ids(self, videos):
        samples = [self.eval_sample(v, seed) for seed, v in enumerate(videos)]
        batch = collate(samples)
        assert set(batch) == {"clip", "video_ids"}
        assert batch["clip"].dtype == np.float32 and batch["clip"].flags.c_contiguous
        np.testing.assert_array_equal(batch["clip"], np.stack([x.clip for x in samples]))
        assert batch["video_ids"].tolist() == [v.video_id for v in videos]

    def test_eval_sample_extracts_no_motion(self, videos, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("an eval sample read motion maps")

        monkeypatch.setattr(pretext_module, "extract_modalities", unread)
        monkeypatch.setattr(pretext_module, "augment_frames", unread)
        monkeypatch.setattr(pretext_module, "augment_mv", unread)
        self.eval_sample(videos[0])

    def test_train_without_rng_fails_before_reading(self, videos, monkeypatch):
        class CountedReads(np.ndarray):
            reads = 0

            def __getitem__(self, key):
                type(self).reads += 1
                return super().__getitem__(key)

        extracted = []
        monkeypatch.setattr(pretext_module, "extract_modalities", lambda *a, **k: extracted.append(a))
        video = dataclasses.replace(videos[0], frames=videos[0].frames.view(CountedReads))
        mcfg, cfg = ModelConfig(), PretextConfig()
        idx = draw_sample_indices(36, video.video_id, video.cv.iframe_indices(), 12, mcfg, cfg,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError, match="training-mode materialization needs an rng"):
            materialize_sample(video, idx, mcfg, cfg)
        assert CountedReads.reads == 0 and extracted == []

    def test_collate_rejects_empty_and_mixed_lists(self, videos):
        with pytest.raises(ValueError, match="collate needs at least one sample"):
            collate([])
        train = sample_training_batch(videos, 2, ModelConfig(), PretextConfig(), np.random.default_rng(0))
        evals = [self.eval_sample(v) for v in videos]
        for mixed in (train + evals[:1], evals + train[:1]):
            with pytest.raises(ValueError, match="eval and .* training samples; a batch holds one kind"):
                collate(mixed)

    def test_pretext_forward_rejects_an_eval_batch(self, videos):
        batch = collate([self.eval_sample(v) for v in videos])
        with pytest.raises(ValueError, match="the batch holds eval samples"):
            pretext_forward(ModelBundle(seed=0), batch, PretextConfig())


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


class TestResidentHeap:
    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_warm_step_faults_almost_no_pages(self):
        resource = pytest.importorskip("resource")
        videos = [make_video_record(seed=s, motion=s % 4) for s in range(8)]
        cfg = PretextConfig()
        batch = collate(sample_training_batch(videos, 8, ModelConfig(), cfg, np.random.default_rng(0)))
        bundle = ModelBundle(seed=0)

        def step():
            bundle.zero_grads()
            pretext_forward(bundle, batch, cfg).loss.backward()

        step()  # grows the heap to one step's working set
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        # with glibc's default trimming a warm step faults 1.4k to 4k pages
        # back in; the bound is about a tenth of that, for each step
        assert max(faults) < 280, f"minor page faults in each warmed-up B=8 step: {faults}"


class TestFloat32Step:
    @pytest.fixture(scope="class")
    def batches(self):
        videos = [make_video_record(seed=s, motion=s % 4) for s in range(8)]
        return {
            mode: collate(sample_training_batch(videos, 8, ModelConfig(), PretextConfig(motion_loss=mode),
                                                np.random.default_rng(0)))
            for mode in ("pointwise_infonce", "mse")
        }

    @staticmethod
    def step(batch, mode, **bundle_kw):
        bundle = ModelBundle(seed=0, **bundle_kw)
        out = pretext_forward(bundle, batch, PretextConfig(motion_loss=mode))
        nodes = graph_nodes(out.loss)
        out.loss.backward()
        return bundle, out.loss, nodes

    @pytest.mark.parametrize("mode", ["pointwise_infonce", "mse"])
    def test_default_bundle_runs_in_float32(self, batches, mode, grad_dtypes):
        bundle, _, nodes = self.step(batches[mode], mode)
        assert grad_dtypes == {np.dtype(np.float32)}
        assert {n.dtype for n in nodes} == {np.dtype(np.float32)}
        assert {p.grad.dtype for p in bundle.params().values()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("mode", ["pointwise_infonce", "mse"])
    def test_no_backward_closure_holds_a_tensor(self, batches, mode):
        # a closure holds parent nodes and the arrays its backward reads; a
        # Tensor in it would keep that Tensor's array alive until the step ends
        out = pretext_forward(ModelBundle(seed=0), batches[mode], PretextConfig(motion_loss=mode))
        closures = [n._backward for n in graph_nodes(out.loss) if n._backward is not None]
        assert len(closures) > 300
        held = [c.cell_contents for fn in closures for c in fn.__closure__ or ()]
        held += [v for h in held if isinstance(h, (list, tuple)) for v in h]
        assert not [h for h in held if isinstance(h, Tensor)]

    @staticmethod
    def largest_patch_chunk_bytes(loss) -> int:
        """The bytes of the largest im2col matrix, (cin*prod(ksp),
        n*prod(out_sp)) for a chunk of n samples, that a convolution of loss's
        graph builds."""
        sizes = [0]
        for n in graph_nodes(loss):
            if n.op in ("conv2d", "conv3d"):
                kernel = n._parents[1]
                per_sample = int(np.prod(kernel.shape[1:])) * int(np.prod(n.shape[2:])) * n.dtype.itemsize
                sizes += [(hi - lo) * per_sample for lo, hi in T._sample_chunks(n.shape[0], per_sample, T._PATCH_CHUNK_BYTES)]
        return max(sizes)

    def test_backward_frees_the_graph_as_it_walks(self, batches):
        # each closure is dropped once it has run, so what it read is freed
        # during the walk; a graph kept until the loss is dropped peaked 20%
        # above the forward's live memory and kept all of it after backward.
        # A conv holds its input, not its patch matrix, and its kernel
        # gradient rebuilds the matrix one chunk of samples at a time: a
        # transient of backward, at most _PATCH_CHUNK_BYTES. The ceilings fail
        # a graph that holds the patch matrices (70.7 MiB live after the
        # forward) and a rebuild in one piece (peak 40.6 MiB).
        bundle = ModelBundle(seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = pretext_forward(bundle, batches["pointwise_infonce"], PretextConfig())
            after_forward = tracemalloc.get_traced_memory()[0] - base
            chunk = self.largest_patch_chunk_bytes(out.loss)
            tracemalloc.reset_peak()
            out.loss.backward()
            after_backward, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        mib = 2.0 ** 20
        # v_net's first and second convs, 4 and 2 clips a chunk
        assert chunk == 432 * 2 * 4 * 16 * 16 * 4 <= T._PATCH_CHUNK_BYTES
        assert peak <= 1.05 * after_forward + chunk, (
            f"peak {peak / mib:.1f} MiB, {after_forward / mib:.1f} after forward, {chunk / mib:.1f} of patches"
        )
        assert after_forward <= 40 * mib, f"{after_forward / mib:.1f} MiB live after forward"
        assert peak <= 40 * mib, f"peak {peak / mib:.1f} MiB"
        assert after_backward < 0.05 * after_forward, f"{after_backward / mib:.1f} MiB live with out still held"

    def test_grads_do_not_depend_on_which_tensors_the_caller_holds(self, batches, monkeypatch):
        def grads():
            bundle = ModelBundle(seed=0)
            pretext_forward(bundle, batches["pointwise_infonce"], PretextConfig()).loss.backward()
            return {name: p.grad for name, p in bundle.params().items()}

        freed = grads()
        held, make = [], T._make
        monkeypatch.setattr(T, "_make", lambda *args: held.append(make(*args)) or held[-1])
        kept = grads()
        assert len(held) > 300  # every op output of the step stays alive
        assert kept.keys() == freed.keys()
        for name, g in freed.items():
            assert g.dtype == kept[name].dtype == np.float32, name
            np.testing.assert_array_equal(g.view(np.int32), kept[name].view(np.int32), err_msg=name)

    @pytest.mark.parametrize("mode", ["pointwise_infonce", "mse"])
    def test_float32_step_tracks_float64(self, batches, mode):
        b32, loss32, _ = self.step(batches[mode], mode, dtype=np.float32)
        b64, loss64, _ = self.step(batches[mode], mode, dtype=np.float64)
        assert abs(loss32.item() - loss64.item()) <= 1e-6 * abs(loss64.item())
        g64 = {name: p.grad for name, p in b64.params().items()}
        for name, p in b32.params().items():
            scale = np.abs(g64[name]).max()
            err = np.abs(p.grad.astype(np.float64) - g64[name]).max()
            assert err <= 1e-4 * scale, f"{name}: {err:.3e} against max |grad| {scale:.3e}"


class TestEndToEndGradients:
    def test_joint_loss_fd_check_tiny_widths(self):
        cfg = PretextConfig(hard_negative_count=1)
        rng = np.random.default_rng(0)
        B = 2
        batch = {
            "clip": rng.normal(size=(B, 3, 4, 8, 8)) * 0.5,
            "iframe": rng.normal(size=(B, 3, 8, 8)) * 0.5,
            "mv": rng.normal(size=(B, 2, 4, 8, 8)) * 0.5,
            "neg_mv": rng.normal(size=(B, 2, 4, 8, 8)) * 0.5,
            "video_ids": np.arange(B),
        }
        bundle = ModelBundle(config=TINY_MODEL, seed=1, dtype=np.float64)
        params = bundle.params()
        bundle.zero_grads()
        out = pretext_forward(bundle, batch, cfg)
        out.loss.backward()

        h = 1e-5
        checked = 0
        names = ["v_net.conv0.kernel", "m_net.conv1.kernel", "transformer.enc0.self_attn.q.w",
                 "transformer.queries", "g_m2.w1", "g_i.w2"]
        analytic, numeric = [], []
        for name in names:
            p = params[name]
            flat = p.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + h
                fp = pretext_forward(bundle, batch, cfg).loss.item()
                flat[c] = orig - h
                fm = pretext_forward(bundle, batch, cfg).loss.item()
                flat[c] = orig
                numeric.append((fp - fm) / (2 * h))
                analytic.append(p.grad.reshape(-1)[c])
                checked += 1
        analytic, numeric = np.array(analytic), np.array(numeric)
        denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-12)
        rel = np.abs(analytic - numeric).max() / denom
        assert rel < 1e-3, f"joint-loss FD mismatch {rel:.2e} over {checked} coords"
