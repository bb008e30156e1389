"""The three benchmark workloads and the closed loop that measures them.

Each workload drives cmssl only through its public functions. A unit of
work is one generate_dataset call (dataset_build), one training step
(pretrain_joint) or one embedding batch (embed_frozen); the next unit starts
when the previous one has finished. Every unit is checked for correctness,
and a failed check counts toward `failed` as a video, a step or a batch.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from cmssl import codec, networks, pretext, synthgen
from cmssl import tensor as T

from perfbench.tracing import NullTracer, Tracer

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# the committed references are computed on this dataset, model seed and
# sampling seed, whatever the workload seed is
REF_VIDEOS = 16  # one per (context, motion) pair of the default 4x4 grid
REF_SEED = 0
GATE_STEPS = 4
LR = 0.01  # plain SGD; src has no optimizer yet

# name -> unit of every end-to-end metric; "iter" is one video, one step or
# one batch, and "items" are videos, training samples or embedded clips
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
}


@dataclass(frozen=True)
class Sizes:
    build_videos: int = 16  # videos per generate_dataset call
    frames: int = 36
    resolution: int = 64
    fixture_videos: int = 48
    batch: int = 8
    embed_batch: int = 16
    setup_reps: int = 7


FULL = Sizes()


def build_reference_dataset(out_dir) -> str:
    """The fixed dataset every gate runs on; returns its manifest digest."""
    synthgen.generate_dataset(out_dir, n_videos=REF_VIDEOS, seed=REF_SEED, threads=1)
    return synthgen.manifest_digest(out_dir)


def dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# -- shared unit bodies (the gates reuse them) -------------------------------------


def train_step(bundle, params, videos, rng, batch_size, tracer=NullTracer()) -> float:
    """zero_grads -> sample -> collate -> pretext_forward -> backward -> SGD."""
    cfg = pretext.PretextConfig()
    with tracer.span("step.update"):
        bundle.zero_grads()
    with tracer.span("step.sample"):
        batch = pretext.collate(pretext.sample_training_batch(videos, batch_size, bundle.config, cfg, rng))
    with tracer.span("step.fwd"):
        out = pretext.pretext_forward(bundle, batch, cfg)
    with tracer.span("step.bwd"):
        out.loss.backward()
    with tracer.span("step.update"):
        for p in params:
            p.data -= LR * p.grad
    return out.loss.item()


def embed_batch(bundle, videos, seed, tracer=NullTracer()) -> np.ndarray:
    """Mean-pooled frozen v_net features, (len(videos), C); each video's
    indices come from its own seeded draw, so a pass repeats exactly."""
    cfg = pretext.PretextConfig()
    mc = bundle.config
    with tracer.span("step.sample"):
        samples = []
        for v in videos:
            rng = np.random.default_rng((seed, v.video_id))
            idx = pretext.draw_sample_indices(
                v.frames.shape[0], v.video_id, v.cv.iframe_indices(), v.cv.config.gop_size, mc, cfg, rng
            )
            samples.append(pretext.materialize_sample(v, idx, mc, cfg, train=False))
        batch = pretext.collate(samples)
    with tracer.span("step.fwd"):
        with T.no_grad():
            xv = bundle.v_forward(batch["clip"])
        return xv.data.mean(axis=(2, 3, 4))


def gate_losses(videos, model_seed: int) -> list[float]:
    """Losses of GATE_STEPS SGD steps from ModelBundle(model_seed)."""
    bundle = networks.ModelBundle(seed=model_seed)
    params = list(bundle.params().values())
    rng = np.random.default_rng(REF_SEED)
    return [train_step(bundle, params, videos, rng, FULL.batch) for _ in range(GATE_STEPS)]


def gate_features(videos, model_seed: int) -> np.ndarray:
    return embed_batch(networks.ModelBundle(seed=model_seed), videos, REF_SEED)


def _within(values, reference, tol) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(values).all() and np.abs(values - np.asarray(reference)).max() <= tol)


# -- workloads ------------------------------------------------------------------------


class Workload:
    """prepare() builds fixtures and runs the once-per-run gates, setup() is
    the timed set-up, unit(i) one unit of the closed loop."""

    work_name = "units"  # what attempted and failed count
    unit_work = 1  # how many of them one unit does

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = Path(workdir)
        self.ref_dir = self.workdir / "reference"
        self.fixture = self.ref_dir  # what setup() loads
        self.gates: dict[str, bool] = {}
        self.videos = []
        self.bundle = None

    def prepare(self):
        with open(REFERENCE_FILE) as fh:
            self.reference = json.load(fh)
        digest = build_reference_dataset(self.ref_dir)
        self.gates["reference_digest"] = digest == self.reference["dataset_digest"]

    def setup(self, split=None):
        self.videos = pretext.load_videos(self.fixture, split=split)
        self.bundle = networks.ModelBundle(seed=self.seed)

    def warm_up(self):
        pass

    def layer_extra(self) -> dict:
        return {}


class DatasetBuild(Workload):
    """Render -> SAD encode -> CMV1 write, with the codec defaults."""

    work_name = "videos"

    def __init__(self, *args):
        super().__init__(*args)
        self.unit_work = self.sizes.build_videos
        self.bytes_written = 0
        self.videos_written = 0

    def unit(self, i, tracer):
        s = self.sizes
        with tempfile.TemporaryDirectory(dir=self.workdir) as d:
            with tracer.unit(i):
                start = time.perf_counter()
                synthgen.generate_dataset(
                    d, n_videos=s.build_videos, frames=s.frames, resolution=(s.resolution, s.resolution),
                    seed=dataset_seed(self.seed, i), codec=codec.CodecConfig(), threads=1,
                )
                elapsed = time.perf_counter() - start
            failed = self._check(Path(d))
        return elapsed, s.build_videos, s.build_videos, failed

    def _check(self, d: Path) -> int:
        """Videos whose CMV1 file does not decode bit-exact to a fresh render."""
        failed = 0
        records = synthgen.load_manifest(d)
        for rec in records:
            spec = synthgen.SceneSpec(
                rec["context_class"], rec["motion_class"], rec["seed"], rec["frames"], rec["H"], rec["W"]
            )
            want = synthgen.generate_video(spec).video.frames
            path = d / rec["path"]
            got = codec.decode_video(codec.read_cmv1(path)).frames
            failed += not np.array_equal(got, want)
            self.bytes_written += path.stat().st_size
            self.videos_written += 1
        return failed + self.sizes.build_videos - len(records)

    def layer_extra(self) -> dict:
        return {"codec.cmv1_bytes": self.bytes_written / max(self.videos_written, 1)}


class _FixtureWorkload(Workload):
    def prepare(self):
        super().prepare()
        s = self.sizes
        self.fixture = self.workdir / "fixture"
        synthgen.generate_dataset(
            self.fixture, n_videos=s.fixture_videos, frames=s.frames, resolution=(s.resolution, s.resolution),
            seed=self.seed, threads=1,
        )


class PretrainJoint(_FixtureWorkload):
    """One joint pretext step per unit on the train split of the fixture."""

    work_name = "steps"

    def prepare(self):
        super().prepare()
        ref = self.reference["pretrain"]
        losses = gate_losses(pretext.load_videos(self.ref_dir, split="train"), REF_SEED)
        self.gates["pretrain_reference_losses"] = _within(losses, ref["losses"], ref["tol"])

    def setup(self):
        super().setup(split="train")
        self.params = list(self.bundle.params().values())
        self.rng = np.random.default_rng(self.seed)

    def warm_up(self):
        self.unit(-1, NullTracer())

    def unit(self, i, tracer):
        with tracer.unit(i):
            start = time.perf_counter()
            loss = train_step(self.bundle, self.params, self.videos, self.rng, self.sizes.batch, tracer)
            elapsed = time.perf_counter() - start
        return elapsed, 1, self.sizes.batch, int(not np.isfinite(loss))


class EmbedFrozen(_FixtureWorkload):
    """Frozen v_net features of every fixture video, pass after pass."""

    work_name = "batches"

    def prepare(self):
        super().prepare()
        ref = self.reference["embed"]
        feats = gate_features(pretext.load_videos(self.ref_dir), REF_SEED)
        self.gates["embed_reference_features"] = _within(feats, ref["features"], ref["tol"])

    def setup(self):
        super().setup()
        eb = self.sizes.embed_batch
        self.batches = [self.videos[j : j + eb] for j in range(0, len(self.videos), eb)]

    def warm_up(self):
        # the first pass is the one every later pass must repeat bit for bit
        self.first_pass = [embed_batch(self.bundle, b, self.seed) for b in self.batches]
        self.gates["features_finite"] = all(np.isfinite(f).all() for f in self.first_pass)

    def unit(self, i, tracer):
        j = i % len(self.batches)
        with tracer.unit(i):
            start = time.perf_counter()
            feats = embed_batch(self.bundle, self.batches[j], self.seed, tracer)
            elapsed = time.perf_counter() - start
        return elapsed, 1, len(self.batches[j]), int(not np.array_equal(feats, self.first_pass[j]))


WORKLOADS = {"dataset_build": DatasetBuild, "pretrain_joint": PretrainJoint, "embed_frozen": EmbedFrozen}


# -- the closed loop -------------------------------------------------------------------


@dataclass
class Loop:
    unit_ids: list
    iter_ms: list  # per video, step or batch
    seconds: float
    items: int
    attempted: int
    failed: int


def closed_loop(wl: Workload, seconds: float, tracers, first: int = 0) -> list[Loop]:
    """Run units back to back until `seconds` have passed, at least one per
    tracer. Units take turns over `tracers`; one Loop per tracer."""
    loops = [Loop([], [], 0.0, 0, 0, 0) for _ in tracers]
    deadline = time.perf_counter() + seconds
    i = first
    while not loops[-1].unit_ids or time.perf_counter() < deadline:
        turn = (i - first) % len(tracers)
        loop = loops[turn]
        loop.unit_ids.append(i)
        try:
            elapsed, work, items, failed = wl.unit(i, tracers[turn])
        except Exception:  # a unit that raises is a failed unit; keep measuring
            traceback.print_exc(file=sys.stderr)
            work = failed = wl.unit_work
        else:
            loop.iter_ms += [elapsed * 1e3 / work] * work
            loop.seconds += elapsed
            loop.items += items
        loop.attempted += work
        loop.failed += failed
        i += 1
    return loops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, workdir, sizes: Sizes = FULL) -> dict:
    """One benchmark run: prepare, time set-up, measure the untraced loop and,
    with `trace`, a traced set-up and loop. Returns the whole report."""
    wl = WORKLOADS[name](seed, sizes, workdir)
    wl.prepare()
    setup_s = []
    for _ in range(sizes.setup_reps):
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
    wl.warm_up()
    (plain,) = loops = closed_loop(wl, seconds, [NullTracer()])
    report = {
        "workload": name,
        "seed": seed,
        "work": wl.work_name,
        "sizes": asdict(sizes),
        "end_to_end": {
            "setup_s": float(np.median(setup_s)),
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": plain.items / plain.seconds if plain.seconds else 0.0,
            "iter_ms_p50": float(np.percentile(plain.iter_ms, 50)) if plain.iter_ms else 0.0,
            "iter_ms_p90": float(np.percentile(plain.iter_ms, 90)) if plain.iter_ms else 0.0,
        },
        "samples": {"setup_s": setup_s, "iter_ms": plain.iter_ms},
    }
    if trace:
        # traced units alternate with untraced ones, so the overhead is
        # measured at the same machine speed; the untraced ones pass through
        # the installed wrappers, which record nothing outside a traced unit
        tracer = Tracer()
        tracer.install_modules()
        try:
            with tracer.unit("setup"):
                wl.setup()
            tracer.install_bundle(wl.bundle)
            between, traced = closed_loop(wl, seconds, [NullTracer(), tracer], first=plain.unit_ids[-1] + 1)
        finally:
            tracer.uninstall()
        loops += [between, traced]
        layers = tracer.layer_metrics(traced.unit_ids, traced.attempted, ["setup"], wl.layer_extra())
        if between.iter_ms and traced.iter_ms:
            layers["trace_overhead_frac"] = float(np.median(traced.iter_ms) / np.median(between.iter_ms) - 1.0)
        report["per_layer"] = layers
        report["traced_iter_ms_mean"] = float(np.mean(traced.iter_ms)) if traced.iter_ms else 0.0
        report["spans"] = tracer.spans
    report["attempted"] = sum(lp.attempted for lp in loops)
    report["failed"] = sum(lp.failed for lp in loops)
    report["gates"] = wl.gates
    report["correct"] = all(wl.gates.values()) and report["failed"] == 0
    return report
