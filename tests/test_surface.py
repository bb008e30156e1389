"""Names that code outside the package reaches: console scripts, the
benchmark's tracer, which patches ops and forward methods by name, and the
benchmark's workloads, which read the records load_videos returns and hold
the model's numbers to committed references."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from cmssl import codec, pretext, synthgen
from cmssl import tensor as T
from cmssl.networks import ModelBundle, ModelConfig
from cmssl.pretext import PretextConfig

from conftest import TINY_MODEL, graph_nodes, tiny_batch

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    bundle = ModelBundle(seed=0)
    objs = [T, codec, synthgen, pretext, bundle, bundle.g_v, bundle.g_i, bundle.g_m1, bundle.g_m2]
    before = [dict(vars(o)) for o in objs]
    tracer = Tracer()
    tracer.install_modules()
    tracer.install_bundle(bundle)
    assert T.conv3d is not before[0]["conv3d"]
    assert "m_forward" in vars(bundle) and "forward_points" in vars(bundle.g_m1)
    tracer.uninstall()
    for obj, old in zip(objs, before):
        now = vars(obj)
        assert now.keys() == old.keys(), obj
        assert all(now[k] is old[k] for k in old), obj


def test_benchmark_tracer_times_every_backward_closure_once(monkeypatch):
    """The tracer reaches backward time through each op output's `_backward`
    and `_parents`: in a traced step it must wrap every closure of the graph
    exactly once and time every component's backward."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    batch = tiny_batch()
    bundle = ModelBundle(config=TINY_MODEL, seed=0)
    tracer = tracing.Tracer()
    tracer.install_modules()
    tracer.install_bundle(bundle)
    try:
        with tracer.unit(0):
            loss = pretext.pretext_forward(bundle, batch, PretextConfig(hard_negative_count=1)).loss
            # backward() consumes the graph, so its closures are gathered first
            closures = [n._backward for n in graph_nodes(loss) if n._backward is not None]
            loss.backward()
    finally:
        tracer.uninstall()
    assert tracer.nodes[0] == len(closures) > 0
    assert all(isinstance(c, tracing._Backward) and not isinstance(c.fn, tracing._Backward) for c in closures)
    timed = {s.component for s in tracer.spans if s.name.startswith("tensor.") and s.name.endswith(".bwd")}
    assert set(tracing.COMPONENTS) <= timed


def test_benchmark_tracer_times_every_head_call(monkeypatch):
    """The tracer times the heads by wrapping g_v.forward, g_i.forward and
    g_m1/g_m2.forward_points by name: a step must make five such calls, g_m2's
    on the Transformer's prediction, or that time drops out of networks.heads
    unnoticed."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    bundle = ModelBundle(config=TINY_MODEL, seed=0)
    calls = []

    def spy(name, fn):
        def wrapper(x):
            out = fn(x)
            calls.append((name, x, out))
            return out

        return wrapper

    # set before the tracer wraps them, so each traced call runs its spy
    for obj, attr, name in (
        (bundle.g_v, "forward", "g_v.forward"), (bundle.g_i, "forward", "g_i.forward"),
        (bundle.g_m1, "forward_points", "g_m1.forward_points"),
        (bundle.g_m2, "forward_points", "g_m2.forward_points"),
        (bundle, "transformer_predict", "transformer_predict"),
    ):
        setattr(obj, attr, spy(name, getattr(obj, attr)))
    tracer = tracing.Tracer()
    tracer.install_modules()
    tracer.install_bundle(bundle)
    try:
        with tracer.unit(0):
            pretext.pretext_forward(bundle, tiny_batch(), PretextConfig())
    finally:
        tracer.uninstall()
    assert len([s for s in tracer.spans if s.name == "networks.heads"]) == 5
    heads = sorted(name for name, _, _ in calls if name != "transformer_predict")
    assert heads == ["g_i.forward", "g_m1.forward_points", "g_m1.forward_points", "g_m2.forward_points", "g_v.forward"]
    (vhat,) = [out for name, _, out in calls if name == "transformer_predict"]
    (pred_in,) = [x for name, x, _ in calls if name == "g_m2.forward_points"]
    assert pred_in is vhat


def test_loaded_records_serve_the_benchmark_workloads(monkeypatch, tmp_path):
    """The benchmark's build unit passes generate_dataset these keywords and
    reads every video back bit-exact against a fresh render; its embed and
    train units run on load_videos records. A refactor that drops a keyword
    or a name they read, or breaks that read-back, fails here. The videos
    are 64x64, the benchmark's resolution, so the default load_videos must
    resize them to the raster of the default bundle those units feed."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    synthgen.generate_dataset(
        tmp_path, n_videos=2, k_context=2, k_motion=1, frames=36, resolution=(64, 64), seed=0,
        codec=codec.CodecConfig(), threads=1,
    )
    build = workloads.DatasetBuild(0, workloads.Sizes(build_videos=2), tmp_path)
    assert build._check(tmp_path) == 0 and build.videos_written == 2
    videos = pretext.load_videos(tmp_path)
    assert all(isinstance(v.cv, codec.MotionField) for v in videos)
    s = ModelConfig().input_size
    for v in videos:  # what workloads.embed_batch passes to draw_sample_indices
        assert v.frames.shape == (36, s, s, 3) and (v.cv.height, v.cv.width) == (64, 64)
        assert v.frames.shape[0] == v.cv.frame_count
        assert v.cv.iframe_indices()[1] == v.cv.config.gop_size
    bundle = ModelBundle(seed=0)
    assert bundle.config.input_size == s
    feats = workloads.embed_batch(bundle, videos, seed=0)
    assert feats.shape == (2, bundle.config.v_channels[-1]) and np.isfinite(feats).all()
    np.testing.assert_array_equal(workloads.embed_batch(bundle, videos, seed=0), feats)
    params = list(bundle.params().values())
    loss = workloads.train_step(bundle, params, videos, np.random.default_rng(0), batch_size=2)
    assert np.isfinite(loss)


def test_benchmark_load_and_sample_spans_see_every_call(monkeypatch, tmp_path):
    """The tracer times set-up and sampling by patching pretext.read_cmv1,
    pretext.decode_video and pretext.extract_modalities. load_videos must
    call the first two once per video, and sampling a record the third once
    per sample, through those module names, or codec.read_cmv1.ms,
    codec.decode_video.ms and codec.extract_modalities.ms read 0 or too
    little in a traced run."""
    synthgen.generate_dataset(tmp_path, n_videos=3, k_context=3, k_motion=1, frames=36, seed=0)
    calls = {}
    for name in ("read_cmv1", "decode_video", "extract_modalities"):
        def counted(*args, _name=name, _fn=getattr(pretext, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pretext, name, counted)
    videos = pretext.load_videos(tmp_path)
    assert len(videos) == 3 and calls == {"read_cmv1": 3, "decode_video": 3}
    calls.clear()
    samples = pretext.sample_training_batch(videos, 5, ModelConfig(), PretextConfig(), np.random.default_rng(0))
    assert len(samples) == 5 and calls == {"extract_modalities": 5}


def test_benchmark_correctness_gates_hold(monkeypatch, tmp_path):
    """The benchmark marks a run incorrect unless the losses of its gate SGD
    steps and its frozen features on the reference dataset stay within
    perfbench/reference.json's tol; a change that moves the model's numbers
    past a gate fails here first."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    ref = json.loads(workloads.REFERENCE_FILE.read_text())
    assert workloads.build_reference_dataset(tmp_path) == ref["dataset_digest"]
    got = {
        "pretrain": workloads.gate_losses(pretext.load_videos(tmp_path, split="train"), workloads.REF_SEED),
        "embed": workloads.gate_features(pretext.load_videos(tmp_path), workloads.REF_SEED),
    }
    for key, name in (("pretrain", "losses"), ("embed", "features")):
        values = np.asarray(got[key], dtype=np.float64)
        want = np.asarray(ref[key][name])
        assert values.shape == want.shape and np.isfinite(values).all(), key
        dev = np.abs(values - want).max()
        assert dev <= ref[key]["tol"], f"{key} {name}: max deviation {dev:.3g} past tol {ref[key]['tol']:.3g}"
