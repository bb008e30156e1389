"""Names that code outside the package reaches: console scripts, the
benchmark's tracer, which patches ops and forward methods by name, and the
benchmark's workloads, which read the records load_videos returns."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from cmssl import codec, pretext, synthgen
from cmssl import tensor as T
from cmssl.networks import ModelBundle
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


def test_loaded_records_serve_the_benchmark_workloads(monkeypatch, tmp_path):
    """The benchmark's build unit passes generate_dataset these keywords and
    reads every video back bit-exact against a fresh render; its embed and
    train units run on load_videos records. A refactor that drops a keyword
    or a name they read, or breaks that read-back, fails here."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    synthgen.generate_dataset(
        tmp_path, n_videos=2, k_context=2, k_motion=1, frames=36, resolution=(32, 32), seed=0,
        codec=codec.CodecConfig(), threads=1,
    )
    build = workloads.DatasetBuild(0, workloads.Sizes(build_videos=2), tmp_path)
    assert build._check(tmp_path) == 0 and build.videos_written == 2
    videos = pretext.load_videos(tmp_path)
    assert all(v.cv.residuals is None for v in videos)
    for v in videos:  # what workloads.embed_batch passes to draw_sample_indices
        assert v.frames.shape[0] == len(v.cv.iframes) + len(v.cv.mvs)
        assert v.cv.iframe_indices()[1] == v.cv.config.gop_size
    bundle = ModelBundle(seed=0)
    feats = workloads.embed_batch(bundle, videos, seed=0)
    assert feats.shape == (2, bundle.config.v_channels[-1]) and np.isfinite(feats).all()
    np.testing.assert_array_equal(workloads.embed_batch(bundle, videos, seed=0), feats)
    params = list(bundle.params().values())
    loss = workloads.train_step(bundle, params, videos, np.random.default_rng(0), batch_size=2)
    assert np.isfinite(loss)
