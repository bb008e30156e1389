"""Names that code outside the package reaches: console scripts and the
benchmark's tracer, which patches ops and forward methods by name."""

import importlib
from pathlib import Path

import pytest

from cmssl import codec, pretext, synthgen
from cmssl import tensor as T
from cmssl.networks import ModelBundle

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
