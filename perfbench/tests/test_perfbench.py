"""Tests of the benchmark itself; run with `python -m pytest perfbench/tests`."""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cmssl import codec, networks, pretext, synthgen
from cmssl import tensor as T

from perfbench import run as cli
from perfbench import tracing, workloads
from perfbench.tracing import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
TINY = workloads.Sizes(frames=24, resolution=32, fixture_videos=8, batch=4, embed_batch=4, setup_reps=2)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tiny fixture has fewer videos than class pairs
        for name in workloads.WORKLOADS:
            out[name] = workloads.run(name, 3, 0.3, True, tmp_path_factory.mktemp(name), TINY)
    return out


def _declared(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == tracing.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_metric_with_its_unit(reports, name, trace):
    report = reports[name]
    assert report["correct"], report["gates"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    line = cli.result(report, trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    json.dumps(line)


def test_end_to_end_metrics_are_never_zero(reports):
    for report in reports.values():
        assert all(v > 0 for v in report["end_to_end"].values()), report["end_to_end"]


def test_pretrain_step_phases_sum_to_the_step(reports):
    layers = reports["pretrain_joint"]["per_layer"]
    phases = sum(layers[f"step.{p}_ms"] for p in ("sample", "fwd", "bwd", "update"))
    assert phases == pytest.approx(reports["pretrain_joint"]["traced_iter_ms_mean"], rel=0.03)
    for comp in tracing.COMPONENTS:
        assert layers[f"networks.{comp}.fwd_ms"] > 0 and layers[f"networks.{comp}.bwd_ms"] > 0
    assert layers["tensor.nodes"] > 0


def test_embed_runs_no_backward_and_no_training_branch(reports):
    report = reports["embed_frozen"]
    assert all(v == 0 for k, v in report["per_layer"].items() if k.endswith("bwd_ms"))
    assert report["per_layer"]["tensor.nodes"] == 0
    names = {s.name for s in report["spans"]}
    assert "networks.v_net" in names
    assert not names & {"networks.i_net", "networks.m_net_pos", "networks.m_net_neg", "networks.transformer"}


def test_dataset_build_layers(reports):
    layers = reports["dataset_build"]["per_layer"]
    assert 0 < layers["codec.encode_video.self_ms"] < layers["codec.encode_video.ms"]
    assert layers["codec.encode_video.ms"] - layers["codec.encode_video.self_ms"] == pytest.approx(
        layers["codec.motion_compensate.ms"]
    )
    # a CMV1 file's size follows from its header alone
    n, h, w, gop = TINY.frames, TINY.resolution, TINY.resolution, codec.CodecConfig().gop_size
    n_i = -(-n // gop)
    header = 4 + 2 + 4 + 4 + 2 + 2 + 2 + 4
    want = header + n_i * h * w * 3 + (n - n_i) * ((h // 8) * (w // 8) * 4 + h * w * 6)
    assert layers["codec.cmv1_bytes"] == want


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 0.010, None, 0, None),
        Span("a", 0.001, 0.004, 0, 0, None),
        Span("b", 0.005, 0.009, 0, 0, None),
        Span("c", 0.006, 0.007, 2, 0, None),
    ]
    assert tracing.self_times_ms(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_encode_self_time_in_layer_metrics():
    tr = Tracer()
    tr.spans = [
        Span("codec.encode_video", 0.0, 0.100, None, 0, None),
        Span("codec.motion_compensate", 0.010, 0.015, 0, 0, None),
        Span("codec.motion_compensate", 0.020, 0.030, 0, 0, None),
        Span("codec.encode_video", 0.200, 0.240, None, 1, None),
        Span("codec.read_cmv1", 0.5, 0.502, None, "setup", None),
    ]
    m = tr.layer_metrics([0, 1], 2, ["setup"], {})
    assert m["codec.encode_video.ms"] == pytest.approx(70.0)
    assert m["codec.encode_video.self_ms"] == pytest.approx(62.5)
    assert m["codec.motion_compensate.ms"] == pytest.approx(7.5)
    assert m["codec.read_cmv1.ms"] == pytest.approx(2.0)


def _attributes(bundle):
    objs = [T, codec, synthgen, pretext, bundle, bundle.g_v, bundle.g_i, bundle.g_m1, bundle.g_m2]
    return [dict(vars(o)) for o in objs]


def test_every_wrapper_is_removed():
    bundle = networks.ModelBundle(seed=0)
    before = _attributes(bundle)
    tr = Tracer()
    tr.install_modules()
    tr.install_bundle(bundle)
    assert T.conv3d is not before[0]["conv3d"]
    assert "v_forward" in vars(bundle)
    tr.uninstall()
    after = _attributes(bundle)
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is b[k] for k in b)


def test_traced_runs_leave_nothing_patched(reports):
    for name in ("conv3d", "matmul", "layer_norm"):
        assert getattr(T, name).__module__ == "cmssl.tensor"
    assert pretext.extract_modalities is codec.extract_modalities
    assert synthgen.encode_video is codec.encode_video
    assert pretext.pretext_forward.__module__ == "cmssl.pretext"


def test_without_sources_the_benchmark_fails_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataset_build", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout == ""
