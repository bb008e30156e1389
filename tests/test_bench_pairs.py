"""tools/bench_pairs.py: the paired summary, the run.py output it reads and
the BENCH_<sha>.json it writes, on hand-made results."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def result(items, ms, extra, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items, "unit": "1/s"},
            "iter_ms_p50": {"value": ms, "unit": "ms"},
            "unlisted": {"value": extra, "unit": "count"},
        },
    }


BETTER = {"items_per_s": "higher", "iter_ms_p50": "lower"}


def test_summary_medians_quartiles_and_pairs_better(bp):
    parent = [result(40, 200, 1), result(42, 190, 1), result(41, 195, 1), result(39, 205, 1)]
    # pair 3 ties on items_per_s and is slower on iter_ms_p50
    change = [result(44, 180, 2), result(46, 170, 2), result(41, 196, 2), result(43, 185, 2)]
    s = bp.summarize(parent, change, BETTER)
    items = s["metrics"]["items_per_s"]
    # each side keeps every run's value, in pair order, next to its quartiles
    assert items["parent"] == {"median": 40.5, "q1": 39.75, "q3": 41.25, "values": [40, 42, 41, 39]}
    assert items["change"] == {"median": 43.5, "q1": 42.5, "q3": 44.5, "values": [44, 46, 41, 43]}
    assert items["ratio"] == pytest.approx(43.5 / 40.5)
    assert items["pairs_better"] == 3  # the tie counts for neither side
    assert items["better"] == "higher" and items["unit"] == "1/s"
    ms = s["metrics"]["iter_ms_p50"]
    assert ms["pairs_better"] == 3 and ms["better"] == "lower"
    assert ms["parent"]["median"] == 197.5 and ms["change"]["median"] == 182.5
    # a metric BENCHMARK.json does not list has no direction and no count
    assert s["metrics"]["unlisted"]["better"] is None and "pairs_better" not in s["metrics"]["unlisted"]
    assert s["pairs"] == 4
    assert (s["parent_attempted"], s["change_attempted"], s["parent_failed"], s["change_failed"]) == (40, 40, 0, 0)
    assert s["all_correct"] is True


def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr(bp):
    parent = [result(40 + i % 5, 200 - i, 1) for i in range(10)]  # items quartiles [41, 43]
    # better items in 9/10 pairs by 3, more than the parent IQR of 2
    change = [result(40 + i % 5 + (3 if i else -1), 200 - i, 1) for i in range(10)]
    s = bp.summarize(parent, change, BETTER)["metrics"]
    assert s["items_per_s"]["pairs_better"] == 9 and s["items_per_s"]["gain_rule"] is True
    assert s["iter_ms_p50"]["pairs_better"] == 0 and s["iter_ms_p50"]["gain_rule"] is False
    assert "gain_rule" not in s["unlisted"]
    # 10/10 pairs, but the medians only 1.5 apart against the IQR of 2
    s = bp.summarize(parent, [result(41.5 + i % 5, 199.5 - i, 1) for i in range(10)], BETTER)["metrics"]
    assert s["items_per_s"]["pairs_better"] == 10 and s["items_per_s"]["gain_rule"] is False
    # the gap is wide, but only 8/10 pairs are better
    change = [result(40 + i % 5 + (5 if i > 1 else -1), 190 - i, 1) for i in range(10)]
    s = bp.summarize(parent, change, BETTER)["metrics"]
    assert s["items_per_s"]["pairs_better"] == 8 and s["items_per_s"]["gain_rule"] is False
    # lower is better: 10 ms faster in every pair against a parent IQR of 4.5
    assert s["iter_ms_p50"]["pairs_better"] == 10 and s["iter_ms_p50"]["gain_rule"] is True
    # the same gap in each of 9 pairs is too few pairs to claim anything
    s = bp.summarize(parent[:9], change[:9], BETTER)["metrics"]
    assert s["iter_ms_p50"]["pairs_better"] == 9 and s["iter_ms_p50"]["gain_rule"] is False


def test_gain_rule_needs_every_run_correct_with_none_failed(bp):
    parent = [result(40 + i % 5, 200 - i, 1) for i in range(10)]
    change = [result(50 + i % 5, 190 - i, 1) for i in range(10)]
    assert bp.summarize(parent, change, BETTER)["metrics"]["items_per_s"]["gain_rule"] is True
    # one failed operation in one run on either side voids the claim, as
    # does one run that failed its gates with none counted as failed
    for side, run in (("change", result(50, 190, 1, failed=1)), ("parent", result(40, 200, 1, failed=1)),
                      ("change", result(50, 190, 1, correct=False)), ("parent", result(40, 200, 1, correct=False))):
        p, c = list(parent), list(change)
        (c if side == "change" else p)[4] = run
        s = bp.summarize(p, c, BETTER)
        assert s["metrics"]["items_per_s"]["pairs_better"] == 10, side
        assert s["metrics"]["items_per_s"]["gain_rule"] is False, (side, run)


def test_regressed_past_the_bound_of_the_parent_median(bp):
    bounds = {"items_per_s": 0.25, "iter_ms_p50": 0.1}
    parent = [result(40, 200, 1)] * 4
    # items 25% lower sits on the bound; ms 10.5% higher is past its bound
    s = bp.summarize(parent, [result(30, 221, 1)] * 4, BETTER, bounds)["metrics"]
    assert s["items_per_s"]["regressed"] is False
    assert s["iter_ms_p50"]["regressed"] is True
    # a metric with no bound gets no verdict
    assert "regressed" not in s["unlisted"]
    s = bp.summarize(parent, [result(29.9, 219, 1)] * 4, BETTER, bounds)["metrics"]
    assert s["items_per_s"]["regressed"] is True and s["iter_ms_p50"]["regressed"] is False
    # any gain, however large, is no regression
    s = bp.summarize(parent, [result(80, 100, 1)] * 4, BETTER, bounds)["metrics"]
    assert not s["items_per_s"]["regressed"] and not s["iter_ms_p50"]["regressed"]
    # without bounds, as for the per-layer metrics, nothing is judged
    assert "regressed" not in bp.summarize(parent, parent, BETTER)["metrics"]["items_per_s"]


def test_table_rows_show_gain_rule_and_regressed(bp):
    parent = [result(40, 200, 1)] * 2
    s = bp.summarize(parent, [result(29, 190, 1)] * 2, BETTER, {"items_per_s": 0.25})
    rows = dict(zip(("items", "ms", "unlisted"), bp.table_rows("pretrain_joint", s, [3, 4])))
    assert all(len(r.split("|")) == len(bp.TABLE_HEADER[0].split("|")) for r in rows.values())
    # every row ends with the set's runs: all correct, and failed/attempted per side
    assert rows["items"].endswith("| 0/2 | no | yes | yes | 0/20 · 0/20 |")
    assert rows["ms"].endswith("| 2/2 | no | – | yes | 0/20 · 0/20 |")
    assert rows["unlisted"].endswith("| – | – | – | yes | 0/20 · 0/20 |")
    assert rows["items"].startswith("| pretrain_joint (2 pairs, seeds 3–4) | `items_per_s` | 40 [40, 40] | 29 [29, 29] |")
    s = bp.summarize(parent, [result(29, 190, 1), result(29, 190, 1, failed=3, correct=False)], BETTER)
    assert bp.table_rows("pretrain_joint", s, [3, 4])[0].endswith("| no | 0/20 · 3/20 |")


def test_counts_equal_up_to_float_rounding_tie(bp):
    def traced(calls, nodes):
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "tensor.conv3d.calls": {"value": calls, "unit": "count"},
            "tensor.nodes": {"value": nodes, "unit": "count"},
            "step.fwd_ms": {"value": calls, "unit": "ms"},
        }}

    better = {"tensor.conv3d.calls": "lower", "tensor.nodes": "lower", "step.fwd_ms": "lower"}
    s = bp.summarize([traced(9.000000000000146, 450)], [traced(9.000000000000126, 449)], better)["metrics"]
    assert s["tensor.conv3d.calls"]["pairs_better"] == 0
    assert s["tensor.nodes"]["pairs_better"] == 1
    # a timing is not a count: the same gap still counts
    assert s["step.fwd_ms"]["pairs_better"] == 1
    s = bp.summarize([traced(9.0, 449)], [traced(9.0, 450)], better)["metrics"]
    assert s["tensor.nodes"]["pairs_better"] == 0


def test_summary_counts_failures_and_rejects_unpaired_runs(bp):
    s = bp.summarize([result(40, 200, 1)], [result(41, 199, 1, failed=2, correct=False)], BETTER)
    assert s["change_failed"] == 2 and s["all_correct"] is False
    with pytest.raises(ValueError, match="same, non-zero number"):
        bp.summarize([result(40, 200, 1)], [], BETTER)


def test_reads_only_the_stamp_and_result_lines(bp):
    res = result(40, 200, 1)
    out = "\n".join([
        "e2e  items_per_s (train_samples_per_s)   40 1/s",
        'gates {"digest": true}',
        'stamp {"nproc": 2, "git": {"sha": "abc", "dirty": false}, "seed": 3}',
        json.dumps(res),
        "",
    ])
    got, stamp = bp.read_run(out)
    assert got == res and stamp["git"]["sha"] == "abc"
    with pytest.raises(ValueError, match="stamp"):
        bp.read_run(json.dumps(res))


def test_seed_lists_and_directions(bp):
    assert bp.parse_seeds("30-33") == [30, 31, 32, 33]
    assert bp.parse_seeds("1,5,9-10") == [1, 5, 9, 10]
    better = bp.better_directions(json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text()))
    assert better["items_per_s"] == "higher" and better["peak_rss_mb"] == "lower"
    assert better["tensor.conv3d.bwd_ms"] == "lower"
    bounds = bp.metric_bounds(json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text()))
    assert bounds["peak_rss_mb"] == 0.1 and bounds["items_per_s"] == 0.25
    assert "tensor.conv3d.bwd_ms" not in bounds


FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = Path.cwd().name
log = Path.cwd().parent / "order.txt"
log.write_text(log.read_text() + side + "\\n" if log.exists() else side + "\\n")
seed = int(args["--seed"])
items = seed + (5 if side == "change" else 0)
print("stamp " + json.dumps({"git": {"sha": side * 4, "dirty": False}, "seed": seed}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"items_per_s": {"value": items, "unit": "1/s"}}}))
'''


def test_main_alternates_trees_and_writes_one_file_per_change(bp, tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(textwrap.dedent(FAKE_RUN))
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "items_per_s", "better": "higher", "bound": 0.25}]}))
    monkeypatch.setattr(bp, "ROOT", root)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1-3", "--seconds", "1"]
    assert bp.main(argv + ["--workload", "pretrain_joint"]) == 0
    assert bp.main(argv + ["--workload", "embed_frozen", "--trace", "1"]) == 0
    assert bp.main(argv[:2] + ["--seeds", "7", "--seconds", "1", "--workload", "pretrain_joint"]) == 0
    order = (tmp_path / "order.txt").read_text().split()
    assert order[:6] == ["parent", "change", "change", "parent", "parent", "change"]
    doc = json.loads((root / "BENCH_changechange.json").read_text())
    assert sorted(doc["workloads"]) == ["embed_frozen-trace", "pretrain_joint"]
    # a second set of the same workload is appended, not written over the first
    assert [s["seeds"] for s in doc["workloads"]["pretrain_joint"]] == [[1, 2, 3], [7]]
    w = doc["workloads"]["pretrain_joint"][0]
    assert w["seeds"] == [1, 2, 3] and w["first"] == ["parent", "change", "parent"]
    assert w["metrics"]["items_per_s"]["pairs_better"] == 3
    assert w["metrics"]["items_per_s"]["parent"]["median"] == 2
    # pair i holds seed i's runs, whichever side ran first
    assert w["metrics"]["items_per_s"]["parent"]["values"] == [1, 2, 3]
    assert w["metrics"]["items_per_s"]["change"]["values"] == [6, 7, 8]
    assert w["metrics"]["items_per_s"]["regressed"] is False
    assert w["parent_stamp"]["git"]["sha"] == "parentparentparentparent"
    assert "seed" not in w["change_stamp"]
    # each set names each side's src tree; the fake trees have none
    assert w["parent_src_sha256"] == w["change_src_sha256"] == bp.src_tree_hash(tmp_path / "nowhere")
    assert "repo_head" in w


def test_src_tree_hash_skips_pycache_and_sees_one_byte(bp, tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_bytes(b"x = 1\n")
    (pkg / "b.py").write_bytes(b"y = 2\n")
    before = bp.src_tree_hash(tmp_path)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\x00compiled")
    assert bp.src_tree_hash(tmp_path) == before
    (pkg / "b.py").write_bytes(b"y = 3\n")
    assert bp.src_tree_hash(tmp_path) != before
