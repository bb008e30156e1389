"""Run perfbench on two source trees in alternating pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload pretrain_joint \
        --seeds 30-39 --seconds 25 --trace 0

Each tree must hold perfbench/run.py and its own src/. For every seed the two
trees run `perfbench/run.py` one after the other; the first pair starts with
the parent, the next with the change, and so on. Only two lines of each run's
standard output are read: the `stamp` line and the final result line.

The summary goes into BENCH_<sha>.json at the root of this repository, where
<sha> is the first 12 characters of the change tree's git sha from its stamp.
Each run of this script appends one set of pairs to the list kept under its
workload's key (<workload>-trace for a traced set), so the three workloads and
any repeated sets all land in one file. Each set holds both sides' stamps
(machine, numpy, BLAS, git sha and dirty flag), this repository's `git
rev-parse HEAD` (`repo_head`; a side's stamp may name a commit that only its
own tree holds), each side's SHA-256 over its src/ files (`<side>_src_sha256`,
see `src_tree_hash`) and, per metric, each side's median and quartiles and
its value in every run, in pair order (`values`, so a bimodal metric shows
as two clusters, not only as a wide quartile spread), the change/parent
ratio of the medians, the number of pairs in which the change was better
(ties count for neither side; two values of a metric with unit `count` tie
when they agree to a relative 1e-9) and `gain_rule`: whether a
gain on that metric may be claimed, i.e. every run of the set passed its
correctness gates with 0 failed operations, the set has at least 10 pairs,
the change was better in at least 9 of every 10 of them and its median is
better than the parent's by more than the parent's interquartile range. Which
direction is better comes from BENCHMARK.json; a metric it does not list gets
no count and no gain_rule. An end-to-end metric that BENCHMARK.json gives a
`bound` also gets `regressed`: whether the change's median is worse than the
parent's by more than bound × the parent's median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# a traced per-step count carries float rounding (9.000000000000146 and
# 9.000000000000126 for the same 9 calls), so counts this close tie
COUNT_RTOL = 1e-9


def parse_seeds(text: str) -> list[int]:
    """'30-39' or '1,5,9' (or a mix, '1,30-32') as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_run(stdout: str) -> tuple[dict, dict]:
    """The (result, stamp) pair of one run.py output."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    stamps = [ln for ln in lines if ln.startswith("stamp ")]
    if not lines or not stamps:
        raise ValueError("run.py printed no stamp line or no result line")
    return json.loads(lines[-1]), json.loads(stamps[-1][len("stamp "):])


def better_directions(benchmark: dict) -> dict[str, str]:
    """metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in benchmark.get(key, [])}


def metric_bounds(benchmark: dict) -> dict[str, float]:
    """end-to-end metric name -> its allowed relative regression, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in benchmark.get("end_to_end", []) if "bound" in m}


def _stats(values) -> dict:
    """Median, quartiles and the values themselves, in the order given."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "values": [float(v) for v in values]}


def gain_rule(entry: dict, pairs: int, clean: bool) -> bool:
    """A claimable gain: every run correct with 0 failed (`clean`), at least
    10 pairs, better in >= 9/10 of them, and the medians apart by more than
    the parent's interquartile range, in the better direction."""
    sign = -1.0 if entry["better"] == "lower" else 1.0
    p, c = entry["parent"], entry["change"]
    return bool(clean and pairs >= 10 and 10 * entry["pairs_better"] >= 9 * pairs
                and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])


def regressed(entry: dict, bound: float) -> bool:
    """The change's median worse than the parent's by more than bound × the
    parent's median, in the worse direction."""
    sign = -1.0 if entry["better"] == "lower" else 1.0
    p, c = entry["parent"]["median"], entry["change"]["median"]
    return bool(sign * (p - c) > bound * abs(p))


def _change_better(p: float, c: float, sign: float, unit: str) -> bool:
    if unit == "count" and math.isclose(p, c, rel_tol=COUNT_RTOL):
        return False
    return sign * (c - p) > 0


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-metric summary of paired result lines (parent[i] pairs with change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need the same, non-zero number of runs per side, got {len(parent)} and {len(change)}")
    runs = {"parent": parent, "change": change}
    counts = {f"{side}_{key}": sum(r[key] for r in runs[side]) for side in SIDES for key in ("attempted", "failed")}
    all_correct = all(r["correct"] for side in SIDES for r in runs[side])
    clean = all_correct and not any(counts[f"{side}_failed"] for side in SIDES)
    metrics = {}
    for name, first in parent[0]["metrics"].items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry = {"unit": first["unit"], "better": better.get(name)}
        entry.update({side: _stats(vals[side]) for side in SIDES})
        base = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / base if base else None
        if entry["better"] is not None:
            sign = -1.0 if entry["better"] == "lower" else 1.0
            entry["pairs_better"] = sum(
                _change_better(p, c, sign, entry["unit"]) for p, c in zip(vals["parent"], vals["change"])
            )
            entry["gain_rule"] = gain_rule(entry, len(parent), clean)
            if bounds and name in bounds:
                entry["regressed"] = regressed(entry, bounds[name])
        metrics[name] = entry
    return {"pairs": len(parent), **counts, "all_correct": all_correct, "metrics": metrics}


def src_tree_hash(tree: Path) -> str:
    """SHA-256 over the files under tree/src, in sorted order of their relative
    paths: each file adds its path, its size and its bytes. __pycache__ is
    skipped, so only the source a run imports is hashed."""
    src = Path(tree) / "src"
    files = sorted((p.relative_to(src).as_posix(), p) for p in src.rglob("*")
                   if p.is_file() and "__pycache__" not in p.relative_to(src).parts)
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def repo_head() -> str | None:
    """`git rev-parse HEAD` of this repository, or None outside a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return read_run(proc.stdout)


TABLE_HEADER = [
    "| set | metric | parent median [q1, q3] | change median [q1, q3] | ratio | pairs better | gain_rule | regressed "
    "| all correct | failed/attempted, parent · change |",
    "|---|---|---|---|---|---|---|---|---|---|",
]


def table_rows(workload: str, summary: dict, seeds: list[int]) -> list[str]:
    """Markdown rows: metric, both medians with quartiles, ratio, pairs
    better, whether the gain rule holds, whether the metric regressed past
    its bound, and the set's runs: whether every one was correct, and each
    side's failed and attempted operations."""
    label = f"{workload} ({summary['pairs']} pairs, seeds {seeds[0]}–{seeds[-1]})"
    runs = "yes" if summary["all_correct"] else "no"
    ops = " · ".join(f"{summary[f'{side}_failed']}/{summary[f'{side}_attempted']}" for side in SIDES)
    rows = []
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        ratio = "–" if m["ratio"] is None else f"{m['ratio']:.3f}"
        won = f"{m['pairs_better']}/{summary['pairs']}" if "pairs_better" in m else "–"
        rule, worse = ({True: "yes", False: "no"}.get(m.get(key), "–") for key in ("gain_rule", "regressed"))
        rows.append(f"| {label} | `{name}` | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] | "
                    f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {ratio} | {won} | {rule} | {worse} | "
                    f"{runs} | {ops} |")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 30-39 or 1,5,9")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = better_directions(benchmark)
    trees = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    stamps = {}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            res, stamp = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
            results[side].append(res)
            stamp.pop("seed", None)
            stamps.setdefault(side, stamp)
            print(f"seed {seed} {side}: " + json.dumps({k: v["value"] for k, v in res["metrics"].items()}), flush=True)

    summary = summarize(results["parent"], results["change"], better, metric_bounds(benchmark))
    summary.update(seeds=args.seeds, seconds=args.seconds, trace=args.trace,
                   first=[SIDES[i % 2] for i in range(len(args.seeds))],
                   repo_head=repo_head(),
                   **{f"{side}_stamp": stamps[side] for side in SIDES},
                   **{f"{side}_src_sha256": src_tree_hash(trees[side]) for side in SIDES})
    sha = stamps["change"]["git"]["sha"] or "unknown"
    out = ROOT / f"BENCH_{sha[:12]}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    key = args.workload + ("-trace" if args.trace else "")
    doc.setdefault("workloads", {}).setdefault(key, []).append(summary)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("\n".join(TABLE_HEADER + table_rows(key, summary, args.seeds)))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
