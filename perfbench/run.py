"""Run one cmssl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain_joint --seed 0 --seconds 25 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The lines
before it name every metric with its unit, and the stamp of the machine.
The full report goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

# the workload-specific name of each generic end-to-end metric
ALIASES = {
    "dataset_build": {"items_per_s": "build_videos_per_s", "iter_ms_p50": "video_ms_p50", "iter_ms_p90": "video_ms_p90"},
    "pretrain_joint": {"items_per_s": "train_samples_per_s", "iter_ms_p50": "step_ms_p50", "iter_ms_p90": "step_ms_p90"},
    "embed_frozen": {"items_per_s": "embed_clips_per_s", "iter_ms_p50": "embed_batch_ms_p50", "iter_ms_p90": "embed_batch_ms_p90"},
}


def result(report: dict, trace: bool) -> dict:
    """The result line: end-to-end metrics untraced, per-layer ones traced."""
    from perfbench import tracing, workloads

    units, values = (tracing.PER_LAYER, report["per_layer"]) if trace else (workloads.END_TO_END, report["end_to_end"])
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALIASES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cmssl" / "__init__.py").is_file():
        print(f"perfbench: no cmssl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import machine

    machine.cap_blas_threads()  # before numpy loads a BLAS

    from perfbench import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    report["stamp"] = machine.stamp(ROOT)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        with gzip.open(OUT / f"{tag}-spans.jsonl.gz", "wt") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    line = result(report, bool(args.trace))
    aliases = ALIASES[args.workload]
    for name, value in report["end_to_end"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"e2e  {label:<40} {value:>14.6g} {workloads.END_TO_END[name]}")
    fail_frac = report["failed"] / max(report["attempted"], 1)
    print(f"e2e  {'fail_frac':<40} {fail_frac:>14.6g} {report['work']} failed/attempted")
    if args.trace:
        for name, m in line["metrics"].items():
            print(f"layer {name:<39} {m['value']:>14.6g} {m['unit']}")
    print("gates " + json.dumps(report["gates"]))
    print("stamp " + json.dumps(report["stamp"] | {"seed": args.seed, "sizes": report["sizes"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
