"""Recompute perfbench/reference.json, the values the correctness gates check.

Run from the repository root after a change that is meant to alter results
(a new dataset format, a different model), never to make a gate pass:

    python3 perfbench/make_reference.py

The tolerance of each gate is a fixed fraction of the spread of the gated
values across model seeds. The fractions put the tolerance about ten times
above what storing tensors as float32 moves the values, so a float32 policy
can pass, and at least twenty times below what a wrong gradient (the
leaky_relu slope off by half) or a wrong forward (layer_norm eps 1e-4) moves
them, so neither can.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from cmssl import pretext  # noqa: E402

from perfbench import workloads as W  # noqa: E402

SPREAD_SEEDS = range(5)
LOSS_TOL_FRAC = 1e-3
FEATURE_TOL_FRAC = 1e-5


def main():
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as d:
        digest = W.build_reference_dataset(d)
        train = pretext.load_videos(d, split="train")
        every = pretext.load_videos(d)
        losses = np.array([W.gate_losses(train, s) for s in SPREAD_SEEDS])
        feats = np.array([W.gate_features(every, s) for s in SPREAD_SEEDS])
    loss_spread = float(losses.std(axis=0).min())
    feat_spread = float(np.median(feats.std(axis=0)))
    ref = {
        "dataset_digest": digest,
        "pretrain": {
            "losses": losses[W.REF_SEED].tolist(),
            "tol": LOSS_TOL_FRAC * loss_spread,
            "seed_spread": loss_spread,
        },
        "embed": {
            "features": feats[W.REF_SEED].tolist(),
            "tol": FEATURE_TOL_FRAC * feat_spread,
            "seed_spread": feat_spread,
        },
        "derivation": (
            f"tol = {LOSS_TOL_FRAC} x the smallest per-step std of the gate losses and "
            f"{FEATURE_TOL_FRAC} x the median per-element std of the features, across model seeds "
            f"{list(SPREAD_SEEDS)}"
        ),
    }
    with open(W.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in ref.items() if k != "embed"} | {"feature_tol": ref["embed"]["tol"]}, indent=1))


if __name__ == "__main__":
    main()
