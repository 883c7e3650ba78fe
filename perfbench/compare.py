#!/usr/bin/env python3
"""Compare two checkouts (a parent and a change) on the benchmark.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload ycsb-a

Seeds 1 to 10 run on both checkouts for ``run_seconds`` from
``BENCHMARK.json``, alternating which side goes first.  For every
end-to-end metric it prints each side's median and quartiles (for the
wall metrics also the medians before speed scaling),
the share of pairs the change won, and a verdict against the metric's
bound in ``BENCHMARK.json``: ``worse`` when the change's median is worse
than the parent's by more than the bound, ``unresolved`` when the
parent's own spread is wider than the bound, and ``better`` only when
the change wins at least nine pairs in ten by more than the parent's
spread.  Each checkout runs its own ``perfbench/run.py`` against its own
``src/``, so copy the same ``perfbench/`` into both first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import RAW_PREFIX

SEEDS = range(1, 11)


def run_once(checkout, workload, seed, seconds):
    """``(metrics, raw wall metrics)`` of one untraced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(lines[-2].removeprefix(RAW_PREFIX))
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def verdict(parent, change, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    spread = (q[2] - q[0]) / abs(p_med)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse_by = sign * (p_med - c_med) / abs(p_med)
    best_parent = max(sign * p for p in parent)
    all_better = all(sign * c > best_parent for c in change)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif wins >= 0.9 * len(parent) and -worse_by > spread:
        label = "better"
    else:
        label = "same"
    return label, wins, losses, spread


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    raws = {"parent": [], "change": []}
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            metrics, raw = run_once(
                checkout, args.workload, seed, spec["run_seconds"])
            runs[side].append(metrics)
            raws[side].append(raw)
            print(f"seed {seed} {side} done", file=sys.stderr)
    print(f"{args.workload}: {len(SEEDS)} pairs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        label, wins, losses, spread = verdict(
            parent, change, metric["bound"], metric["better"])
        qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        print(f"  {name:12s} parent {qp[1]:.5g} [{qp[0]:.5g}, {qp[2]:.5g}]"
              f"  change {qc[1]:.5g} [{qc[0]:.5g}, {qc[2]:.5g}] {metric['unit']}"
              f"  wins {wins}/{len(SEEDS)} losses {losses}"
              f"  parent spread {spread:.3f} bound {metric['bound']}  {label}")
        if name in raws["parent"][0]:
            rp = statistics.median(r[name] for r in raws["parent"])
            rc = statistics.median(r[name] for r in raws["change"])
            print(f"  {'':12s} raw parent {rp:.5g}  raw change {rc:.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
