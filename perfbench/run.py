#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 6 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then runs a fixed number of rounds with tracing off and prints
the end-to-end metrics.  ``--seconds`` sets that number: each workload
declares how many ops a second of timed work holds at the reference
speed (:mod:`speed`), so a run does the same work every time and its
wall metrics compare like with like.  The simulated metrics and the
fingerprint are taken after the last round, so they are exact for a
seed and a ``--seconds``.  ``--trace 1`` runs the same rounds twice --
untraced, then with every layer boundary wrapped by :mod:`tracer` --
fails unless both passes reach the same simulated fingerprint, writes
the spans under ``perfbench/out/`` and prints the per-layer metrics.
``--smoke`` shrinks every size so a run takes seconds.  Metric names,
units and directions come from ``BENCHMARK.json``.  The last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the line before it holds
the unscaled wall metrics (see :data:`RAW_PREFIX`).
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import speed
from spec import LAYERS, PRINTED_ONLY
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Prefix of the output line holding the wall metrics before scaling.
RAW_PREFIX = "raw wall metrics: "


def load_metrics():
    """``(end_to_end, per_layer)``: name -> (unit, better), from
    ``BENCHMARK.json``."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: (m["unit"], m["better"]) for m in bench[group]}
        for group in ("end_to_end", "per_layer"))


class Pass:
    """Outcome of one timed pass over a workload."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.rounds = 0
        self.timed_s = 0.0
        #: Timed seconds, each round's divided by its speed factor.
        self.scaled_s = 0.0
        self.call_times = array("d")
        self.scaled_calls = array("d")
        self.error = None
        #: Taken after the last round.
        self.sim = None
        self.fingerprint = None
        self.layer = None


def timed_pass(wl, rounds, calibration, tracer=None):
    """Run ``rounds`` rounds, each scaled by its own speed factor."""
    result = Pass()
    wl.begin()
    calls = result.call_times
    watch = speed.Stopwatch(calibration)
    for index in range(rounds):
        work = wl.make_round(index)
        first_call = len(calls)
        watch.start()
        if tracer is not None:
            tracer.armed = True
        try:
            out = wl.run_round(work, calls)
        except Exception:  # a failed op: report it, never hide it
            result.error = traceback.format_exc()
            result.ops += wl.round_ops
            result.failed += wl.round_ops
            return result
        finally:
            if tracer is not None:
                tracer.armed = False
        __, factor = watch.stop()
        result.timed_s = watch.raw_s
        result.scaled_s = watch.scaled_s
        result.scaled_calls.extend(t / factor for t in calls[first_call:])
        result.rounds += 1
        done, failed = wl.check_round(work, out)
        result.ops += done
        result.failed += failed
    result.sim = wl.sim_metrics(result.ops)
    result.fingerprint = wl.fingerprint()
    result.layer = wl.layer_counters(result.ops)
    result.failed += wl.finish()
    return result


def _pct(samples, q):
    from repro.sim.latency import percentile

    return percentile(sorted(samples), q)


def timed_setup(wl, calibration):
    """``(raw, scaled)`` seconds of one setup."""
    watch = speed.Stopwatch(calibration)
    wl.setup(watch)
    return watch.raw_s, watch.scaled_s


def end_to_end(wl, seconds, calibration):
    setups = [timed_setup(wl, calibration) for __ in range(wl.setup_repeats)]
    run = timed_pass(wl, wl.rounds_for(seconds), calibration)
    if run.error:
        return run, {}, None, [f"failed in round {run.rounds}"]
    raw = {
        "wall_kops": run.ops / run.timed_s / 1e3,
        "setup_s": statistics.median(raw for raw, __ in setups),
        "call_p50_us": _pct(run.call_times, 50) * 1e6,
        "call_p99_us": _pct(run.call_times, 99) * 1e6,
    }
    metrics = {
        "wall_kops": run.ops / run.scaled_s / 1e3,
        "setup_s": statistics.median(scaled for __, scaled in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "call_p50_us": _pct(run.scaled_calls, 50) * 1e6,
        "call_p99_us": _pct(run.scaled_calls, 99) * 1e6,
    }
    if run.sim is not None:
        metrics.update(run.sim)
    notes = [
        f"rounds {run.rounds} x {wl.round_ops} ops, {run.timed_s:.3f} s timed, "
        f"speed factor {run.timed_s / run.scaled_s:.3f}",
        "setups (s, raw/scaled): "
        + ", ".join(f"{raw:.3f}/{scaled:.3f}" for raw, scaled in setups),
        f"call samples: {len(run.call_times)}",
        f"fingerprint {run.fingerprint}",
    ]
    return run, metrics, raw, notes


def per_layer(wl, args, calibration):
    """Untraced then traced pass over the same rounds; per-layer metrics."""
    rounds = wl.rounds_for(args.seconds)
    timed_setup(wl, calibration)
    plain = timed_pass(wl, rounds, calibration)
    wl.release()
    gc.collect()
    with Tracer() as tracer:
        timed_setup(wl, calibration)
        traced = timed_pass(wl, rounds, calibration, tracer)
    notes = [
        f"rounds {traced.rounds}, {traced.ops} ops",
        f"untraced fingerprint {plain.fingerprint}, sim {plain.sim}",
        f"traced   fingerprint {traced.fingerprint}, sim {traced.sim}",
    ]
    if plain.error or traced.error:
        return plain, traced, {}, notes
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{wl.name}-seed{args.seed}.spans"
    tracer.write_spans(spans)
    notes.append(f"{len(tracer.sp_name)} spans written to {spans}")

    ops = traced.ops
    wall = traced.timed_s
    kop = ops / 1e3
    metrics = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls_per_op"] = calls / ops
        metrics[f"{layer}.self_us_per_op"] = self_s * 1e6 / ops
        metrics[f"{layer}.self_share"] = self_s / wall
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update(traced.layer)
    metrics.update({
        "skiplist.index_ratio": ratio(
            counts["frozen_index_hits"], tracer.calls_of("SkipList.frozen_index")),
        "bloom.skip_ratio": ratio(
            counts["bloom_negatives"], tracer.calls_of("BloomFilter.may_contain")),
        "persist.cursor_records_per_op": counts["cursor_records"] / ops,
        "sim.jobs_per_kop": tracer.calls_of("Executor.submit") / kop,
        "sim.settle_useful_ratio": ratio(
            counts["settles_useful"], tracer.calls_of("Executor.settle")),
        "gc.pause_share": tracer.gc_pause_s / wall,
        "gc.collections_per_kop": tracer.gc_collections / kop,
        "trace.overhead_ratio": (
            (plain.ops / plain.scaled_s) / (ops / traced.scaled_s)),
    })
    return plain, traced, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC}/repro); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    calibration = speed.Calibration()
    e2e_units, layer_units = load_metrics()

    raw = None
    if args.trace:
        plain, traced, metrics, notes = per_layer(wl, args, calibration)
        units = layer_units
        same = (plain.fingerprint == traced.fingerprint
                and plain.sim == traced.sim and plain.sim is not None)
        if not same:
            notes.append("FAIL: the traced pass perturbed the simulation")
        runs = (plain, traced)
        correct = same
    else:
        run, metrics, raw, notes = end_to_end(wl, args.seconds, calibration)
        units = e2e_units
        runs = (run,)
        correct = True

    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    correct = correct and failed == 0 and not any(r.error for r in runs)
    for r in runs:
        if r.error:
            print(r.error, file=sys.stderr)
    printed = dict(units)
    if not args.trace:
        printed.update(PRINTED_ONLY)
    metrics["fail_ratio"] = failed / max(attempted, 1)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for name, (unit, better) in printed.items():
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        extra = f"  raw {raw[name]:.6g}" if raw and name in raw else ""
        print(f"  {name:34s} {shown:>14s} {unit:12s} ({better} is better){extra}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    if raw is not None:
        print(RAW_PREFIX + json.dumps(raw))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, __) in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
