#!/usr/bin/env python3
"""Benchmark the ``repro`` serving stack end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload gs-sweep --seed 1 --seconds 10 --trace 0

The program under test runs in its own processes (``repro serve`` daemons
behind ``repro fleet route``), started from the checkout's ``src/``.  One
run:

1. records the host fingerprint and probes the host (eigh time, steal);
2. starts the fleet once untimed (bytecode and page cache), then three
   times timed — ``setup_s`` is the median start-to-first-warm-up-result;
3. drives the last fleet closed-loop for ``--seconds`` (and at least enough
   submissions for a latency tail), observing completion at a fixed
   interval or through the event stream;
4. stops the fleet, probes the host again, and checks every daemon result
   bit for bit against an inline ``run_scenario`` of the same spec.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other submission and probes the engine, store and workspace layers inline,
and prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full report (host,
probes, tail percentile, sample count and spans) goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List

CHECKOUT = Path(__file__).resolve().parent.parent
STATE = CHECKOUT / ".perfbench"

#: Timed fleet starts per run; ``setup_s`` is their median.
SETUPS = 3


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=["gs-sweep", "dc-stream", "short-fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _start(workload, seed: int, state: Path, warmup_index: int):
    """Start a fleet and warm it; returns (fleet, warm-up samples)."""
    from perfbench.driver import warm_up
    from perfbench.fleet import Fleet

    fleet = Fleet(CHECKOUT, state, workload.members).start()
    try:
        return fleet, warm_up(workload, seed, fleet, warmup_index)
    except BaseException:
        fleet.stop()
        raise


def run(name: str, seed: int, seconds: float, trace: bool,
        ) -> Dict[str, Any]:
    from perfbench import host, stats
    from perfbench.driver import (
        closed_loop, cycle_times, identical, reference,
    )
    from perfbench.layers import probe_layers
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    # Store, journals and process logs; left in place when the run fails.
    state = STATE / f"state-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    report: Dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "trace": trace,
                              "host": host.fingerprint()}
    probe = host.HostProbe()
    fleet, samples = _start(workload, seed, state / "prime", 0)
    fleet.stop()
    setups: List[float] = []
    for number in range(SETUPS):
        began = time.perf_counter()
        fleet, warm = _start(workload, seed, state / f"setup-{number}",
                             100 * (number + 1))
        setups.append(time.perf_counter() - began)
        samples += warm
        if number < SETUPS - 1:
            fleet.stop()
    spans = SpanRecorder() if trace else None
    try:
        loop = closed_loop(workload, seed, fleet, seconds,
                           stats.min_samples_for_tail(), spans)
    finally:
        fleet.stop()
    report["host_probe"] = probe.finish()
    measured = loop.samples
    samples += measured
    layers = probe_layers([sample.spec for sample in measured],
                          workload.checkpoint_every,
                          state / "probe-store") if trace else {}
    mismatched = 0
    checked = [sample for sample in samples if sample.ok]
    # Untimed: the fleet is stopped, so the references may use every core.
    # Forked workers, not spawned: a spawn pool starts multiprocessing's
    # resource tracker, a process that outlives this one.  Every thread of
    # the run has been joined by now, so forking is safe.
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)),
                             mp_context=get_context("fork")) as pool:
        references = pool.map(reference, [sample.spec.to_dict()
                                          for sample in checked])
        for sample, expected in zip(checked, references):
            if not identical(expected, sample.outcome):
                sample.error = "result differs from inline run_scenario"
                mismatched += 1
    shutil.rmtree(state, ignore_errors=True)

    failed = sum(1 for sample in samples if not sample.ok)
    ok = [sample for sample in measured if sample.ok]
    latency = stats.latency_summary([sample.latency_s for sample in ok])
    report.update({
        "attempted": len(samples), "failed": failed,
        "mismatched": mismatched, "setup_s": setups,
        "latency": latency, "elapsed_s": loop.elapsed_s,
        "latencies_s": [sample.latency_s for sample in ok],
        "errors": sorted({sample.error for sample in samples
                          if sample.error})[:10],
    })
    if trace:
        metrics = _layer_metrics(workload, ok, cycle_times(measured))
        metrics.update({key: (value, "count" if key.endswith("bytes_per_save")
                              else "ratio" if key.endswith("ratio") else "s")
                        for key, value in layers.items()})
        report["spans"] = spans.spans
    else:
        metrics = {
            "setup_s": (stats.median(setups), "s"),
            "latency_p50_s": (latency["p50"], "s"),
            "latency_tail_s": (latency["tail"], "s"),
            "throughput_runs_per_s": (
                stats.throughput(len(ok), loop.elapsed_s), "1/s"),
        }
    report["metrics"] = {key: {"value": float(value), "unit": unit}
                         for key, (value, unit) in metrics.items()}
    return report


def _layer_metrics(workload, ok, cycles) -> Dict[str, tuple]:
    from perfbench.stats import median

    traced = [sample for sample in ok if sample.record
              and sample.record.get("started_at")
              and sample.record.get("finished_at")]
    if not traced:
        raise RuntimeError("no traced submission completed")
    run_s = {id(s): s.record["finished_at"] - s.record["started_at"]
             for s in traced}
    per_member: Dict[Any, int] = {}
    for sample in traced:
        pid = sample.record.get("worker_pid")
        per_member[pid] = per_member.get(pid, 0) + 1
    return {
        "client.submit_s": (median([s.submit_s for s in traced]), "s"),
        "client.observe_lag_s": (median(
            [s.observed_wall - s.record["finished_at"] for s in traced]),
            "s"),
        "server.queue_wait_s": (median(
            [s.record["started_at"] - s.record["submitted_at"]
             for s in traced]), "s"),
        "server.run_s": (median(list(run_s.values())), "s"),
        "server.overhead_s": (median(
            [s.latency_s - run_s[id(s)] for s in traced]), "s"),
        "server.attempts_per_run": (
            sum(int(s.record.get("attempts") or 1) for s in traced)
            / len(traced), "count"),
        "router.submit_s": (median(
            [s.submitted_at - s.wall_start for s in traced]), "s"),
        "router.imbalance": (
            max(per_member.values()) * workload.members / len(traced),
            "ratio"),
        "trace.overhead_ratio": (
            median(cycles[True]) / median(cycles[False]), "ratio"),
    }


def _print_report(report: Dict[str, Any]) -> None:
    fingerprint = report["host"]
    print(f"host: {fingerprint['nproc']} cpu {fingerprint['cpu_model']}, "
          f"{fingerprint['blas_name']} {fingerprint['blas_version']} "
          f"({fingerprint['blas_threads']} threads), python "
          f"{fingerprint['python']}, numpy {fingerprint['numpy']}, scipy "
          f"{fingerprint['scipy']}")
    probe = report["host_probe"]
    print(f"host probe: eigh {probe['eigh_before_s'] * 1e3:.2f} -> "
          f"{probe['eigh_after_s'] * 1e3:.2f} ms, steal share "
          f"{probe['steal_share']}")
    latency = report["latency"]
    print(f"{report['workload']} seed {report['seed']}: "
          f"{latency['samples']} samples in {report['elapsed_s']:.2f} s, "
          f"tail at p{latency['tail_percentile']:g}; setups "
          + ", ".join(f"{value:.3f}" for value in report["setup_s"]) + " s")
    for key, metric in report["metrics"].items():
        print(f"  {key:<26} {metric['value']:.6g} {metric['unit']}")
    for error in report["errors"]:
        print(f"  error: {error}")


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the ``finally`` blocks, which stop the fleet.
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # One BLAS thread in every process (the fleet inherits this
    # environment): on a small host a second, spinning BLAS thread in the
    # worker fights the daemon, router and clients for the same cores, and
    # turns every stolen CPU slice into a stall of both threads.  Set before
    # numpy is first imported.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (CHECKOUT / "src", CHECKOUT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if CHECKOUT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = STATE / "results" / (f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    _print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
