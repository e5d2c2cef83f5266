"""Self-tests of the benchmark's own logic; no daemon is started.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import threading
import types

import numpy as np
import pytest

import repro.api.client as client_module
from repro.api import ServeClient
from repro.api.result import RunResult

from perfbench import driver, stats
from perfbench.workloads import MEASURED, WARMUP, WORKLOADS


# ----------------------------------------------------------------------
# Completion is observed at a fixed interval, never on the backoff grid
# ----------------------------------------------------------------------
class _FakeDaemon(ServeClient):
    """A daemon whose one run finishes at virtual time ``finish_at``; the
    client's clock and sleeps are virtual, so nothing races wall time."""

    def __init__(self, finish_at: float) -> None:
        super().__init__()
        self.now = 0.0
        self.finish_at = finish_at

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def _request(self, method, path, body=None, idempotent=False,
                 deadline=None, timeout=None):
        if path.endswith("/result"):
            return {"ok": RunResult("s", "e", [0.0], {"x": [1.0]}).to_dict()}
        return {"status": "done" if self.now >= self.finish_at
                else "running"}


def _observed_at(monkeypatch, finish_at: float, **wait_kwargs) -> float:
    daemon = _FakeDaemon(finish_at)
    monkeypatch.setattr(client_module, "time", types.SimpleNamespace(
        monotonic=lambda: daemon.now, sleep=daemon.sleep))
    daemon.wait("run", **wait_kwargs)
    return daemon.now


@pytest.mark.parametrize("finish_at", [0.0, 0.003, 0.0101, 0.25, 0.5237,
                                       1.2, 3.333])
def test_fixed_interval_adds_at_most_one_interval(monkeypatch, finish_at):
    poll = 0.01
    observed = _observed_at(monkeypatch, finish_at, poll=poll, poll_cap=poll)
    assert finish_at <= observed <= finish_at + poll + 1e-9


def test_default_backoff_observes_only_on_its_grid(monkeypatch):
    # The program finding the benchmark avoids: with the default schedule a
    # run is seen only at 0.1 * (2**k - 1) s (capped at 2 s steps).
    grid = [0.1 * (2 ** k - 1) for k in range(5)]
    for finish_at in (0.05, 0.31, 0.71, 0.8, 1.49):
        observed = _observed_at(monkeypatch, finish_at)
        assert min(abs(observed - point) for point in grid) < 1e-9
    assert _observed_at(monkeypatch, 0.71) - 0.71 > 0.7


def test_benchmark_waits_with_poll_cap_equal_to_poll():
    calls = []

    class Recorder:
        def wait(self, run_id, **kwargs):
            calls.append(kwargs)

    for workload in WORKLOADS.values():
        if workload.poll_s is not None:
            driver._observe(Recorder(), workload, "run")
            assert calls[-1]["poll"] == calls[-1]["poll_cap"] \
                == workload.poll_s


def test_streaming_workload_reads_events_to_the_terminal_event():
    outcome = {"ok": RunResult("s", "e", [0.0], {"x": [2.0]}).to_dict()}

    class Streamer:
        decode_outcome = staticmethod(ServeClient.decode_outcome)

        def events(self, run_id):
            yield {"event": "status", "status": "running"}
            yield {"event": "checkpoint", "step": 5}
            yield {"event": "done", "outcome": outcome}

    streamed = [w for w in WORKLOADS.values() if w.poll_s is None]
    assert streamed
    result = driver._observe(Streamer(), streamed[0], "run")
    assert result.observables["x"].tolist() == [2.0]


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [40, 41, 57, 199, 200, 737, 1000, 9999,
                               10000, 20000])
def test_tail_leaves_ten_samples_beyond_and_is_not_the_median(n):
    q = stats.tail_percentile(n)
    index = stats.rank(q, n)
    assert n - 1 - index >= stats.TAIL_BEYOND
    assert index > stats.rank(50.0, n)
    higher = [p for p in stats.TAIL_LADDER if p > q]
    assert all(n - 1 - stats.rank(p, n) < stats.TAIL_BEYOND
               for p in higher)


def test_too_few_samples_have_no_tail():
    n = stats.min_samples_for_tail()
    with pytest.raises(ValueError):
        stats.tail_percentile(n - 1)
    stats.tail_percentile(n)


def test_latency_summary_never_reports_p50_as_the_tail():
    values = list(np.linspace(0.1, 0.2, stats.min_samples_for_tail()))
    summary = stats.latency_summary(values)
    assert summary["tail"] > summary["p50"]
    assert summary["samples"] == len(values)
    assert summary["tail_percentile"] > 50.0


# ----------------------------------------------------------------------
# Throughput is closed-loop completions per elapsed second
# ----------------------------------------------------------------------
def test_closed_loop_throughput_counts_completions(monkeypatch):
    in_flight = {}
    overlaps = []
    lock = threading.Lock()
    service_s = 0.01

    def fake_submit(client, workload, sample, spans=None):
        with lock:
            if in_flight.get(sample.client):
                overlaps.append(sample.index)
            in_flight[sample.client] = True
        sample.started = driver.time.perf_counter()
        threading.Event().wait(service_s)
        sample.latency_s = driver.time.perf_counter() - sample.started
        sample.outcome = RunResult("s", "e", [0.0], {})
        with lock:
            in_flight[sample.client] = False
        return sample

    monkeypatch.setattr(driver, "submit_and_observe", fake_submit)
    fleet = types.SimpleNamespace(router_address=("127.0.0.1", 1))
    workload = WORKLOADS["short-fleet"]
    loop = driver.closed_loop(workload, 0, fleet, seconds=0.2,
                              min_samples=5)
    assert not overlaps  # a client never has two submissions in flight
    completions = len(loop.samples)
    rate = stats.throughput(completions, loop.elapsed_s)
    assert rate == completions / loop.elapsed_s
    # Bounded by what the clients could complete, whatever the window.
    assert completions <= workload.clients * (loop.elapsed_s / service_s + 1)
    assert sorted(s.index for s in loop.samples) == list(range(completions))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_generates_inputs_deterministically(name):
    workload = WORKLOADS[name]
    first = [workload.spec(7, i).to_dict() for i in range(8)]
    again = [workload.spec(7, i).to_dict() for i in range(8)]
    other = [workload.spec(8, i).to_dict() for i in range(8)]
    warm = [workload.spec(7, i, WARMUP).to_dict() for i in range(8)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert not any(spec in first for spec in warm)
    assert len({repr(spec) for spec in first}) == len(first)


def test_stream_delays_are_seeded_and_within_one_event_period(monkeypatch):
    def delays_of_one_loop():
        delays = {}

        def fake_submit(client, workload, sample, spans=None):
            delays[sample.index] = sample.stream_delay_s
            sample.outcome = RunResult("s", "e", [0.0], {})
            return sample

        monkeypatch.setattr(driver, "submit_and_observe", fake_submit)
        fleet = types.SimpleNamespace(router_address=("127.0.0.1", 1))
        driver.closed_loop(WORKLOADS["dc-stream"], 5, fleet, seconds=0.0,
                           min_samples=20)
        return delays

    first = delays_of_one_loop()
    assert delays_of_one_loop() == first and len(first) >= 20
    assert all(0.0 <= d < driver.EVENT_PERIOD_S for d in first.values())
    assert len(set(first.values())) == len(first)


def test_gs_sweep_specs_share_every_prepare_deciding_section():
    specs = [WORKLOADS["gs-sweep"].spec(3, i, MEASURED).to_dict()
             for i in range(20)]
    for section in ("engine", "seed", "grid", "material", "propagator"):
        assert all(spec[section] == specs[0][section] for spec in specs)
    assert len({repr(spec["pulse"]) for spec in specs}) == len(specs)


def test_dc_stream_specs_all_differ_in_material():
    specs = [WORKLOADS["dc-stream"].spec(3, i, MEASURED).to_dict()
             for i in range(50)]
    assert len({repr(spec["material"]) for spec in specs}) == len(specs)


# ----------------------------------------------------------------------
# Correctness comparison
# ----------------------------------------------------------------------
def test_identical_compares_bits():
    base = RunResult("s", "e", [0.0, 1.0], {"x": [0.0, 1.0]})
    same = RunResult("s", "e", [0.0, 1.0], {"x": [0.0, 1.0]})
    signed = RunResult("s", "e", [0.0, 1.0], {"x": [-0.0, 1.0]})
    ulp = RunResult("s", "e", [0.0, 1.0],
                    {"x": [0.0, np.nextafter(1.0, 2.0)]})
    assert driver.identical(base, same)
    assert not driver.identical(base, signed)
    assert not driver.identical(base, ulp)
