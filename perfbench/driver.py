"""Drive a fleet the way a user does: closed-loop clients over the router.

Completion is never observed through ``ServeClient.wait``'s doubling
backoff: ``wait`` runs with ``poll == poll_cap`` (one fixed interval), or the
event stream is read to its terminal event.  Latency is ``submit()`` until
the outcome is in the client's hands.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import (
    ScenarioSpec, ServeClient, ServeError, ServeUnavailable, run_scenario,
)
from repro.api.result import RunFailure, RunResult

from perfbench.spans import SpanRecorder
from perfbench.workloads import MEASURED, WARMUP, Workload

#: Upper bound on one submission's wait, seconds.
WAIT_TIMEOUT_S = 120.0

_CLIENT_ERRORS = (ServeError, ServeUnavailable, TimeoutError, KeyError,
                  ValueError)

#: Period of the daemon's event-stream loop, seconds.  A stream opened right
#: after submit sees completion on a grid of these ticks anchored at the
#: submit, so its latency would land on that grid; opening it after a
#: seeded delay in [0, period) spreads the tick phase across submissions.
EVENT_PERIOD_S = 0.05


@dataclass
class Sample:
    """One submission as the client saw it."""

    index: int
    spec: Any
    client: int
    started: float = 0.0     # perf_counter at submit()
    submit_s: float = 0.0
    latency_s: float = 0.0
    wall_start: float = 0.0  # time.time() at submit()
    run_id: str = ""
    routed_to: str = ""
    submitted_at: float = 0.0
    outcome: Any = None
    error: Optional[str] = None
    stream_delay_s: float = 0.0  # wait between the ack and opening events()
    traced: bool = False
    record: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None and isinstance(self.outcome, RunResult)

    @property
    def observed_wall(self) -> float:
        return self.wall_start + self.latency_s


def _observe(client: ServeClient, workload: Workload, run_id: str):
    if workload.poll_s is None:
        for event in client.events(run_id):
            if event.get("event") in ("done", "failed"):
                return client.decode_outcome(event["outcome"])
        raise ServeUnavailable(f"event stream of {run_id} ended early")
    return client.wait(run_id, timeout=WAIT_TIMEOUT_S,
                       poll=workload.poll_s, poll_cap=workload.poll_s)


def submit_and_observe(client: ServeClient, workload: Workload,
                       sample: Sample,
                       spans: Optional[SpanRecorder] = None) -> Sample:
    """Submit ``sample.spec`` and block until its outcome is observed."""
    sample.wall_start = time.time()
    sample.started = time.perf_counter()
    try:
        ack = client.submit(sample.spec,
                            checkpoint_every=workload.checkpoint_every)
        sample.submit_s = time.perf_counter() - sample.started
        sample.run_id = str(ack["run_id"])
        sample.routed_to = str(ack.get("routed_to", ""))
        sample.submitted_at = float(ack.get("submitted_at") or 0.0)
        time.sleep(sample.stream_delay_s)
        sample.outcome = _observe(client, workload, sample.run_id)
        sample.latency_s = time.perf_counter() - sample.started
        if isinstance(sample.outcome, RunFailure):
            sample.error = f"run failed: {sample.outcome.error}"
    except _CLIENT_ERRORS as exc:
        sample.latency_s = time.perf_counter() - sample.started
        sample.error = f"{type(exc).__name__}: {exc}"
    if spans is not None and sample.run_id:
        _trace(client, sample, spans)
    return sample


def _trace(client: ServeClient, sample: Sample, spans: SpanRecorder) -> None:
    """Record the submission's spans; the daemon's stamps come from one
    ``status()`` call made after the outcome was observed."""
    sample.traced = True
    start, end = sample.wall_start, sample.observed_wall
    root = spans.add("bench.submission", sample.run_id, start, end,
                     index=sample.index, client=sample.client)
    spans.add("client.submit", sample.run_id, start,
              start + sample.submit_s, parent=root,
              routed_to=sample.routed_to)
    spans.add("client.observe", sample.run_id, start + sample.submit_s, end,
              parent=root)
    status_start = time.time()
    try:
        sample.record = client.status(sample.run_id)
    except _CLIENT_ERRORS:
        return
    spans.add("bench.status", sample.run_id, status_start, time.time(),
              parent=root)
    record = sample.record
    if record.get("started_at") and record.get("finished_at"):
        spans.add("server.queue", sample.run_id, record["submitted_at"],
                  record["started_at"], parent=root)
        spans.add("server.run", sample.run_id, record["started_at"],
                  record["finished_at"], parent=root,
                  attempts=record.get("attempts"),
                  worker_pid=record.get("worker_pid"))


def reference(spec: Dict[str, Any]) -> RunResult:
    """Inline ``run_scenario`` of one spec dict (a reference pool's job)."""
    return run_scenario(ScenarioSpec.from_dict(spec))


def _bits(values) -> tuple:
    array = np.asarray(values)
    kind = np.complex128 if np.iscomplexobj(array) else np.float64
    return array.shape, np.ascontiguousarray(array, dtype=kind).tobytes()


def identical(expected: RunResult, actual: RunResult) -> bool:
    """Times and every observable equal bit for bit."""
    if _bits(expected.times) != _bits(actual.times):
        return False
    if set(expected.observables) != set(actual.observables):
        return False
    return all(_bits(expected.observables[name])
               == _bits(actual.observables[name])
               for name in expected.observables)


def _client(address: Tuple[str, int]) -> ServeClient:
    return ServeClient(host=address[0], port=address[1],
                       timeout=WAIT_TIMEOUT_S)


def warm_up(workload: Workload, seed: int, fleet, first_index: int,
            ) -> List[Sample]:
    """One warm-up run per member, concurrently, through the router; a
    member the router did not pick is then warmed directly."""
    router = _client(fleet.router_address)
    samples = [Sample(first_index + k,
                      workload.spec(seed, first_index + k, WARMUP), k)
               for k in range(workload.members)]
    threads = [threading.Thread(target=submit_and_observe,
                                args=(router, workload, sample), daemon=True)
               for sample in samples]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    warmed = {sample.routed_to for sample in samples}
    index = first_index + workload.members
    for host, port in fleet.member_addresses:
        if f"{host}:{port}" not in warmed:
            sample = Sample(index, workload.spec(seed, index, WARMUP), -1)
            samples.append(submit_and_observe(_client((host, port)),
                                              workload, sample))
            index += 1
    return samples


@dataclass
class LoopResult:
    samples: List[Sample]
    elapsed_s: float


def closed_loop(workload: Workload, seed: int, fleet, seconds: float,
                min_samples: int, spans: Optional[SpanRecorder] = None,
                ) -> LoopResult:
    """``workload.clients`` threads, each submitting its next run only once
    its previous one was observed, for ``seconds`` and at least
    ``min_samples`` submissions.  With ``spans``, every other submission is
    traced, so the untraced half measures the tracing overhead."""
    indices = itertools.count()
    lock = threading.Lock()
    samples: List[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds

    def run_client(client_id: int) -> None:
        client = _client(fleet.router_address)
        while True:
            with lock:
                index = next(indices)
                if index >= min_samples and time.perf_counter() >= deadline:
                    return
            sample = Sample(index, workload.spec(seed, index, MEASURED),
                            client_id)
            if workload.poll_s is None:
                sample.stream_delay_s = float(np.random.default_rng(
                    [seed, MEASURED, index, 1]).uniform(0.0, EVENT_PERIOD_S))
            traced = spans is not None and index % 2 == 1
            submit_and_observe(client, workload, sample,
                               spans if traced else None)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=run_client, args=(k,), daemon=True)
               for k in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max(sample.started + sample.latency_s for sample in samples)
    samples.sort(key=lambda sample: sample.index)
    return LoopResult(samples=samples, elapsed_s=end - start)


def cycle_times(samples: List[Sample]) -> Dict[bool, List[float]]:
    """Submit-to-next-submit time per client, split by traced or not."""
    cycles: Dict[bool, List[float]] = {False: [], True: []}
    by_client: Dict[int, List[Sample]] = {}
    for sample in samples:
        by_client.setdefault(sample.client, []).append(sample)
    for own in by_client.values():
        own.sort(key=lambda sample: sample.started)
        for current, following in zip(own, own[1:]):
            cycles[current.traced].append(following.started - current.started)
    return cycles
