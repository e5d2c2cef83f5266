"""Inline per-layer probes on the workload's own specs.

The engine layer is driven through the public ``build_engine(spec)``
protocol (``prepare`` / ``step`` / ``checkpoint``) with the run loop's
record and checkpoint cadence: a snapshot every ``checkpoint_every`` steps
and one at the final step, as the daemon's workers write them.  Each
snapshot is saved with ``RunStore.save`` and followed by the
``RunStore.steps`` lookup the event stream makes, and one fresh
``KernelWorkspace`` serves every probe, as one warm worker serves a
stream of submissions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.api import build_engine
from repro.perf.workspace import KernelWorkspace
from repro.store.runstore import RunStore

from perfbench.stats import median


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def probe_layers(specs: Sequence, checkpoint_every: Optional[int],
                 store_root: Path, budget_s: float = 2.0,
                 ) -> Dict[str, float]:
    """Probe ``specs`` in order until ``budget_s`` is spent (at least two)."""
    workspace = KernelWorkspace()
    # An owner makes every save claim the run lease, as a daemon's saves do.
    store = RunStore(store_root, owner="perfbench-probe")
    prepare: List[float] = []
    step: List[float] = []
    checkpoint: List[float] = []
    save: List[float] = []
    steps_lookup: List[float] = []
    saved_bytes: List[int] = []
    began = time.perf_counter()
    for number, spec in enumerate(specs):
        if number >= 2 and time.perf_counter() - began >= budget_s:
            break
        run_id = f"probe-{number}"
        engine = build_engine(spec, workspace=workspace)
        start = time.perf_counter()
        engine.prepare()
        prepare.append(time.perf_counter() - start)
        engine.record()
        total = spec.runtime.num_steps
        run_dir = store.run_dir(spec.name, run_id)
        for index in range(1, total + 1):
            start = time.perf_counter()
            engine.step(1)
            step.append(time.perf_counter() - start)
            if index % spec.runtime.record_every == 0:
                engine.record()
            if index == total or (checkpoint_every
                                  and index % checkpoint_every == 0):
                start = time.perf_counter()
                snapshot = engine.checkpoint()
                checkpoint.append(time.perf_counter() - start)
                before = _tree_bytes(run_dir) if run_dir.exists() else 0
                start = time.perf_counter()
                store.save(snapshot, run_id=run_id)
                save.append(time.perf_counter() - start)
                saved_bytes.append(_tree_bytes(run_dir) - before)
                start = time.perf_counter()
                store.steps(spec.name, run_id)
                steps_lookup.append(time.perf_counter() - start)
    stats = workspace.stats
    lookups = stats["phase_hits"] + stats["phase_misses"]
    return {
        "engine.prepare_s": median(prepare),
        "engine.step_s": median(step),
        "engine.checkpoint_s": median(checkpoint),
        "store.save_s": median(save),
        "store.bytes_per_save": median(saved_bytes),
        "store.steps_s": median(steps_lookup),
        "workspace.hit_ratio": stats["phase_hits"] / lookups if lookups
        else 0.0,
    }
