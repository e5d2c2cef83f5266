"""The three workloads: their fleet topology and their seeded inputs.

Every input is a pure function of ``(seed, stream, index)``: submission
``index`` of a run with seed ``seed`` always carries the same spec, and the
program under test only ever sees the generated specs.  Warm-up submissions
draw from their own stream, so they never repeat a measured input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.api import ScenarioSpec, default_registry

#: RNG streams: measured submissions and warm-up submissions.
MEASURED, WARMUP = 0, 1


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one fleet shape.

    ``poll_s`` is the fixed interval of ``ServeClient.wait(poll=P,
    poll_cap=P)``; ``None`` means the workload observes completion by
    reading ``ServeClient.events()`` to its end instead.
    """

    name: str
    scenario: str
    members: int
    clients: int
    poll_s: Optional[float]
    checkpoint_every: Optional[int]
    overrides: Dict[str, Any]

    def spec(self, seed: int, index: int, stream: int = MEASURED,
             ) -> ScenarioSpec:
        """The spec of submission ``index`` in ``stream`` under ``seed``."""
        rng = np.random.default_rng([int(seed), int(stream), int(index)])
        return default_registry().get(self.scenario).with_overrides(
            {**self.overrides, **_DRAWS[self.name](rng)})


def _pulse_draw(rng: np.random.Generator) -> Dict[str, Any]:
    # Only the pulse varies: grid, material, SCF parameters and the spec
    # seed stay fixed, so every submission has the same ground state.
    return {"pulse.e0": float(rng.uniform(0.04, 0.12)),
            "pulse.omega": float(rng.uniform(0.30, 0.50))}


def _centre_draw(rng: np.random.Generator) -> Dict[str, Any]:
    # The atom centre moves, so no two submissions share a ground state.
    centre = 4.0 + rng.uniform(-0.4, 0.4, size=3)
    return {"material.centers": [[float(x) for x in centre]]}


_DRAWS = {
    "gs-sweep": _pulse_draw,
    "dc-stream": _centre_draw,
    "short-fleet": _pulse_draw,
}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="gs-sweep", scenario="quickstart-tddft", members=1,
            clients=1, poll_s=0.01, checkpoint_every=None,
            # A 6^3 grid keeps one run near 0.25 s, so one window holds the
            # 40 samples a tail needs; SCF is still ~80% of the latency.
            overrides={"grid.shape": [6, 6, 6], "runtime.num_steps": 20},
        ),
        Workload(
            name="dc-stream", scenario="dcmesh-pulse", members=1,
            clients=1, poll_s=None, checkpoint_every=5,
            overrides={"runtime.num_steps": 60},
        ),
        Workload(
            name="short-fleet", scenario="maxwell-vacuum", members=2,
            clients=2, poll_s=0.005, checkpoint_every=None,
            overrides={"runtime.num_steps": 5},
        ),
    )
}
