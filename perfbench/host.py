"""Host fingerprint and noise probes, recorded beside the metrics, ungated.

The fingerprint says what machine a number came from; the probes, taken
before and after each workload, say whether the machine was slow or
shared at the time, so a noisy host can be told apart from a regression.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from typing import Any, Dict, Optional

import numpy as np
import scipy
import scipy.linalg

#: Size of the Hermitian eigenproblem the probe times.
PROBE_N = 192


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def fingerprint() -> Dict[str, Any]:
    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_times() -> Optional[list]:
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields[:1] == ["cpu"] \
        else None


def eigh_probe(repeats: int = 5) -> float:
    """Median seconds of one fixed-size complex Hermitian ``eigh``."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((PROBE_N, PROBE_N)) \
        + 1j * rng.standard_normal((PROBE_N, PROBE_N))
    h = a + a.conj().T
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        scipy.linalg.eigh(h)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class HostProbe:
    """Probe before a workload; :meth:`finish` probes after it and returns
    the eigh times and the steal share of CPU time in between."""

    def __init__(self) -> None:
        self.eigh_before_s = eigh_probe()
        self._cpu = _cpu_times()

    def finish(self) -> Dict[str, Any]:
        after = _cpu_times()
        steal = None
        if self._cpu is not None and after is not None and len(after) > 7:
            delta = [b - a for a, b in zip(self._cpu, after)]
            total = sum(delta[:8])  # user..steal; guest is inside user
            steal = delta[7] / total if total > 0 else 0.0
        return {"eigh_before_s": self.eigh_before_s,
                "eigh_after_s": eigh_probe(), "steal_share": steal}
