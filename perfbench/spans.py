"""The benchmark's own span recorder.

Spans live in memory (name, start, end, parent, trace id = run id, and a
few attributes) and are written out once, with the run's report.  Times
are wall-clock seconds so they line up with the daemon's ``submitted_at``
/ ``started_at`` / ``finished_at`` stamps on the same host.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, trace_id: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: Any) -> int:
        with self._lock:
            span_id = next(self._ids)
            self.spans.append({"id": span_id, "trace_id": trace_id,
                               "parent": parent, "name": name,
                               "start": start, "end": end, "attrs": attrs})
        return span_id
