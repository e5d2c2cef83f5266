"""Make ``perfbench`` and the program under test importable when the
self-tests run as ``python3 -m pytest perfbench/tests`` from the checkout."""

import sys
from pathlib import Path

_CHECKOUT = Path(__file__).resolve().parents[2]
for _path in (_CHECKOUT / "src", _CHECKOUT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
