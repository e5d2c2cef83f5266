"""Start and stop the program under test in its own processes.

A fleet is ``members`` daemons (``repro serve --workers 1``) sharing one
state root, fronted by one ``repro fleet route`` router.  Each process runs
in its own session, so stopping it also reaches the worker processes its
pool spawned: SIGTERM first (the daemons drain), SIGKILL to the whole
process group after a grace period, and the stop returns only once every
process of every group has ended.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")

#: Seconds a process may take to print its listening line.
START_TIMEOUT_S = 60.0

#: Seconds SIGTERM gets before the process group is killed.
STOP_GRACE_S = 10.0

#: Interval at which a starting process's log is checked, seconds.
POLL_S = 0.002


class FleetError(RuntimeError):
    """A program process failed to start."""


class _Process:
    """One program process; stdout and stderr go to its log file, where
    the listening line is read from."""

    def __init__(self, argv: List[str], env: dict, log: Path) -> None:
        self.argv = argv
        self.log = log
        with open(log, "w", encoding="utf-8") as handle:
            self.popen = subprocess.Popen(
                argv, stdout=handle, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        self.address: Optional[Tuple[str, int]] = None

    def wait_listening(self, deadline: float) -> Tuple[str, int]:
        """Block until the process has printed its listening line."""
        while True:
            match = _LISTENING.search(self.log.read_text(encoding="utf-8"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.popen.poll() is not None or time.monotonic() > deadline:
                raise FleetError(
                    f"{' '.join(self.argv[2:4])} printed no listening line "
                    f"(exit code {self.popen.poll()}; see {self.log})")
            time.sleep(POLL_S)

    def terminate(self) -> None:
        if self.popen.poll() is None:
            try:
                self.popen.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass

    def reap(self, deadline: float) -> None:
        """Wait for the process and everything in its group to end."""
        try:
            self.popen.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        _kill_group(self.popen.pid)
        self.popen.wait()


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until no member of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    # A killed process that nobody reaps stays visible as a zombie; it has
    # ended, so the wait is bounded rather than spinning on it.
    deadline = time.monotonic() + STOP_GRACE_S
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Fleet:
    """``members`` daemons plus a router over one state root."""

    def __init__(self, checkout: Path, state: Path, members: int) -> None:
        self.checkout = Path(checkout)
        self.state = Path(state)
        self.members = int(members)
        self.daemons: List[_Process] = []
        self.router: Optional[_Process] = None

    def _env(self) -> dict:
        env = dict(os.environ)
        src = str(self.checkout / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def start(self) -> "Fleet":
        """Launch every process at once and wait for all to listen."""
        root = self.state / "root"
        root.mkdir(parents=True, exist_ok=True)
        env = self._env()
        python = [sys.executable, "-m", "repro"]
        try:
            for index in range(self.members):
                self.daemons.append(_Process(
                    python + ["serve", "--port", "0", "--workers", "1",
                              "--checkpoint-dir", str(root)],
                    env, self.state / f"daemon-{index}.log"))
            self.router = _Process(
                python + ["fleet", "route", "--port", "0",
                          "--root", str(root)],
                env, self.state / "router.log")
            deadline = time.monotonic() + START_TIMEOUT_S
            for process in self.daemons + [self.router]:
                process.wait_listening(deadline)
        except BaseException:
            self.stop()
            raise
        return self

    @property
    def router_address(self) -> Tuple[str, int]:
        return self.router.address

    @property
    def member_addresses(self) -> List[Tuple[str, int]]:
        return [daemon.address for daemon in self.daemons]

    def stop(self) -> None:
        processes = self.daemons + ([self.router] if self.router else [])
        for process in processes:
            process.terminate()
        deadline = time.monotonic() + STOP_GRACE_S
        for process in processes:
            process.reap(deadline)
        self.daemons, self.router = [], None
