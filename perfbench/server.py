"""Launch, probe and stop ``python -m repro.cli serve``.

The server is started from the checkout's own sources
(``PYTHONPATH=src``) in a session of its own, on port 0; the port is
read from the line ``serve`` prints once it listens.  Set-up time runs
from the launch to the first 200 from ``GET /healthz``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import proctree

HOST = "127.0.0.1"
_LISTENING = re.compile(r"serving on http://[^:]+:(\d+)")


class ServeError(RuntimeError):
    """The server did not come up, or answered a probe wrongly."""


def get_json(port: int, path: str, timeout_s: float = 10.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read() or b"{}")
    finally:
        conn.close()


class Serve:
    """One ``serve`` process tree."""

    def __init__(
        self,
        root: Path,
        serve_args: list[str],
        log_path: Path,
        traced: bool = False,
        env: dict[str, str] | None = None,
    ) -> None:
        self.root = root
        self.log_path = log_path
        if traced:
            entry = [str(root / "perfbench" / "serve_traced.py")]
        else:
            entry = ["-m", "repro.cli", "serve"]
        self.argv = [sys.executable, *entry, *serve_args, "--port", "0"]
        self.env = {
            **os.environ,
            **(env or {}),
            "PYTHONPATH": str(root / "src"),
        }
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 120.0) -> float:
        """Launch and wait for a healthy fleet; return the set-up time."""
        launched = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = launched + timeout_s
        while not self.port:
            self._check_alive(deadline)
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = get_json(self.port, "/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            time.sleep(0.005)
        return time.perf_counter() - launched

    def _check_alive(self, deadline: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise ServeError(
                f"serve exited with {self.proc.returncode}:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            raise ServeError("serve did not become healthy in time")

    def pids(self) -> list[int]:
        assert self.proc is not None
        return proctree.tree(self.proc.pid)

    def stop(self, timeout_s: float = 10.0) -> bool:
        """Graceful stop (SIGINT: shards drain and exit), then reap.

        Returns False when ``serve`` did not exit within ``timeout_s`` and
        had to be killed.
        """
        if self.proc is None:
            return True
        pids = self.pids()
        graceful = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                graceful = False
        self._reap(pids)
        return graceful

    def kill(self) -> None:
        """Hard stop of the whole tree."""
        if self.proc is None:
            return
        self._reap(self.pids())

    def _reap(self, pids: list[int]) -> None:
        assert self.proc is not None
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        # shards are the front door's children: once it is gone they
        # are reparented, so wait for them through /proc
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline and any(map(proctree.alive, pids[1:])):
            time.sleep(0.01)
        self.proc = None
