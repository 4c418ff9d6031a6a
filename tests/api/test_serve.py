"""``python -m repro.cli serve`` lifecycle: signals stop the fleet."""

import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_sigint_stops_serve_started_with_sigint_ignored():
    """A shell starts a background job with SIGINT ignored; serve must
    still stop on ``kill -INT`` and take its shard processes down."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "webs", "--shards", "1", "--port", "0",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if "serving on" in line:
                break
        else:
            raise AssertionError("serve exited before listening")
        proc.send_signal(signal.SIGINT)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, output
    assert "fleet stopped" in output
