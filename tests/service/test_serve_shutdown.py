"""``repro-match serve`` answers ``shutdown`` before it exits.

The daemon's handler threads do not outlive the process, so the server may
stop only after the ``stopping`` reply is flushed. The race is timing
dependent: run the real CLI repeatedly so a lost reply shows.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.service.online import OnlineClient

SRC = Path(__file__).resolve().parents[2] / "src"


def _wait_for(path: Path, proc: subprocess.Popen, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert proc.poll() is None, proc.stderr.read()
        assert time.monotonic() < deadline, f"daemon never bound {path}"
        time.sleep(0.01)


def test_shutdown_reply_arrives_every_time(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for attempt in range(20):
        sock = tmp_path / f"serve{attempt}.sock"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", str(sock)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _wait_for(sock, proc)
            with OnlineClient(sock, timeout=10.0) as client:
                reply = client.shutdown_server()
            assert reply["stopping"] is True, attempt
            assert proc.wait(timeout=30) == 0, attempt
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
