"""HTTP matching-service smoke test for `make serve-http-smoke` and CI.

Exercises the long-lived service story of `repro serve --http` end to
end in a few seconds, as a real subprocess on a real socket:

1. start the server on an ephemeral port and wait for /healthz, then
   /readyz, to answer 200;
2. create a CSV-backed tenant over HTTP and round-trip /match twice,
   asserting the two bodies are byte-identical, then time 50 sequential
   /predict round trips on one keep-alive connection and assert their
   median is under 20 ms -- half the 40 ms delayed-ACK quantum that a
   reply split into separate head and body writes waits out;
3. SIGTERM the server and assert a clean drain: exit code 128+SIGTERM;
4. start a fresh server over the same registry journal and assert the
   warm-restarted /match body is byte-identical to the pre-kill one
   without re-creating the tenant.

Exits non-zero on any violation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ioutils import atomic_write_text  # noqa: E402

SOURCES = {
    "srcA": {"weight": ["10 kg box", "20 kg box"],
             "color": ["deep red", "sky blue"]},
    "srcB": {"wt": ["10 kg box", "20 kg box"],
             "colour": ["deep red", "sky blue"]},
}

STARTUP_DEADLINE = 60.0

#: Sequential keep-alive /predict round trips timed by the smoke.
PREDICT_ROUND_TRIPS = 50
#: Their median must stay under half the 40 ms delayed-ACK quantum.
PREDICT_MEDIAN_LIMIT_S = 0.020


def write_instances(path: Path) -> Path:
    lines = ["source,property,entity,value"]
    for source, props in SOURCES.items():
        for prop, values in props.items():
            for index, value in enumerate(values):
                lines.append(f"{source},{prop},e{index},{value}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def start_server(root: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--http",
            "--port", "0",
            "--registry-journal", str(root / "registry.journal"),
            "--drain-grace", "10",
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_DEADLINE
    address = None
    while address is None:
        if proc.poll() is not None:
            raise SystemExit(
                f"server died at startup:\n{proc.communicate()[1]}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("server never announced its address")
        line = proc.stderr.readline()
        address = re.search(r"serving on http://([^:]+):(\d+)", line)
    return proc, address.group(1), int(address.group(2))


def request(host, port, method, path, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def predict_round_trips(host, port, tenant: str) -> list[float]:
    """Seconds of each sequential /predict on one keep-alive connection."""
    payload = json.dumps({"pairs": [["srcA", "weight", "srcB", "wt"]]}).encode()
    headers = {"Content-Type": "application/json"}
    connection = http.client.HTTPConnection(host, port, timeout=30)
    seconds = []
    try:
        for _ in range(PREDICT_ROUND_TRIPS):
            started = time.perf_counter()
            connection.request(
                "POST", f"/tenants/{tenant}/predict", body=payload, headers=headers
            )
            response = connection.getresponse()
            body = response.read()
            seconds.append(time.perf_counter() - started)
            assert response.status == 200, (response.status, body)
    finally:
        connection.close()
    return seconds


def await_probe(host, port, path) -> None:
    deadline = time.monotonic() + STARTUP_DEADLINE
    while True:
        try:
            status, _ = request(host, port, "GET", path)
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise SystemExit(f"{path} never answered 200")
        time.sleep(0.05)


def terminate(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        _, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("server did not drain within 30s of SIGTERM")
    expected = 128 + signal.SIGTERM
    if proc.returncode != expected:
        raise SystemExit(
            f"expected exit {expected} after SIGTERM, got {proc.returncode}:"
            f"\n{stderr}"
        )
    return stderr


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        instances = write_instances(root / "tenant.csv")

        proc, host, port = start_server(root)
        try:
            await_probe(host, port, "/healthz")
            await_probe(host, port, "/readyz")
            status, body = request(
                host, port, "POST", "/tenants/smoke",
                {"system": "lsh", "instances": str(instances),
                 "threshold": 0.3},
            )
            assert status == 201, (status, body)
            status, first = request(host, port, "POST", "/tenants/smoke/match")
            assert status == 200, (status, first)
            assert json.loads(first)["matches"], "no matches over threshold"
            status, second = request(host, port, "POST", "/tenants/smoke/match")
            assert (status, second) == (200, first), "match is not stable"
            median = statistics.median(predict_round_trips(host, port, "smoke"))
            assert median < PREDICT_MEDIAN_LIMIT_S, (
                f"median keep-alive /predict round trip {median * 1e3:.1f} ms "
                f">= {PREDICT_MEDIAN_LIMIT_S * 1e3:.0f} ms: replies are waiting "
                "on delayed ACKs"
            )
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        print("create + match round-trip OK")
        print(
            f"median of {PREDICT_ROUND_TRIPS} keep-alive /predict round trips: "
            f"{median * 1e3:.2f} ms OK"
        )
        terminate(proc)
        print(f"drained clean on SIGTERM (exit {128 + signal.SIGTERM})")

        proc, host, port = start_server(root)
        try:
            await_probe(host, port, "/readyz")
            status, body = request(host, port, "GET", "/tenants")
            assert status == 200 and "smoke" in json.loads(body)["tenants"], (
                "warm restart lost the tenant"
            )
            status, restarted = request(
                host, port, "POST", "/tenants/smoke/match"
            )
            assert (status, restarted) == (200, first), (
                "warm-restarted match is not byte-identical"
            )
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        print("warm restart byte-identical OK")
        terminate(proc)
    print("serve http smoke: all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
