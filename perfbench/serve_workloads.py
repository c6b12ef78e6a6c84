"""Serve workloads: a ``repro serve --http`` process under closed-loop clients.

The server runs as its own process, started from ``server_entry.py``
(which installs the layer wrappers only in traced mode).  Clients are
threads of the benchmark process; each waits for a reply before it
sends its next request.  Datasets are generated with seed 0 and sources
are added in sorted order, so every run serves and reloads the same
data with the same models; ``--seed`` drives the request streams.
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
import threading
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from spans import LANE_HEADER

STARTUP_DEADLINE_S = 60.0
#: serve_predict's traffic mix is an assumption, not a measurement:
#: nothing in the repository says what callers send.  Every
#: MATCH_EVERY-th request of a client is a /match; the others are
#: /predict with a pair count drawn uniformly from 1..MAX_PREDICT_PAIRS.
MATCH_EVERY = 16
MAX_PREDICT_PAIRS = 64
RATE_BLOCK = 20


class ServerProcess:
    """``repro serve --http`` on an ephemeral port, stopped with SIGTERM."""

    def __init__(self, root: Path, workdir: Path, trace_dir: Path | None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(root / "perfbench" / "server_entry.py")]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += [
            "serve", "--http", "--port", "0",
            "--registry-journal", str(workdir / "registry.journal"),
            "--drain-grace", "10",
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        address = None
        started = perf_counter()
        while address is None:
            line = self.process.stderr.readline()
            if not line and self.process.poll() is not None:
                raise RuntimeError(f"server exited at start-up: {''.join(self.stderr)}")
            self.stderr.append(line)
            address = re.search(r"serving on http://([^:]+):(\d+)", line)
            if perf_counter() - started > STARTUP_DEADLINE_S:
                self.kill()
                raise RuntimeError("server never announced its address")
        self.host, self.port = address.group(1), int(address.group(2))
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def stop(self) -> None:
        """SIGTERM, wait for the drain; the service exits 128+SIGTERM."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self._drain.join(timeout=10)
        if self.process.returncode != 128 + signal.SIGTERM:
            raise RuntimeError(
                f"server exited {self.process.returncode}: {''.join(self.stderr[-5:])}"
            )

    def kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)


class Client:
    """One keep-alive connection; records the round trip of every call."""

    def __init__(self, server: ServerProcess, tracer=None) -> None:
        self._address = (server.host, server.port)
        self._tracer = tracer
        self._connection = http.client.HTTPConnection(*self._address, timeout=60)

    def call(self, method: str, path: str, body=None) -> tuple[int | None, bytes, float]:
        """``(status or None on transport error, body, seconds)``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        tracer = self._tracer
        if tracer is not None:
            headers[LANE_HEADER] = tracer.lane_id()
            tracer.enter("server.transport")
        started = perf_counter()
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            self._connection = http.client.HTTPConnection(*self._address, timeout=60)
            status, data = None, b""
        finally:
            seconds = perf_counter() - started
            if tracer is not None:
                tracer.exit()
        if tracer is not None:
            tracer.count("server.response_bytes", len(data))
        return status, data, seconds

    def close(self) -> None:
        self._connection.close()


def await_ready(client: Client) -> None:
    started = perf_counter()
    while client.call("GET", "/readyz")[0] != 200:
        if perf_counter() - started > STARTUP_DEADLINE_S:
            raise RuntimeError("/readyz never answered 200")
        sleep(0.02)


def completion_rates(finished: list[float], started: float, wall: float) -> list[float]:
    """Completions per second over consecutive blocks of ``RATE_BLOCK`` completions.

    Their median is the throughput figure: unlike the mean over the whole
    phase it is not dragged by a stall of the shared host.
    """
    moments = [started, *sorted(finished)]
    if len(moments) <= RATE_BLOCK:
        return [len(finished) / wall]
    return [
        RATE_BLOCK / (moments[i + RATE_BLOCK] - moments[i])
        for i in range(0, len(moments) - RATE_BLOCK, RATE_BLOCK)
    ]


def cross_pairs(dataset) -> list[list[str]]:
    """Every cross-source property pair as a ``/predict`` row."""
    refs = dataset.properties()
    return [
        [a.source, a.name, b.source, b.name]
        for i, a in enumerate(refs)
        for b in refs[i + 1 :]
        if a.source != b.source
    ]


def match_quality(dataset, rows: list) -> float:
    """F1 of ``/match`` rows against the dataset's alignment."""
    from repro.data.model import PropertyRef

    matched = {
        frozenset((PropertyRef(a, b), PropertyRef(c, d))) for a, b, c, d, _ in rows
    }
    truth = dataset.matching_pairs()
    true_positives = len(matched & truth)
    if not true_positives:
        return 0.0
    precision = true_positives / len(matched)
    recall = true_positives / len(truth)
    return 2 * precision * recall / (precision + recall)


def check_predictions(body: bytes, sent: list, reference: dict) -> str | None:
    """A ``/predict`` reply must agree with the ``/match`` rows it overlaps."""
    reply = json.loads(body)
    scores, decisions = reply["scores"], reply["decisions"]
    if len(scores) != len(sent) or len(decisions) != len(sent):
        return f"/predict answered {len(scores)} scores for {len(sent)} pairs"
    for row, score, decision in zip(sent, scores, decisions):
        expected = reference.get(tuple(row))
        if expected is not None:
            if score != expected or not decision:
                return f"/predict {row}: {score} {decision}, /match says {expected}"
        elif decision:
            return f"/predict {row}: {score} {decision}, but /match omits it"
    return None


class _ServeBase:
    """Shared set-up pieces: the server process and the workload's dataset."""

    def __init__(self, scale: str, seed: int, root: Path, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.tracer = None
        self.trace_dir = None
        self.server: ServerProcess | None = None
        self.client: Client | None = None
        self._setups = 0
        self.statz: dict = {}
        #: Called between operations, outside their timing (the host-speed probe).
        self.idle = lambda: None

    def _start_server(self) -> None:
        self._setups += 1
        if self.tracer is not None:
            self.tracer.enter("server.startup")
        try:
            self.server = ServerProcess(
                self.root, self.workdir / f"server-{self._setups}", self.trace_dir
            )
            self.client = Client(self.server, self.tracer)
            await_ready(self.client)
        finally:
            if self.tracer is not None:
                self.tracer.exit()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def abort(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def admission(self) -> dict:
        status, body, _ = self.client.call("GET", "/statz")
        return json.loads(body)["admission"] if status == 200 else {}


class ServePredict(_ServeBase):
    """Two closed-loop clients: /predict with 1-64 pairs, every 16th a /match."""

    dataset_name = "headphones"
    tenant = "bench"

    def setup(self) -> None:
        from repro.datasets import load_dataset

        self.dataset = load_dataset(self.dataset_name, scale=self.scale, seed=0)
        self.pool = cross_pairs(self.dataset)
        self._start_server()
        status, body, _ = self.client.call(
            "POST", f"/tenants/{self.tenant}",
            {"system": "leapme", "dataset": self.dataset_name,
             "scale": self.scale, "seed": 0},
        )
        if status != 201:
            raise RuntimeError(f"tenant create answered {status}: {body[:200]!r}")
        status, self.match_body, _ = self.client.call(
            "POST", f"/tenants/{self.tenant}/match"
        )
        if status != 200:
            raise RuntimeError(f"/match answered {status}")
        match = json.loads(self.match_body)
        self.match_pairs = match["pairs"]
        self.reference = {tuple(row[:4]): row[4] for row in match["matches"]}
        self.f1 = match_quality(self.dataset, match["matches"])

    def _requests(self, client_index: int):
        rng = np.random.default_rng((self.seed, client_index))
        index = 0
        while True:
            index += 1
            if index % MATCH_EVERY == 0:
                yield "match", None
            else:
                size = int(rng.integers(1, min(MAX_PREDICT_PAIRS, len(self.pool)) + 1))
                rows = rng.choice(len(self.pool), size=size, replace=False)
                yield "predict", [self.pool[row] for row in rows]

    def measure(self, seconds: float | None = None, operations=None) -> dict:
        """Closed loop for ``seconds`` (or replay ``operations`` per client)."""
        before = self.admission() if self.tracer is not None else {}
        records: list[list] = [[], []]
        started = perf_counter()
        deadline = None if seconds is None else started + seconds

        def run_client(client_index: int) -> None:
            client = Client(self.server, self.tracer)
            try:
                for kind, rows in self._requests(client_index):
                    if operations is not None:
                        if len(records[client_index]) >= operations[client_index]:
                            return
                    elif perf_counter() >= deadline:
                        return
                    if kind == "match":
                        status, body, took = client.call(
                            "POST", f"/tenants/{self.tenant}/match"
                        )
                    else:
                        status, body, took = client.call(
                            "POST", f"/tenants/{self.tenant}/predict", {"pairs": rows}
                        )
                    records[client_index].append(
                        (kind, rows, status, body, took, perf_counter())
                    )
            finally:
                client.close()

        threads = [threading.Thread(target=run_client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        if self.tracer is not None:
            after = self.admission()
            self.statz = {key: after.get(key, 0) - before.get(key, 0) for key in after}
        self.records = records
        flat = [record for client in records for record in client]
        failed = sum(1 for record in flat if record[2] != 200)
        predict_ms = [r[4] * 1000 for r in flat if r[0] == "predict" and r[2] == 200]
        match_ms = [r[4] * 1000 for r in flat if r[0] == "match" and r[2] == 200]
        return {
            "wall_s": wall,
            "operations": [len(client) for client in records],
            "completed": len(flat) - failed,
            "ops_per_s": statistics.median(
                completion_rates([r[5] for r in flat if r[2] == 200], started, wall)
            ),
            "latency_ms": statistics.median(predict_ms) if predict_ms else 0.0,
            "samples": len(predict_ms),
            "attempted": len(flat),
            "failed": failed,
            "f1_mean": self.f1,
            "details": {
                "predict_ms": predict_ms,
                "match_ms": match_ms,
                "predict_rps": statistics.median(
                    completion_rates(
                        [r[5] for r in flat if r[0] == "predict" and r[2] == 200],
                        started, wall,
                    )
                ),
            },
        }

    def check(self) -> list[str]:
        problems = []
        if self.match_pairs != len(self.pool):
            problems.append(f"/match scored {self.match_pairs} pairs, {len(self.pool)} exist")
        for client in self.records:
            for kind, rows, status, body, _, _ in client:
                if status != 200:
                    problems.append(f"{kind} answered {status}")
                elif kind == "match":
                    if body != self.match_body:
                        problems.append("repeated /match bodies differ")
                else:
                    problem = check_predictions(body, rows, self.reference)
                    if problem:
                        problems.append(problem)
        return problems[:20]


class ServeReload(_ServeBase):
    """Reload half of cameras one source at a time beside a /predict client.

    ``ops_per_s`` is the reload rate: sources added per second of
    ``/add-source`` round trips.  A cycle adds 12 sources (small scale)
    to a growing tenant, so reload ``k`` of one cycle is comparable only
    with reload ``k`` of the others: the rate is 12 over the sum, across
    positions, of each position's median round trip.  A stall of the
    shared host then moves single samples, not the medians.
    ``latency_p50_ms`` is the reader's ``/predict`` round trip beside
    the reloads.
    """

    dataset_name = "cameras"

    def setup(self) -> None:
        from repro.data.csvio import save_dataset_csv
        from repro.datasets import load_dataset

        dataset = load_dataset(self.dataset_name, scale=self.scale, seed=0)
        sources = sorted(dataset.sources())
        half = len(sources) // 2
        base_sources, self.added = sources[:half], sources[half:]
        inputs = self.workdir / f"inputs-{self._setups + 1}"
        inputs.mkdir(parents=True, exist_ok=True)
        base = dataset.restrict_to_sources(base_sources)
        self.base_csv = inputs / "base.csv"
        self.base_alignment = inputs / "base-alignment.csv"
        save_dataset_csv(base, self.base_csv, self.base_alignment)
        self.source_csv = {}
        self.source_properties = {}
        for source in self.added:
            part = dataset.restrict_to_sources([source])
            path = inputs / f"{source}.csv"
            save_dataset_csv(part, path, inputs / f"{source}.alignment.csv")
            self.source_csv[source] = path
            self.source_properties[source] = len(part.properties())
        self.dataset = dataset
        self.base_properties = len(base.properties())
        self.base_pool = cross_pairs(base)
        self.full_pairs = len(cross_pairs(dataset))
        self._start_server()
        self.tenants = 0
        self.target = self._create_tenant()
        status, body, _ = self.client.call("POST", f"/tenants/{self.target}/match")
        if status != 200:
            raise RuntimeError(f"/match answered {status}")
        match = json.loads(body)
        self.base_match_pairs = match["pairs"]
        self.reference = {tuple(row[:4]): row[4] for row in match["matches"]}

    def _create_tenant(self, client: Client | None = None) -> str:
        self.tenants += 1
        tenant = f"cameras-{self.tenants}"
        status, body, _ = (client or self.client).call(
            "POST", f"/tenants/{tenant}",
            {"system": "leapme", "instances": str(self.base_csv),
             "alignment": str(self.base_alignment), "seed": 0},
        )
        if status != 201:
            raise RuntimeError(f"tenant create answered {status}: {body[:200]!r}")
        return tenant

    def _cycle(self, client: Client, tenant: str, reloads: list, matches: list) -> None:
        """Add every remaining source to ``tenant`` one by one, then /match it."""
        properties = self.base_properties
        for source in self.added:
            self.idle()
            status, body, took = client.call(
                "POST", f"/tenants/{tenant}/add-source",
                {"path": str(self.source_csv[source])},
            )
            new = self.source_properties[source]
            reloads.append((status, body, took, new, new * properties))
            properties += new
        status, body, _ = client.call("POST", f"/tenants/{tenant}/match")
        matches.append(body if status == 200 else None)

    def _rotate(self, client: Client, shared: dict, state) -> None:
        """Move the reader to a fresh base tenant, then delete the old one."""
        old = shared["target"]
        fresh = self._create_tenant(client)
        with state:
            shared["target"] = fresh
            while shared["in_use"] == old:
                state.wait(1.0)
        status, _, _ = client.call("DELETE", f"/tenants/{old}")
        if status != 200:
            self.problems.append(f"DELETE {old} answered {status}")

    def measure(self, seconds: float | None = None, operations=None) -> dict:
        """Whole reload cycles until ``seconds`` pass (or ``operations`` cycles).

        One untimed cycle runs first: the server's name-distance memo and
        distance cache then hold every pair, so each timed cycle starts
        from the same cache state whatever the number of cycles.
        """
        self.problems = []
        reloads: list[tuple] = []
        predictions: list[tuple] = []
        matches: list[bytes | None] = []
        state = threading.Condition()
        shared = {"target": self.target, "in_use": None, "done": False}
        self._cycle(self.client, self.target, reloads, matches)
        self._rotate(self.client, shared, state)
        warm = len(reloads)
        before = self.admission() if self.tracer is not None else {}
        started = perf_counter()

        def reader() -> None:
            client = Client(self.server, self.tracer)
            rng = np.random.default_rng((self.seed, 1))
            try:
                while True:
                    with state:
                        if shared["done"]:
                            return
                        tenant = shared["in_use"] = shared["target"]
                    size = int(
                        rng.integers(1, min(MAX_PREDICT_PAIRS, len(self.base_pool)) + 1)
                    )
                    rows = [
                        self.base_pool[i]
                        for i in rng.choice(len(self.base_pool), size=size, replace=False)
                    ]
                    status, body, took = client.call(
                        "POST", f"/tenants/{tenant}/predict", {"pairs": rows}
                    )
                    predictions.append((rows, status, body, took, perf_counter()))
                    with state:
                        shared["in_use"] = None
                        state.notify_all()
            finally:
                client.close()

        def writer() -> None:
            client = Client(self.server, self.tracer)
            try:
                cycles = 0
                while True:
                    cycle_started = perf_counter()
                    self._cycle(client, shared["target"], reloads, matches)
                    cycles += 1
                    if operations is not None:
                        if cycles >= operations:
                            return
                    else:
                        # Start no cycle that would end past the deadline.
                        now = perf_counter()
                        if now + (now - cycle_started) - started >= seconds:
                            return
                    self._rotate(client, shared, state)
            finally:
                with state:
                    shared["done"] = True
                client.close()

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        if self.tracer is not None:
            after = self.admission()
            self.statz = {key: after.get(key, 0) - before.get(key, 0) for key in after}
        self.reloads, self.predictions, self.matches = reloads, predictions, matches
        timed = reloads[warm:]
        reload_ms = [took * 1000 for status, _, took, _, _ in timed if status == 200]
        per_cycle = len(self.added)
        by_position = [
            [took for status, _, took, _, _ in timed[k::per_cycle] if status == 200]
            for k in range(per_cycle)
        ]
        cycle_seconds = sum(
            statistics.median(values) for values in by_position if values
        )
        predict_ms = [took * 1000 for _, status, _, took, _ in predictions if status == 200]
        attempted = len(timed) + len(predictions) + len(matches) - 1
        failed = (
            len(timed) - len(reload_ms)
            + len(predictions) - len(predict_ms)
            + sum(1 for body in matches[1:] if body is None)
        )
        first = json.loads(matches[0]) if matches[0] else {"matches": []}
        return {
            "wall_s": wall,
            "operations": len(matches) - 1,
            "completed": len(reload_ms),
            "ops_per_s": per_cycle / cycle_seconds if cycle_seconds else 0.0,
            "latency_ms": statistics.median(predict_ms) if predict_ms else 0.0,
            "samples": len(predict_ms),
            "attempted": attempted,
            "failed": failed,
            "f1_mean": match_quality(self.dataset, first["matches"]),
            "details": {
                "predict_ms": predict_ms,
                "predict_rps": statistics.median(
                    completion_rates(
                        [done for _, status, _, _, done in predictions if status == 200],
                        started, wall,
                    )
                ),
                "reload_ms": reload_ms,
                "position_ms": [
                    statistics.median(values) * 1000 for values in by_position if values
                ],
                "cycles": len(matches) - 1,
            },
        }

    def check(self) -> list[str]:
        problems = list(self.problems)
        if self.base_match_pairs != len(self.base_pool):
            problems.append(
                f"base /match scored {self.base_match_pairs} pairs, "
                f"{len(self.base_pool)} exist"
            )
        for status, body, _, properties, pairs in self.reloads:
            if status != 200:
                problems.append(f"/add-source answered {status}")
                continue
            reply = json.loads(body)
            if (reply["properties"], reply["pairs"]) != (properties, pairs):
                problems.append(
                    f"/add-source reported {reply['properties']} properties / "
                    f"{reply['pairs']} pairs, expected {properties} / {pairs}"
                )
        first = None
        for body in self.matches:
            if body is None:
                problems.append("/match after a reload cycle failed")
                continue
            # Each cycle reloads a fresh tenant; only the tenant id may differ.
            reply = json.loads(body)
            reply.pop("tenant")
            first = reply if first is None else first
            if reply != first:
                problems.append("/match bodies differ between reload cycles")
            if reply["pairs"] != self.full_pairs:
                problems.append(f"/match after reloads does not cover {self.full_pairs} pairs")
        for rows, status, body, _, _ in self.predictions:
            if status != 200:
                problems.append(f"/predict answered {status}")
                continue
            problem = check_predictions(body, rows, self.reference)
            if problem:
                problems.append(problem)
        return problems[:20]
