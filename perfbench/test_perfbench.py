"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

The smoke tests run every workload at tiny scale for about a second,
untraced and traced, and check the output contract: every catalogue
metric is emitted with its unit, the layer seconds sum to the traced
wall clock, and a tail percentile is printed only when enough samples
lie beyond it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue
import run
from spans import REMOTE_DEPTH, Tracer, attribute, collect

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert not run.supported(999, 99.0)
    assert run.supported(1000, 99.0)
    assert run.tail(list(range(99))) is None
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert ", p" not in run.describe_latencies("x", [1.0] * 50)
    assert "p95" in run.describe_latencies("x", [1.0] * 200)


def test_attribution_sums_to_the_window():
    segments = [
        # lane a: outer span with an inner one; lane b overlaps half of it
        ("a", "outer", 0.0, 2.0, 0),
        ("a", "inner", 0.5, 1.0, 1),
        ("b", "other", 1.0, 3.0, 0),
        # a server thread's span on lane a is inner to lane a's own span
        ("a", "remote", 1.5, 2.0, REMOTE_DEPTH),
    ]
    shares = attribute(segments, 0.0, 4.0)
    assert shares["inner"] == pytest.approx(0.5)
    assert shares["outer"] == pytest.approx(0.5 + 0.25)
    assert shares["remote"] == pytest.approx(0.25)
    assert shares["other"] == pytest.approx(0.25 + 0.25 + 1.0)
    assert shares[None] == pytest.approx(1.0)
    assert sum(shares.values()) == pytest.approx(4.0)


def test_spans_of_forked_children_reach_the_report(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.enter("parent")
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            tracer.enter("child")
            tracer.exit()
            tracer.count("child.items")
            tracer.dump()
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    tracer.exit()
    assert status == 0
    recorded = collect(tracer)
    labels = {segment[1] for segment in recorded["segments"]}
    assert labels == {"parent", "child"}
    assert recorded["counters"] == {"child.items": 1}


def test_host_speed_probe_reaps_its_processes():
    from calibrate import PARALLEL, REFERENCE_PROBE_S, HostSpeed

    speed = HostSpeed()
    speed.start()
    try:
        speed.sample(3)
    finally:
        speed.close()
    assert len(speed.samples) == 3
    assert all(len(times) == PARALLEL and min(times) > 0 for times in speed.samples)
    assert speed.median_s(1) <= speed.median_s(PARALLEL)
    assert speed.factor(1) == pytest.approx(REFERENCE_PROBE_S / speed.median_s(1))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_only_cpu_bound_figures_are_scaled():
    assert set(catalogue.AT_REFERENCE_SPEED) == set(catalogue.WORKLOADS)
    for scaling in catalogue.AT_REFERENCE_SPEED.values():
        assert set(scaling) <= {"setup_s", "ops_per_s", "latency_p50_ms"}
        assert scaling["setup_s"] == 1
        assert set(scaling.values()) <= {1, 2}


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == catalogue.benchmark_spec(run.RUN_SECONDS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in spec["workloads"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    assert all(entry["bound"] <= 0.25 for entry in spec["end_to_end"])


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert isinstance(entry["value"], (int, float))
    values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    if trace:
        layers = sum(values[f"{label}_s"] for label in catalogue.SPAN_LABELS)
        assert layers + values["unattributed_s"] == pytest.approx(values["trace.wall_s"])
    else:
        assert all(values[metric] > 0 for metric in catalogue.END_TO_END)
    for line in lines:
        match = re.search(r", p([\d.]+) [\d.]+ ms \(n=(\d+)\)", line)
        if match:
            assert run.supported(int(match.group(2)), float(match.group(1)))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("grid_cameras", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
