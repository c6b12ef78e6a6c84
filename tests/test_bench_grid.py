"""scripts/bench_grid.py: every mode merges into BENCH_grid.json."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_grid.py"


def _bench_grid():
    spec = importlib.util.spec_from_file_location("bench_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plain_mode_write_keeps_the_other_sections(tmp_path):
    out = tmp_path / "BENCH_grid.json"
    kernel = {"pairs": 12, "speedup": 15.6}
    out.write_text(json.dumps({"kernel": kernel, "speedup": 0.5}))
    plain = {"benchmark": "grid_engine", "speedup": 2.0}
    _bench_grid()._merge_sections(out, plain)
    assert json.loads(out.read_text()) == {**plain, "kernel": kernel}
