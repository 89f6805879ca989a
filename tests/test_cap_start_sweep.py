"""tools/cap_start_sweep.py writes a sweep per width and shape and leaves
the committed start width as it found it."""

import importlib.util
import json
from pathlib import Path

from assortmax import solvers

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cap_start_sweep.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cap_start_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_records_every_width_and_shape(tmp_path, capsys):
    committed = solvers._START_WIDTH
    tool = _tool()
    out = tmp_path / "sweep.json"
    assert tool.main(["--widths", "1", "8", "--customers", "1", "--repeats", "1",
                      "--out", str(out)]) == 0
    assert solvers._START_WIDTH == committed
    doc = json.loads(out.read_text())
    assert doc["committed_width"] == committed and doc["baseline"] is None
    assert set(doc["widths"]) == {"1", "8"}
    for row in doc["widths"].values():
        assert [(r["n"], r["C"]) for r in row["shapes"]] == list(tool.SHAPES)
        assert all(r["mean_selections"] >= 1 and r["p50_us"] > 0 for r in row["shapes"])
        assert row["sum_mean_selections"] == sum(r["mean_selections"] for r in row["shapes"])
    assert str(out) in capsys.readouterr().out
