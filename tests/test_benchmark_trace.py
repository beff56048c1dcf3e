"""The benchmark's traced operation, ``perfbench/child.py op --trace``, still
finds every layer of a ``select`` it wraps."""

import json
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_select_measures_its_layers(tmp_path, minicorpus_dir):
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(CHILD), "op", str(result), "--trace", "--",
         "select", str(minicorpus_dir), "--layout", "class-subdirectories",
         "--wordnet-policy", "off", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["exit"] == 0
    metrics = record["trace"]["metrics"]
    assert metrics["corpus.documents"] == 20
    assert metrics["weighting.cells"] > 0
    assert metrics["porter.calls_per_type"] == 1.0
    # one index, and one selection pass per scheme
    assert metrics["weighting.index_calls"] == 1
    assert metrics["weighting.aggregation_passes"] == 3
