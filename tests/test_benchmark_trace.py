"""The benchmark's traced operation, ``perfbench/child.py op --trace``, still
finds every layer of a ``select`` it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_select(tmp_path: Path, corpus: Path, out: Path, cache_home: Path) -> dict:
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(CHILD), "op", str(result), "--trace", "--",
         "select", str(corpus), "--layout", "class-subdirectories",
         "--wordnet-policy", "off", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, XDG_CACHE_HOME=str(cache_home)))
    assert done.returncode == 0, done.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["exit"] == 0
    return record["trace"]["metrics"]


def test_traced_select_measures_its_layers(tmp_path, minicorpus_dir):
    # a cache of its own, so the first select runs steps 1-3 whatever ran before
    cache_home = tmp_path / "cache"
    metrics = traced_select(tmp_path, minicorpus_dir, tmp_path / "out", cache_home)
    assert metrics["corpus.documents"] == 20
    assert metrics["weighting.cells"] > 0
    assert metrics["porter.calls_per_type"] == 1.0
    # one index, and one selection pass per scheme
    assert metrics["weighting.index_calls"] == 1
    assert metrics["weighting.aggregation_passes"] == 3

    # the same select again reads steps 1-3 from the cache: it tokenizes and
    # stems nothing, and every later layer does the same work
    warm = traced_select(tmp_path, minicorpus_dir, tmp_path / "warm", cache_home)
    assert warm["textprep.tokens"] == warm["porter.stem_calls"] == 0
    assert warm["corpus.documents"] == metrics["corpus.documents"]
    assert warm["weighting.cells"] == metrics["weighting.cells"]
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
               if p.name != "metadata.json"}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "warm").iterdir()
                       if p.name != "metadata.json"}
