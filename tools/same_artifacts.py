"""Check that ``termsift select`` and ``weigh`` write byte-identical artifacts
in two trees.

    python3 tools/same_artifacts.py OLD_TREE

Runs the CLI with the ``src`` of OLD_TREE (another checkout, e.g. an
exported parent commit) and with this checkout's ``src`` on each case,
and compares the exit codes, the standard output and every file the
two runs write except ``metadata.json``, whose timestamp always
differs. The cases:

- ``select`` on the bundled minicorpus with WordNet off
- the same with ``--format csv --aggregation mean --gamma 0.001``
- the same corpus with the ``tests/wn_fixture.py`` database under
  ``annotate-only``
- the same database under ``filter-nonwordnet --min-count 2``
- ``weigh`` on the minicorpus, WordNet off, for each scheme in each
  export format (the export not restricted to key terms)
- seed 301 of each ``perfbench`` workload, with the workload's own
  ``select`` arguments (its inputs are generated into
  ``.perfbench-cache/`` on first use)

Both trees read the same inputs, taken from this checkout. Prints one
line per case and exits 1 at the first case that differs, naming the
first file (or the exit code or output) that does; exits 0 when every
case is identical.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402
from wn_fixture import build_wordnet_dir  # noqa: E402

SEED = 301
EXEMPT = {"metadata.json"}


def cases(work: Path) -> list[tuple[str, list[str]]]:
    mini = ROOT / "src" / "termsift" / "data" / "minicorpus"
    base = ["select", str(mini), "--layout", "class-subdirectories", "--out", "out"]
    db = str(build_wordnet_dir(work / "wn-fixture"))
    found = [
        ("minicorpus, WordNet off", base + ["--wordnet-policy", "off"]),
        # under mean the default gamma keeps no tf2 term; 0.001 keeps 53 of 136,
        # so each scheme's csv has key-term columns
        ("minicorpus, WordNet off, csv, mean, gamma 0.001",
         base + ["--wordnet-policy", "off", "--format", "csv", "--aggregation", "mean",
                 "--gamma", "0.001"]),
        ("minicorpus, fixture WordNet, annotate-only",
         base + ["--wordnet-dir", db, "--wordnet-policy", "annotate-only"]),
        ("minicorpus, fixture WordNet, filter-nonwordnet --min-count 2",
         base + ["--wordnet-dir", db, "--wordnet-policy", "filter-nonwordnet",
                 "--min-count", "2"]),
    ]
    for scheme in ("tfidf", "tfdf", "tf2"):
        for fmt in ("csv", "coordinate-triplet"):
            found.append((f"minicorpus, weigh --scheme {scheme} --format {fmt}",
                          ["weigh", *base[1:], "--wordnet-policy", "off",
                           "--scheme", scheme, "--format", fmt]))
    for name, workload in perfbench.WORKLOADS.items():
        data = perfbench.inputs(name, SEED)
        wordnet_dir = data / "wordnet" if workload.wordnet else None
        found.append((f"{name} seed {SEED}", perfbench.termsift_args(
            "select", data / "corpus", workload, Path("out"), wordnet_dir)))
    return found


def run_cli(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("WNSEARCHDIR", None)
    return subprocess.run([sys.executable, "-m", "termsift.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def first_difference(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess,
                     old_out: Path, new_out: Path) -> str | None:
    if old.returncode != new.returncode:
        return f"exit code {old.returncode} -> {new.returncode}"
    if old.stdout != new.stdout:
        return "standard output"
    names = {p.name for out in (old_out, new_out) if out.is_dir() for p in out.iterdir()}
    for name in sorted(names - EXEMPT):
        a, b = old_out / name, new_out / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            return name
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="checkout to compare this one against")
    old_tree = parser.parse_args().old_tree.resolve()
    if not (old_tree / "src" / "termsift" / "cli.py").is_file():
        print(f"same_artifacts: not a termsift checkout: {old_tree}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        work = Path(tmp)
        for i, (name, args) in enumerate(cases(work)):
            old_cwd, new_cwd = work / f"{i}-old", work / f"{i}-new"
            old = run_cli(old_tree, args, old_cwd)
            new = run_cli(ROOT, args, new_cwd)
            diff = first_difference(old, new, old_cwd / "out", new_cwd / "out")
            if diff is not None:
                print(f"differs: {name}: {diff}")
                return 1
            print(f"same: {name} (exit {new.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
