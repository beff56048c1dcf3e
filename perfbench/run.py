"""termsift benchmark: seeded, oracle-checked runs of the full ``select`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs of the workload are generated
from the seed (``gen.py``) into ``.perfbench-cache/``, outside every
metric. The run then measures rounds for S seconds, one operation
after another, each in a fresh interpreter. Every round runs the same
operations: one ``select`` through ``termsift.cli.main`` and, on
``uniform-wide``, the known-faulty ``weigh --scheme tf2 --min-count 2``
on a corpus that does not depend on the seed. The first SETUPS rounds
also start with one timed cold start (import ``termsift.cli`` and load
the reusable inputs through their public loaders: ``setup_s``).

Every operation is checked: the first ``select`` against the independent
oracle (``oracle.py``), every later one for byte-identical artifacts
(all but ``metadata.json``). An operation fails on a non-zero exit code
or on any mismatch. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other ``select`` runs traced (``child.py``), the per-layer metrics
are the medians over the traced ones, and the spans are written to
``.perfbench-cache/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
REQUIRED = (ROOT / "src" / "termsift" / "cli.py",
            ROOT / "tests" / "fixtures" / "porter" / "voc.txt",
            ROOT / "tests" / "fixtures" / "porter" / "output.txt",
            ROOT / "tests" / "wn_fixture.py")

OP_TIMEOUT_S = 120
SETUPS = 7  # timed cold starts per run, one before each of the first selects


@dataclass(frozen=True)
class Workload:
    layout: str
    thresholds: dict  # scheme -> threshold, fixed so each scheme removes a real share
    aggregation: str = "max"
    min_count: int = 1
    matrix_format: str = "coordinate-triplet"
    wordnet: bool = False
    weigh_fault: bool = False  # add the known-faulty weigh operation to every round


WORKLOADS = {
    "zipf-select": Workload(
        layout="class-subdirectories",
        thresholds={"tfidf": 0.0479, "tfdf": 1.671, "tf2": 0.1781}),
    "uniform-wide": Workload(
        layout="class-subdirectories",
        thresholds={"tfidf": 0.0511, "tfdf": 1.173, "tf2": 0.1223},
        aggregation="mean", min_count=2, weigh_fault=True),
    "wordnet-short": Workload(
        layout="manifest-file",
        thresholds={"tfidf": 2.291, "tfdf": 433.7, "tf2": 851.3},
        matrix_format="csv", wordnet=True),
}
WEIGH_CORPUS = "weigh-fixed"


def inputs(name: str, seed: int) -> Path:
    """Generated inputs of ``name`` for ``seed``; other seeds' inputs are removed."""
    import gen

    base = CACHE / name
    target = base / f"seed-{seed}"
    if not (target / "raw_tokens").is_file():
        if base.exists():
            shutil.rmtree(base)
        partial = base / f".partial-{os.getpid()}"
        raw_tokens = gen.generate(name, seed, partial)
        (partial / "raw_tokens").write_text(f"{raw_tokens}\n")
        partial.rename(target)
    return target


def termsift_args(command: str, corpus: Path, workload: Workload, out: Path,
                  wordnet_dir: Path | None) -> list[str]:
    args = [command, str(corpus), "--layout", workload.layout, "--out", str(out),
            "--alpha", repr(workload.thresholds["tfidf"]),
            "--beta", repr(workload.thresholds["tfdf"]),
            "--gamma", repr(workload.thresholds["tf2"]),
            "--aggregation", workload.aggregation, "--min-count", str(workload.min_count),
            "--format", workload.matrix_format]
    if wordnet_dir is None:
        return args + ["--wordnet-policy", "off"]
    return args + ["--wordnet-dir", str(wordnet_dir), "--wordnet-policy", "filter-nonwordnet"]


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def setup_start(wordnet_dir: Path | None) -> float:
    """Seconds one fresh interpreter takes to import and load the reusable inputs."""
    extra = [str(wordnet_dir)] if wordnet_dir is not None else []
    done = run_child(["setup"] + extra, OP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"setup failed: {done.stderr.strip()}")
    return float(done.stdout)


def run_op(cli_args: list[str], result: Path, trace: bool) -> dict:
    """One operation in a fresh interpreter; returns the child's record."""
    flags = ["--trace"] if trace else []
    result.unlink(missing_ok=True)
    done = run_child(["op", str(result)] + flags + ["--"] + cli_args, OP_TIMEOUT_S)
    if done.returncode != 0 or not result.is_file():
        return {"exit": done.returncode or -1, "stderr": done.stderr}
    record = json.loads(result.read_text(encoding="utf-8"))
    record["stderr"] = done.stderr
    return record


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "metadata.json"}


def run_rounds(args, workload: Workload, data: Path, weigh_data: Path | None, work: Path):
    """Whole rounds until ``args.seconds`` have passed. Each round runs one
    select and, where the workload has it, the known-faulty weigh; the
    first SETUPS rounds time a cold start first. Returns (setup times,
    select records, weigh records)."""
    wordnet_dir = data / "wordnet" if workload.wordnet else None
    setup_start(None)  # writes the byte code once, untimed
    setups, selects, weighs = [], [], []
    start = time.perf_counter()
    while (len(selects) < (2 if args.trace else 1)
           or time.perf_counter() - start < args.seconds):
        n = len(selects)
        if n < SETUPS:
            setups.append(setup_start(wordnet_dir))
        out = work / f"select-{n}"
        record = run_op(termsift_args("select", data / "corpus", workload, out, wordnet_dir),
                        work / "result.json", trace=bool(args.trace) and n % 2 == 1)
        if record["exit"] == 0:
            record["digests"] = artifact_digests(out)
        if n > 0:
            shutil.rmtree(out)
        selects.append(record)
        if weigh_data is not None:
            out = work / f"weigh-{n}"
            record = run_op(termsift_args("weigh", weigh_data / "corpus", workload, out, None)
                            + ["--scheme", "tf2"], work / "result.json", trace=False)
            record["out"] = out
            weighs.append(record)
    return setups, selects, weighs


def failed_selects(selects: list[dict], exp, workload: Workload, work: Path) -> tuple[int, int]:
    """The first select against the oracle, the others against the first.
    Returns (failed selects, borderline terms)."""
    failed, borderline = 0, 0
    first = selects[0]
    for i, record in enumerate(selects):
        if record["exit"] != 0:
            problems = [f"exit code {record['exit']}: {record['stderr'].strip()[-500:]}"]
        elif i == 0:
            try:
                problems, borderline = oracle.check_select(
                    work / "select-0", exp, workload.thresholds, workload.matrix_format)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
        elif first["exit"] != 0:
            problems = ["no checked first select to compare with"]
        else:
            problems = [f"{name} differs from the first select's"
                        for name in sorted(record["digests"].keys() | first["digests"].keys())
                        if record["digests"].get(name) != first["digests"].get(name)]
        if problems:
            failed += 1
            print(f"select #{i} failed: " + "; ".join(problems), file=sys.stderr)
    return failed, borderline


def failed_weighs(weighs: list[dict], exp) -> int:
    """Each weigh's tf2 matrix against the oracle's floored vocabulary."""
    failed = 0
    for record in weighs:
        if record["exit"] != 0:
            problems = [f"exit code {record['exit']}"]
        else:
            problems = oracle.check_triplets(record["out"] / "matrix_tf2.triplets", exp, "tf2",
                                             set(exp.vocabulary))
        if problems:
            if not failed:
                print("weigh --min-count failed (known fault): " + problems[0], file=sys.stderr)
            failed += 1
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a termsift checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    import gen

    workload = WORKLOADS[args.workload]
    data = inputs(args.workload, args.seed)
    raw_tokens = int((data / "raw_tokens").read_text())
    weigh_data = inputs(WEIGH_CORPUS, gen.FIXED_SEED) if workload.weigh_fault else None

    work = CACHE / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, selects, weighs = run_rounds(args, workload, data, weigh_data, work)
        # Checks, outside the measured window.
        exp = oracle.expected(data / "tokens.tsv", workload.thresholds, workload.aggregation,
                              workload.min_count,
                              data / "wordnet" / "lemmas.tsv" if workload.wordnet else None)
        bad_selects, borderline = failed_selects(selects, exp, workload, work)
        bad_weighs = 0
        if weighs:
            bad_weighs = failed_weighs(weighs, oracle.expected(
                weigh_data / "tokens.tsv", workload.thresholds, workload.aggregation,
                workload.min_count))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in selects if r["exit"] == 0 and "trace" not in r]
    traced = [r for r in selects if r["exit"] == 0 and "trace" in r]
    if not untraced or (args.trace and not traced):
        print("perfbench: no successful select to measure", file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        metrics = per_layer(traced, wall, [r for r in weighs if r["exit"] == 0])
        (CACHE / f"trace-{args.workload}.json").write_text(json.dumps(
            [r["trace"] for r in traced], indent=1), encoding="utf-8")
    else:
        metrics = {
            "tokens_per_s": {"value": raw_tokens / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(f"{args.workload}: seed {args.seed}, {raw_tokens} raw tokens, {len(selects)} rounds, "
          f"{borderline} borderline terms; untraced selects, wall s / peak RSS MB: "
          + " ".join(f"{r['wall_s']:.3f}/{r['peak_rss_mb']:.1f}" for r in untraced),
          file=sys.stderr)
    print(json.dumps({
        "correct": bad_selects == 0,
        "attempted": len(selects) + len(weighs),
        "failed": bad_selects + bad_weighs,
        "metrics": metrics,
    }))
    return 0


UNITS = {"_s": "s", "_mb": "MB", "calls_per_type": "calls/type", "_pct": "%"}


def per_layer(traced: list[dict], untraced_wall: float, weighs: list[dict]) -> dict:
    """Medians of the traced selects' layer metrics, the tracing overhead and
    the time of the weigh operation."""
    names = traced[0]["trace"]["metrics"]
    metrics = {}
    for name in names:
        value = statistics.median(r["trace"]["metrics"][name] for r in traced)
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(r["trace"]["metrics"]["trace.wall_s"] for r in traced)
    metrics["trace.overhead_pct"] = {"value": 100 * (traced_wall / untraced_wall - 1),
                                     "unit": "%"}
    metrics["cli.weigh_s"] = {
        "value": statistics.median(r["wall_s"] for r in weighs) if weighs else 0.0, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
