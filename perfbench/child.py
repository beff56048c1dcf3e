"""One measured operation, run by ``run.py`` in a fresh interpreter.

    child.py setup [WORDNET_DIR]
        Cold start: import ``termsift.cli`` and load the reusable inputs
        through their public loaders. Prints the elapsed seconds.

    child.py op RESULT_JSON [--trace] -- TERMSIFT_ARGS...
        Runs ``termsift.cli.main(TERMSIFT_ARGS)`` in-process and writes
        its exit code, wall time and peak RSS to RESULT_JSON. With
        ``--trace`` it first wraps the public functions that
        ``run_pipeline`` calls and adds their spans and counts.

Only the standard library is imported before the clock starts.
"""

from __future__ import annotations

import functools
import io
import json
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are included in case the
    # program ever starts any.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class Tracer:
    """Spans (name, start, end, parent) and counts for one CLI call.

    Coarse calls get one span each. The per-document and per-token
    functions (``tokenize``, ``remove_stopwords``, ``porter_stem``) are
    called hundreds of thousands of times, so each gets one aggregate
    span: first start, last end, and the summed busy time and calls.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.tallies: dict[str, list] = {}  # name -> [first, last, busy, calls, units]

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(result)`` returns counts to add."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "start": perf_counter(), "end": None,
                   "parent": self.stack[-1] if self.stack else None}
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                rec["end"] = perf_counter()
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def tally(self, name: str, fn, measure=None):
        """Wrap ``fn(arg, ...)``; ``measure(arg, result)`` adds to the tally's units."""
        acc = self.tallies.setdefault(name, [None, 0.0, 0.0, 0, 0])

        def traced(arg, *rest, _fn=fn, _clock=perf_counter):
            t0 = _clock()
            result = _fn(arg, *rest)
            t1 = _clock()
            if acc[0] is None:
                acc[0] = t0
            acc[1] = t1
            acc[2] += t1 - t0
            acc[3] += 1
            if measure is not None:
                acc[4] += measure(arg, result)
            return result
        return traced

    def install(self) -> None:
        from termsift import corpus, pipeline, weighting, wordnet

        def annotated(result):
            _, annotations = result
            return {"wordnet.terms_looked_up": len(annotations),
                    "wordnet.terms_kept": sum(e.in_wordnet for e in annotations.values())}

        def new_type(word, _):
            self.stem_types.add(word)
            return 0

        self.stem_types: set[str] = set()

        corpus.load_corpus = self.span("corpus.load", corpus.load_corpus,
                                       lambda docs: {"corpus.documents": len(docs)})
        corpus.corpus_summary = self.span("corpus.summary", corpus.corpus_summary)
        wordnet.load_wordnet = self.span("wordnet.load", wordnet.load_wordnet)
        wordnet.annotate_terms = self.span("wordnet.annotate", wordnet.annotate_terms, annotated)
        weighting.build_index = self.span("weighting.index", weighting.build_index)
        weighting.frequent_terms = self.span("weighting.floor", weighting.frequent_terms)
        weighting.compute_matrix = self.span("weighting.matrix", weighting.compute_matrix,
                                             lambda m: {"weighting.cells": len(m.entries)})
        weighting.select_key_terms = self.span("weighting.select_key_terms",
                                               weighting.select_key_terms)
        weighting.select_joint = self.span("weighting.select_joint", weighting.select_joint)
        weighting.export_matrix = self.span(
            "weighting.export", weighting.export_matrix,
            lambda path: {"weighting.export_bytes": Path(path).stat().st_size})
        # run_pipeline imported these three by name, so they are replaced
        # in its namespace; corpus_summary's own tokenize stays unwrapped.
        pipeline.tokenize = self.tally("textprep.tokenize", pipeline.tokenize,
                                       lambda _, out: len(out))
        pipeline.remove_stopwords = self.tally("textprep.stopwords", pipeline.remove_stopwords,
                                               lambda _, out: len(out))
        pipeline.porter_stem = self.tally("porter.stem", pipeline.porter_stem, new_type)

    def run(self, fn):
        """Call ``fn`` inside the root span (span 0)."""
        return self.span("cli.main", fn)()

    def report(self) -> dict:
        """Per-layer metrics of the traced call, plus the raw spans and counts."""
        spans = list(self.spans)
        for name, (first, last, busy, calls, units) in self.tallies.items():
            if calls:
                spans.append({"name": name, "start": first, "end": last, "parent": 0,
                              "busy": busy, "calls": calls, "units": units})

        def busy(rec):
            return rec.get("busy", rec["end"] - rec["start"])

        def total(name, top_level=False):
            return sum(busy(s) for s in spans
                       if s["name"] == name and (not top_level or s["parent"] == 0))

        def calls(name):
            return sum(s.get("calls", 1) for s in spans if s["name"] == name)

        wall = spans[0]["end"] - spans[0]["start"]
        children = sum(busy(s) for s in spans if s["parent"] == 0)
        stem_calls = calls("porter.stem")
        stem_types = len(self.stem_types)
        metrics = {
            "corpus.load_s": total("corpus.load"),
            "corpus.documents": self.counts.get("corpus.documents", 0),
            "corpus.summary_s": total("corpus.summary"),
            "textprep.tokenize_s": total("textprep.tokenize"),
            "textprep.stopwords_s": total("textprep.stopwords"),
            "textprep.tokens": self.tallies.get("textprep.tokenize", [0] * 5)[4],
            "textprep.tokens_kept": self.tallies.get("textprep.stopwords", [0] * 5)[4],
            "porter.stem_s": total("porter.stem"),
            "porter.stem_calls": stem_calls,
            "porter.stem_types": stem_types,
            "porter.calls_per_type": stem_calls / stem_types if stem_types else 0.0,
            "wordnet.load_s": total("wordnet.load"),
            "wordnet.annotate_s": total("wordnet.annotate"),
            "wordnet.terms_looked_up": self.counts.get("wordnet.terms_looked_up", 0),
            "wordnet.terms_kept": self.counts.get("wordnet.terms_kept", 0),
            "weighting.index_s": total("weighting.index"),
            "weighting.index_calls": calls("weighting.index"),
            "weighting.floor_s": total("weighting.floor"),
            "weighting.matrix_s": total("weighting.matrix"),
            "weighting.cells": self.counts.get("weighting.cells", 0),
            # select_joint's own select_key_terms calls are its children
            "weighting.select_s": (total("weighting.select_key_terms", top_level=True)
                                   + total("weighting.select_joint")),
            "weighting.aggregation_passes": calls("weighting.select_key_terms"),
            "weighting.export_s": total("weighting.export"),
            "weighting.export_mb": self.counts.get("weighting.export_bytes", 0) / 1e6,
            "pipeline.self_s": wall - children,
            "trace.wall_s": wall,
            "trace.stem_wrap_s": stem_calls * _tally_cost_per_call(),
        }
        return {"metrics": metrics, "spans": spans, "counts": self.counts}


def _tally_cost_per_call(n: int = 200_000) -> float:
    """Seconds one ``Tracer.tally`` wrapper adds to a call (identity function)."""
    def identity(x):
        return x

    wrapped = Tracer().tally("probe", identity, lambda word, _: 0)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for i in range(n):
            identity(i)
        t1 = perf_counter()
        for i in range(n):
            wrapped(i)
        t2 = perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / n


def cmd_setup(argv: list[str]) -> int:
    t0 = perf_counter()
    import termsift.cli  # noqa: F401
    from termsift import corpus, wordnet

    corpus.default_stopwords()
    if argv:
        wordnet.load_wordnet(argv[0])
    print(f"{perf_counter() - t0!r}")
    return 0


def cmd_op(argv: list[str]) -> int:
    result_path = Path(argv[0])
    sep = argv.index("--")
    trace = "--trace" in argv[1:sep]
    cli_args = argv[sep + 1:]

    from termsift import cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    with redirect_stdout(io.StringIO()):
        if tracer is not None:
            code = tracer.run(lambda: cli.main(cli_args))
        else:
            code = cli.main(cli_args)
    wall = perf_counter() - t0
    result = {"exit": code, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.report()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(cmd_setup(rest) if mode == "setup" else cmd_op(rest))
