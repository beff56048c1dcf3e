"""``termsift select`` against the independent oracle ``perfbench/oracle.py``.

Property-based, in the manner of QuickCheck: each example writes a small
random corpus and its token record, draws a configuration, runs the CLI
and requires ``oracle.check_select`` to find no mismatch at its 1e-9
tolerance, skipping only the terms the oracle itself marks borderline.

Drawn: the ``class-subdirectories`` and ``manifest-file`` layouts, ``max``
and ``mean`` aggregation, ``--min-count`` 1-3, log bases e, 2 and 10,
both export formats and the three WordNet policies, against the
``tests/wn_fixture.py`` database. Under triplet export a scheme's
threshold may also lie above all its aggregates, so that it keeps no
term. Left out: the ``flat`` layout, whose documents have no class,
which the oracle's statistics cannot express, and the dense CSV of a
scheme that keeps no term (see ``test_select_agrees_with_the_oracle``).
"""

import functools
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from wn_fixture import SYNSETS

from termsift.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402

# each base's natural log, written out here so the program's table is under test
LN_BASE = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}


@pytest.fixture(scope="module")
def lemmas_path(tmp_path_factory) -> Path:
    """The fixture database's lemmas in the ``lemmas.tsv`` format the oracle reads."""
    categories: dict[tuple[str, str], set[str]] = {}
    for pos, lexname, words, *_ in SYNSETS.values():
        for word in words:
            categories.setdefault((word.lower(), pos), set()).add(lexname)
    path = tmp_path_factory.mktemp("lemmas") / "lemmas.tsv"
    path.write_text("".join(f"{lemma}\t{pos}\t{','.join(sorted(cats))}\n"
                            for (lemma, pos), cats in sorted(categories.items())),
                    encoding="utf-8")
    return path


@functools.cache
def vocabulary(lemmas_path: Path) -> tuple[list[str], list[str], list[str]]:
    """Content words, stop words, and the 37 content words that reach the
    fixture database through the lookup cascade (``ponies``, ``agreed`` ...)."""
    content, stops = gen.load_vocabulary()
    stem_of = oracle.read_stem_table()
    lemmas = oracle.read_lemmas(lemmas_path)
    return content, stops, [w for w in content if oracle._cascade(stem_of[w], {w}, lemmas)]


def write_corpus(root: Path, layout: str, docs: list[list[str]], classes: int) -> Path:
    """Write ``docs`` under ``root/corpus`` and their token record; return the record."""
    corpus = root / "corpus"
    record, manifest = [], []
    for i, tokens in enumerate(docs):
        label = f"c{i % classes}"
        if layout == "class-subdirectories":
            doc_id = relpath = f"{label}/d{i}.txt"
        else:
            doc_id, relpath = f"w{i}", f"docs/{label}/d{i}.txt"
            manifest.append(f"{doc_id}\t{label}\t{relpath}\n")
        path = corpus / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        record.append(f"{doc_id}\t{label}\t{' '.join(tokens)}\n")
    if manifest:
        (corpus / "manifest.tsv").write_text("".join(manifest), encoding="utf-8")
    tokens_path = root / "tokens.tsv"
    tokens_path.write_text("".join(record), encoding="utf-8")
    return tokens_path


def threshold_choices(exp: "oracle.Expected", scheme: str, aggregation: str,
                      divisor: float, keep_none: bool) -> list[float]:
    """Thresholds strictly between the scheme's distinct per-term aggregates
    (weights divided by ``divisor``), or below the least: each keeps a term.
    With ``keep_none``, also one above the greatest, which keeps no term."""
    per_term: dict[str, list[float]] = {}
    for row in exp.weights[scheme]:
        for term, w in row.items():
            per_term.setdefault(term, []).append(w / divisor)
    values = sorted({max(ws) if aggregation == "max" else sum(ws) / len(ws)
                     for ws in per_term.values()})
    choices = [values[0] / 2] + [(a + b) / 2 for a, b in zip(values, values[1:])]
    return choices + [2 * values[-1] + 1] if keep_none else choices


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       layout=st.sampled_from(["class-subdirectories", "manifest-file"]),
       aggregation=st.sampled_from(["max", "mean"]),
       min_count=st.integers(1, 3),
       log_base=st.sampled_from(sorted(LN_BASE)),
       policy=st.sampled_from(["off", "annotate-only", "filter-nonwordnet"]),
       fmt=st.sampled_from(["coordinate-triplet", "csv"]))
def test_select_agrees_with_the_oracle(lemmas_path, wordnet_dir, data, layout, aggregation,
                                       min_count, log_base, policy, fmt):
    content, stops, reaching = vocabulary(lemmas_path)
    # a small pool per example, so terms recur across documents and the floor bites
    pool = (data.draw(st.lists(st.sampled_from(content), min_size=2, max_size=10, unique=True))
            + data.draw(st.lists(st.sampled_from(reaching), min_size=1, max_size=6, unique=True))
            + data.draw(st.lists(st.sampled_from(stops), max_size=2, unique=True)))
    n_docs = data.draw(st.integers(2, 6))
    docs = [data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
            for _ in range(n_docs)]
    classes = data.draw(st.integers(1, min(3, n_docs)))
    lemmas = lemmas_path if policy == "filter-nonwordnet" else None
    ln_b = LN_BASE[log_base]

    with tempfile.TemporaryDirectory(prefix="select-oracle-") as tmp:
        work = Path(tmp)
        tokens = write_corpus(work, layout, docs, classes)
        natural = oracle.expected(tokens, dict.fromkeys(oracle.SCHEMES, 0.0), aggregation,
                                  min_count, lemmas)
        assume(natural.vocabulary)
        # Thresholds between the oracle's own aggregates, so no term sits on one.
        # Under triplet export one may lie above them all and keep no term. The
        # dense CSV of an empty key set is left out: check_dense expects the
        # header "doc_id," where the program writes "doc_id".
        thresholds = {}
        for s in oracle.SCHEMES:
            divisor = 1.0 if s == "tfdf" else ln_b
            thresholds[s] = data.draw(st.sampled_from(threshold_choices(
                natural, s, aggregation, divisor, keep_none=fmt == "coordinate-triplet")))
        # the oracle uses the natural log: compare its weights in natural units,
        # then state them in the run's base for the export checks
        scaled = {s: t * (1.0 if s == "tfdf" else ln_b) for s, t in thresholds.items()}
        exp = oracle.expected(tokens, scaled, aggregation, min_count, lemmas)
        for s in ("tfidf", "tf2"):
            exp.weights[s] = [{t: w / ln_b for t, w in row.items()} for row in exp.weights[s]]

        out = work / "out"
        args = ["select", str(work / "corpus"), "--layout", layout,
                "--wordnet-policy", policy, "--aggregation", aggregation,
                "--min-count", str(min_count), "--log-base", log_base, "--format", fmt,
                "--alpha", repr(thresholds["tfidf"]), "--beta", repr(thresholds["tfdf"]),
                "--gamma", repr(thresholds["tf2"]), "--out", str(out)]
        if policy != "off":
            args += ["--wordnet-dir", str(wordnet_dir)]
        assert main(args) == 0

        problems, _ = oracle.check_select(out, exp, thresholds, fmt)
        if policy == "filter-nonwordnet" and min_count > 1:
            # check_select compares every categorised term with the floored
            # vocabulary, so a floor that drops a categorised term fails it
            # wrongly; report.json's term count and the key-term and matrix
            # checks still cover the filtered, floored vocabulary.
            problems = [p for p in problems if not p.startswith("WordNet-filtered vocabulary")]
        assert problems == []
        if policy == "annotate-only":
            # annotations cover every term; the oracle's category map needs its lemmas
            want = oracle.expected(tokens, scaled, aggregation, min_count, lemmas_path)
            lines = (out / "lexical_categories.tsv").read_text(encoding="utf-8").splitlines()
            assert dict(line.split("\t") for line in lines) == want.categories
