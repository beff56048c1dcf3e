"""Expected outputs of the perfbench operations, computed apart from the program.

Shares no code with the package, in the manner of ``tools/golden_oracle.py``:
it starts from the generator's token record (``tokens.tsv``), reads the
stop words itself, stems by lookup in the reference fixture pair
``voc.txt`` -> ``output.txt``, looks lexical categories up in the
generator's lemma record (``lemmas.tsv``) with its own copy of the
documented stem -> surface -> base-form cascade, and computes every
weight cell by cell from the formulas in the README:

    TF = f / total, DF = df / |D|
    tfidf = TF * ln(|D| / df),  tfdf = TF / DF,  tf2 = tfidf * tfdf

The check functions return a list of mismatches; an empty list passes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VOC = ROOT / "tests" / "fixtures" / "porter" / "voc.txt"
STEMS = ROOT / "tests" / "fixtures" / "porter" / "output.txt"
STOPWORDS = ROOT / "src" / "termsift" / "data" / "stopwords.txt"

SCHEMES = ("tfidf", "tfdf", "tf2")
REL_TOL = 1e-9
# WordNet's morphological detachment rules (suffix, replacement).
NOUN_RULES = (("s", ""), ("ses", "s"), ("xes", "x"), ("zes", "z"), ("ches", "ch"),
              ("shes", "sh"), ("men", "man"), ("ies", "y"))
VERB_RULES = (("s", ""), ("ies", "y"), ("es", "e"), ("es", ""), ("ed", "e"), ("ed", ""),
              ("ing", "e"), ("ing", ""))
MAX_REPORTED = 5  # mismatches listed per check


@dataclass
class Expected:
    doc_ids: list[str]
    vocabulary: list[str]  # sorted; after the WordNet filter and the frequency floor
    weights: dict[str, list[dict[str, float]]]  # scheme -> per document {term: weight}
    key_terms: dict[str, set[str]]  # per scheme and "joint"
    borderline: dict[str, set[str]]  # terms whose aggregate is within REL_TOL of the threshold
    stats: dict[str, int]
    categories: dict[str, str] | None  # term before filtering -> "cat,cat" or "-"


def read_stem_table() -> dict[str, str]:
    return dict(zip(VOC.read_text(encoding="utf-8").split("\n"),
                    STEMS.read_text(encoding="utf-8").split("\n")))


def read_stopwords() -> set[str]:
    return {line.strip().lower() for line in STOPWORDS.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")}


def read_tokens(path: Path) -> list[tuple[str, str, list[str]]]:
    docs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        doc_id, label, text = line.split("\t")
        docs.append((doc_id, label, text.split()))
    return sorted(docs)


def read_lemmas(path: Path) -> dict[str, dict[str, set[str]]]:
    lemmas: dict[str, dict[str, set[str]]] = {"n": {}, "v": {}}
    for line in path.read_text(encoding="utf-8").splitlines():
        lemma, pos, cats = line.split("\t")
        lemmas[pos][lemma] = set(cats.split(","))
    return lemmas


def _cascade(stem: str, surfaces: set[str], lemmas) -> set[str]:
    """Categories of the stem itself, else of its surface forms, else of the
    base forms the detachment rules give for the surfaces."""
    def cats(word):
        return lemmas["n"].get(word, set()) | lemmas["v"].get(word, set())

    found = cats(stem)
    if found:
        return found
    for surface in surfaces:
        found |= cats(surface)
    if found:
        return found
    for surface in surfaces:
        for pos, rules in (("n", NOUN_RULES), ("v", VERB_RULES)):
            for suffix, replacement in rules:
                if surface.endswith(suffix):
                    base = surface[:len(surface) - len(suffix)] + replacement
                    if base in lemmas[pos]:
                        found |= cats(base)
    return found


def truncated_pct(removed: int, total: int) -> str:
    if total <= 0:
        return "0.00"
    hundredths = removed * 10000 // total
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def expected(tokens_path: Path, thresholds: dict[str, float], aggregation: str = "max",
             min_count: int = 1, lemmas_path: Path | None = None) -> Expected:
    docs = read_tokens(tokens_path)
    stops = read_stopwords()
    stem_of = read_stem_table()

    n = len(docs)
    counts: list[Counter] = []
    surfaces: dict[str, set[str]] = {}
    for _, _, tokens in docs:
        stems = []
        for token in tokens:
            if token not in stops:
                stems.append(stem_of[token])
                surfaces.setdefault(stem_of[token], set()).add(token)
        counts.append(Counter(stems))

    categories = None
    if lemmas_path is not None:
        lemmas = read_lemmas(lemmas_path)
        found = {stem: _cascade(stem, surfaces[stem], lemmas) for stem in surfaces}
        categories = {stem: ",".join(sorted(c)) or "-" for stem, c in found.items()}
        counts = [Counter({t: f for t, f in c.items() if found[t]}) for c in counts]
    if min_count > 1:
        totals = Counter()
        for c in counts:
            totals.update(c)
        counts = [Counter({t: f for t, f in c.items() if totals[t] >= min_count})
                  for c in counts]

    df = Counter(t for c in counts for t in c)
    vocabulary = sorted(df)
    weights: dict[str, list[dict[str, float]]] = {s: [] for s in SCHEMES}
    for c in counts:
        total = sum(c.values())
        row = {s: {} for s in SCHEMES}
        for t, f in c.items():
            tf = f / total
            w_tfidf = tf * math.log(n / df[t])
            w_tfdf = tf / (df[t] / n)
            row["tfidf"][t], row["tfdf"][t], row["tf2"][t] = w_tfidf, w_tfdf, w_tfidf * w_tfdf
        for s in SCHEMES:
            weights[s].append(row[s])

    key_terms, borderline = {}, {}
    for s in SCHEMES:
        per_term: dict[str, list[float]] = {}
        for row in weights[s]:
            for t, w in row.items():
                per_term.setdefault(t, []).append(w)
        if aggregation == "mean":
            score = {t: sum(ws) / len(ws) for t, ws in per_term.items()}
        else:
            score = {t: max(ws) for t, ws in per_term.items()}
        threshold = thresholds[s]
        key_terms[s] = {t for t, v in score.items() if v >= threshold}
        borderline[s] = {t for t, v in score.items()
                         if math.isclose(v, threshold, rel_tol=REL_TOL)}
    key_terms["joint"] = set.intersection(*(key_terms[s] for s in SCHEMES))
    borderline["joint"] = set.union(*(borderline[s] for s in SCHEMES))

    classes = Counter(label for _, label, _ in docs)
    raw_tokens = sum(len(tokens) for _, _, tokens in docs)
    stats = {"documents": n, "classes": len(classes), "largest_class": max(classes.values()),
             "avg_doc_length": (2 * raw_tokens + n) // (2 * n)}
    return Expected(doc_ids=[d for d, _, _ in docs], vocabulary=vocabulary, weights=weights,
                    key_terms=key_terms, borderline=borderline, stats=stats,
                    categories=categories)


def _close(text: str, want: float) -> bool:
    return math.isclose(float(text), want, rel_tol=REL_TOL)


def check_triplets(path: Path, exp: Expected, scheme: str, columns: set[str]) -> list[str]:
    """Sparse export: one ``doc_id,term,weight`` line per non-zero cell of the
    kept columns, in (document, vocabulary) order."""
    want = [(doc_id, t, row[t])
            for doc_id, row in zip(exp.doc_ids, exp.weights[scheme])
            for t in sorted(row) if t in columns]
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(want):
        return [f"{path.name}: {len(lines)} lines, expected {len(want)}"]
    problems = []
    for line, (doc_id, term, w) in zip(lines, want):
        parts = line.split(",")
        if len(parts) != 3 or parts[:2] != [doc_id, term] or not _close(parts[2], w):
            problems.append(f"{path.name}: {line!r}, expected {doc_id},{term},{w!r}")
            if len(problems) >= MAX_REPORTED:
                break
    return problems


def check_dense(path: Path, exp: Expected, scheme: str, columns: set[str]) -> list[str]:
    """Dense CSV export: a header of the kept columns, then one row per document."""
    header = [t for t in exp.vocabulary if t in columns]
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 1 + len(exp.doc_ids):
        return [f"{path.name}: {len(lines)} lines, expected {1 + len(exp.doc_ids)}"]
    if lines[0] != "doc_id," + ",".join(header):
        return [f"{path.name}: header differs from the {len(header)} kept terms"]
    problems = []
    for line, doc_id, row in zip(lines[1:], exp.doc_ids, exp.weights[scheme]):
        cells = line.split(",")
        if cells[0] != doc_id or len(cells) != 1 + len(header):
            problems.append(f"{path.name}: row {cells[0]!r} has {len(cells) - 1} cells, "
                            f"expected {doc_id!r} with {len(header)}")
        else:
            for term, cell in zip(header, cells[1:]):
                w = row.get(term)
                if (cell != "0") if w is None else not _close(cell, w):
                    problems.append(f"{path.name}: {doc_id},{term} = {cell}, expected {w!r}")
                    break
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def check_select(out: Path, exp: Expected, thresholds: dict[str, float],
                 matrix_format: str) -> tuple[list[str], int]:
    """Check one ``select`` output directory; returns (mismatches, borderline terms)."""
    problems: list[str] = []
    got: dict[str, set[str]] = {}
    for name in SCHEMES + ("joint",):
        terms = set((out / f"keyterms_{name}.txt").read_text(encoding="utf-8").split())
        got[name] = terms
        outside = (terms ^ exp.key_terms[name]) - exp.borderline[name]
        if outside:
            problems.append(f"keyterms_{name}.txt: {len(outside)} terms differ, "
                            f"e.g. {sorted(outside)[:MAX_REPORTED]}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    [stats] = report["stats"]
    for key, want in exp.stats.items():
        if stats[key] != want:
            problems.append(f"report.json stats {key} = {stats[key]}, expected {want}")
    rows = {row["scheme"]: row for row in report["rows"]}
    if sorted(rows) != sorted(SCHEMES + ("joint",)):
        problems.append(f"report.json rows {sorted(rows)}")
        return problems, 0
    for name, row in rows.items():
        want = (len(exp.vocabulary), len(got[name]),
                truncated_pct(len(exp.vocabulary) - len(got[name]), len(exp.vocabulary)),
                thresholds.get(name))
        have = (row["term_count"], row["key_term_count"], row["removed_pct"], row["threshold"])
        if have != want:
            problems.append(f"report.json row {name}: {have}, expected {want}")

    ext = "csv" if matrix_format == "csv" else "triplets"
    check = check_dense if matrix_format == "csv" else check_triplets
    for s in SCHEMES:
        problems += check(out / f"matrix_{s}.{ext}", exp, s, got[s])

    if exp.categories is not None:
        lines = (out / "lexical_categories.tsv").read_text(encoding="utf-8").splitlines()
        have = dict(line.split("\t") for line in lines)
        if have != exp.categories:
            wrong = sorted(t for t in have.keys() | exp.categories.keys()
                           if have.get(t) != exp.categories.get(t))
            problems.append(f"lexical_categories.tsv: {len(wrong)} terms differ, "
                            f"e.g. {wrong[:MAX_REPORTED]}")
        kept = {t for t, cats in have.items() if cats != "-"}
        if kept != set(exp.vocabulary):
            problems.append(f"WordNet-filtered vocabulary has {len(kept)} terms, "
                            f"expected {len(exp.vocabulary)}")
        uncategorised = set().union(*got.values()) - kept
        if uncategorised:
            problems.append(f"key terms without a category: {sorted(uncategorised)[:5]}")
    borderline = len(set().union(*exp.borderline.values()))
    return problems, borderline
