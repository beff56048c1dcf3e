"""Acceptance gate.

Each TestC<n> class checks one numbered acceptance criterion; the
conftest hook prints a per-criterion PASS/FAIL line in the terminal
summary. Golden values are frozen from independent oracle runs
(tools/golden_oracle.py) and from the recorded reference reduction
figures.
"""

import logging
import math
import os
import random
import subprocess
import sys
import time
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from termsift.pipeline import PipelineConfig, run_pipeline
from termsift.porter import stem as porter_stem
from termsift.textprep import TermVector
from termsift.weighting import (
    SCHEMES,
    build_index,
    compute_matrix,
    removed_percentage,
    select_joint,
    select_key_terms,
)
from termsift.wordnet import lexical_categories, load_wordnet

# ---------------------------------------------------------------------------
# criterion 1: reference reduction figures.
#
# (dataset, total terms, key terms, recorded percentage), kept verbatim
# as the paper prints them. The documented rule is truncation to two
# decimals, and each row's percentage follows from its own counts.
# Truncation reproduces 29 of the 33 recorded strings; 12 of those 29
# (e.g. Reuters-21578/a 3.2467... -> "3.24", RTS-grain/a 51.998... ->
# "51.99") only truncation reproduces. Rounding reproduces 20. The four
# rows that no single rule reconciles with the rest are paper errata:
# three are printed rounded, and RTS-corn/a matches neither rule (its
# 2331-term total is confirmed by the RTS-corn/b and /g rows). For
# those four, PAPER_ERRATA gives the string the row's own counts yield
# under truncation; test_errata_are_exactly_the_inconsistent_rows
# derives the same table from an independent exact-arithmetic oracle.

REFERENCE_ROWS = [
    # threshold alpha = 0.028 (tf-idf)
    ("Reuters-21578/a", 462, 447, "3.24"),
    ("Classic30/a", 309807, 257758, "16.80"),
    ("20NG-atheism/a", 185684, 42076, "77.34"),  # inconsistent: truncation gives 77.33
    ("20NG-graphics/a", 164667, 50596, "69.27"),
    ("20NG-hardware/a", 138843, 51851, "62.65"),
    ("RTS-wheat/a", 1940, 965, "50.25"),
    ("RTS-trade/a", 3394, 759, "77.63"),
    ("RTS-ship/a", 1397, 939, "32.78"),
    ("RTS-money/a", 2755, 706, "74.37"),
    ("RTS-grain/a", 2102, 1009, "51.99"),
    ("RTS-corn/a", 2331, 1084, "53.34"),  # inconsistent: neither rule (53.49 / 53.50)
    # threshold beta = 0.01 (tf-df)
    ("Reuters-21578/b", 462, 70, "84.84"),
    ("Classic30/b", 309807, 8974, "97.10"),
    ("20NG-atheism/b", 185684, 3433, "98.15"),
    ("20NG-graphics/b", 164667, 5662, "96.56"),
    ("20NG-hardware/b", 138843, 5008, "96.39"),
    ("RTS-wheat/b", 1940, 421, "78.29"),
    ("RTS-trade/b", 3394, 417, "87.71"),
    ("RTS-ship/b", 1397, 167, "88.04"),
    ("RTS-money/b", 2755, 272, "90.12"),
    ("RTS-grain/b", 2102, 392, "81.35"),
    ("RTS-corn/b", 2331, 555, "76.19"),
    # threshold gamma = 0.005 (tf2)
    ("Reuters-21578/g", 462, 55, "88.10"),  # inconsistent: truncation gives 88.09
    ("Classic30/g", 309807, 8974, "97.10"),
    ("20NG-atheism/g", 185684, 1004, "99.46"),  # inconsistent: truncation gives 99.45
    ("20NG-graphics/g", 164667, 1005, "99.38"),
    ("20NG-hardware/g", 138843, 1000, "99.27"),
    ("RTS-wheat/g", 1940, 310, "84.02"),
    ("RTS-trade/g", 3394, 215, "93.66"),
    ("RTS-ship/g", 1397, 167, "88.04"),
    ("RTS-money/g", 2755, 166, "93.97"),
    ("RTS-grain/g", 2102, 290, "86.20"),
    ("RTS-corn/g", 2331, 437, "81.25"),
]

# dataset -> (string the row's own counts give under truncation, reason)
PAPER_ERRATA = {
    "20NG-atheism/a": ("77.33", "paper rounds 77.3399... to 77.34"),
    "RTS-corn/a": ("53.49", "paper prints 53.34 for 53.4963..., matching neither rule"),
    "Reuters-21578/g": ("88.09", "paper rounds 88.0952... to 88.10"),
    "20NG-atheism/g": ("99.45", "paper rounds 99.4592... to 99.46"),
}


class TestC1ReferencePercentages:
    @pytest.mark.parametrize(
        "dataset,terms,key,expected",
        REFERENCE_ROWS,
        ids=[r[0] for r in REFERENCE_ROWS],
    )
    def test_recorded_string(self, dataset, terms, key, expected):
        corrected = PAPER_ERRATA.get(dataset, (expected, None))[0]
        assert removed_percentage(terms - key, terms) == corrected

    def test_errata_are_exactly_the_inconsistent_rows(self):
        # Exact-arithmetic oracle, sharing no code with removed_percentage.
        def to_hundredths(terms, key, rule):
            ratio = Fraction(100 * (terms - key), terms)
            value = Decimal(ratio.numerator) / Decimal(ratio.denominator)
            return str(value.quantize(Decimal("0.01"), rounding=rule))

        recorded = {d: r for d, _, _, r in REFERENCE_ROWS}
        truncated = {d: to_hundredths(t, k, ROUND_DOWN) for d, t, k, _ in REFERENCE_ROWS}
        rounded = {d: to_hundredths(t, k, ROUND_HALF_UP) for d, t, k, _ in REFERENCE_ROWS}
        for dataset, terms, key, _ in REFERENCE_ROWS:
            assert removed_percentage(terms - key, terms) == truncated[dataset]

        assert set(PAPER_ERRATA) == {d for d in recorded if recorded[d] != truncated[d]}
        for dataset, (corrected, reason) in PAPER_ERRATA.items():
            assert corrected == truncated[dataset]
            # the reason names the printed string it corrects
            assert recorded[dataset] in reason

        for dataset in ("20NG-atheism/a", "Reuters-21578/g", "20NG-atheism/g"):
            assert recorded[dataset] == rounded[dataset]
        corn = "RTS-corn/a"
        assert recorded[corn] not in (truncated[corn], rounded[corn])


class TestC2StemmerFixture:
    def test_full_agreement_under_five_seconds(self, porter_fixture):
        start = time.perf_counter()
        mismatches = sum(1 for word, expected in porter_fixture
                         if porter_stem(word) != expected)
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert len(porter_fixture) > 20000
        assert elapsed < 5.0, f"{elapsed:.2f}s over {len(porter_fixture)} words"


def _random_vectors(rng):
    n_terms = rng.randint(3, 20)
    terms = [f"t{k}" for k in range(n_terms)]
    vectors = []
    for i in range(rng.randint(2, 10)):
        chosen = rng.sample(terms, rng.randint(1, n_terms))
        counts = {t: rng.randint(1, 9) for t in chosen}
        vectors.append(TermVector(f"d{i}", counts))
    return vectors


class TestC3OracleAgreement:
    def test_two_hundred_random_corpora(self):
        for seed in range(200):
            rng = random.Random(seed)
            vectors = _random_vectors(rng)
            index = build_index(vectors)
            n = len(vectors)
            df = {}
            for v in vectors:
                for t in v.counts:
                    df[t] = df.get(t, 0) + 1
            pos = {t: j for j, t in enumerate(index.vocabulary)}
            matrices = {s: compute_matrix(index, s) for s in SCHEMES}
            for i, v in enumerate(vectors):
                for t, f in v.counts.items():
                    tf = f / sum(v.counts.values())
                    oracle = {
                        "tfidf": tf * math.log(n / df[t]),
                        "tfdf": tf / (df[t] / n),
                    }
                    oracle["tf2"] = oracle["tfidf"] * oracle["tfdf"]
                    for s in SCHEMES:
                        got = matrices[s].entries[(i, pos[t])]
                        assert got == pytest.approx(oracle[s], rel=1e-9, abs=1e-12), (
                            f"seed={seed} scheme={s} doc={i} term={t}"
                        )


class TestC4AlgebraicIdentities:
    def test_product_identity(self):
        for seed in range(50):
            index = build_index(_random_vectors(random.Random(seed)))
            m = {s: compute_matrix(index, s) for s in SCHEMES}
            for key, w in m["tf2"].entries.items():
                expected = m["tfidf"].entries[key] * m["tfdf"].entries[key]
                assert w == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_zero_tfidf_iff_term_in_every_document(self):
        for seed in range(50):
            index = build_index(_random_vectors(random.Random(seed)))
            m = compute_matrix(index, "tfidf")
            for (i, j), w in m.entries.items():
                if index.df[j] == index.doc_count:
                    assert w == 0.0
                else:
                    assert w > 0.0

    def test_relative_frequencies_sum_to_one(self):
        for seed in range(50):
            for row in build_index(_random_vectors(random.Random(seed))).tf:
                assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_count_scaling_invariance(self):
        for seed in range(50):
            rng = random.Random(seed)
            vectors = _random_vectors(rng)
            scale = rng.randint(2, 40)
            scaled = [
                TermVector(v.doc_id, {t: c * scale for t, c in v.counts.items()})
                for v in vectors
            ]
            for s in SCHEMES:
                m1 = compute_matrix(build_index(vectors), s)
                m2 = compute_matrix(build_index(scaled), s)
                assert m1.entries.keys() == m2.entries.keys()
                for key, w in m1.entries.items():
                    assert m2.entries[key] == pytest.approx(w, rel=1e-12, abs=1e-15)


class TestC5SelectionMonotonicity:
    def test_thousand_cases(self):
        cases = 0
        for seed in range(100):
            rng = random.Random(1000 + seed)
            index = build_index(_random_vectors(rng))
            matrices = {s: compute_matrix(index, s) for s in SCHEMES}
            for _ in range(10):
                scheme = rng.choice(SCHEMES)
                lo = rng.uniform(0, 2)
                hi = lo + rng.uniform(0, 2)
                low_set = select_key_terms(matrices[scheme], lo).terms
                high_set = select_key_terms(matrices[scheme], hi).terms
                assert high_set <= low_set, f"seed={seed} scheme={scheme}"
                cases += 1
        assert cases == 1000

    def test_joint_contained_in_every_scheme(self):
        for seed in range(100):
            rng = random.Random(seed)
            index = build_index(_random_vectors(rng))
            matrices = {s: compute_matrix(index, s) for s in SCHEMES}
            th = {s: rng.uniform(0, 1) for s in SCHEMES}
            key_terms = {s: select_key_terms(matrices[s], th[s]) for s in SCHEMES}
            joint = select_joint(key_terms).terms
            for s in SCHEMES:
                assert joint <= select_key_terms(matrices[s], th[s]).terms


class TestC6LexicalLookups:
    def test_single_category(self, wordnet_db):
        assert lexical_categories(wordnet_db, "dog").categories == {"noun.animal"}

    def test_washington_three_categories(self, wordnet_db):
        # holds for database versions >= 2.1, which this fixture reports
        assert wordnet_db.version == "2.1"
        entry = lexical_categories(wordnet_db, "washington")
        assert len(entry.categories) == 3
        assert entry.categories == {"noun.location", "noun.group", "noun.person"}

    def test_unknown_lemma(self, wordnet_db):
        entry = lexical_categories(wordnet_db, "qzxv")
        assert not entry.in_wordnet

    def test_real_database_if_available(self):
        path = os.environ.get("WNSEARCHDIR")
        if not path or not os.path.isdir(path):
            pytest.skip("no external WordNet database configured")
        db = load_wordnet(path)
        assert "noun.animal" in lexical_categories(db, "dog").categories


GOLDEN = {
    "documents": 20,
    "vocabulary": 136,
    "tfidf": 56,
    "tfdf": 132,
    "tf2": 19,
    "joint": 19,
}


@pytest.fixture(scope="module")
def runs(minicorpus_dir, wordnet_dir, tmp_path_factory):
    results = []
    elapsed = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"golden-{tag}")
        config = PipelineConfig(
            corpus_path=str(minicorpus_dir),
            layout="class-subdirectories",
            wordnet_dir=str(wordnet_dir),
            out_dir=str(out),
        )
        start = time.perf_counter()
        results.append((run_pipeline(config), out))
        elapsed.append(time.perf_counter() - start)
    return results, elapsed


class TestC7GoldenRun:
    def test_golden_values_are_the_oracles(self):
        oracle = Path(__file__).resolve().parent.parent / "tools" / "golden_oracle.py"
        done = subprocess.run([sys.executable, str(oracle)], capture_output=True, text=True,
                              check=True)
        printed = {}
        for line in done.stdout.splitlines():
            key, _, value = line.partition(" = ")
            printed[key.removeprefix("kd_")] = int(value.split()[0])
        assert printed == GOLDEN

    def test_runtime_under_five_seconds(self, runs):
        _, elapsed = runs
        assert max(elapsed) < 5.0

    def test_golden_sizes(self, runs):
        result = runs[0][0][0]
        assert result.stats.documents == GOLDEN["documents"]
        assert result.rows[0].term_count == GOLDEN["vocabulary"]
        for scheme in ("tfidf", "tfdf", "tf2"):
            assert len(result.key_terms[scheme].terms) == GOLDEN[scheme], scheme
        assert len(result.joint.terms) == GOLDEN["joint"]

    def test_every_scheme_removes_terms(self, runs):
        result = runs[0][0][0]
        vocabulary = GOLDEN["vocabulary"]
        for kd in result.key_terms.values():
            assert 0 < len(kd.terms) < vocabulary
        assert 0 < len(result.joint.terms) < vocabulary
        for kd in result.key_terms.values():
            assert result.joint.terms <= kd.terms

    def test_byte_identical_reports(self, runs):
        results, _ = runs
        (_, out_a), (_, out_b) = results
        skip = {"metadata.json"}  # timestamp differs
        files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())
                   if p.name not in skip}
        files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())
                   if p.name not in skip}
        assert files_a.keys() == files_b.keys()
        assert files_a == files_b

    def test_percentages_consistent(self, runs):
        result = runs[0][0][0]
        for row in result.rows:
            assert row.removed_pct == removed_percentage(
                row.term_count - row.key_term_count, row.term_count)


class TestC8StageLogging:
    def _messages(self, caplog, corpus_dir, wordnet_dir, **kw):
        config = PipelineConfig(
            corpus_path=str(corpus_dir),
            layout="class-subdirectories",
            wordnet_dir=str(wordnet_dir) if wordnet_dir else None,
            out_dir=str(kw.pop("out_dir")),
            **kw,
        )
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_pipeline(config)
        return caplog.messages

    def test_seven_stages_in_order(self, minicorpus_dir, wordnet_dir, tmp_path, caplog):
        messages = self._messages(caplog, minicorpus_dir, wordnet_dir,
                                  out_dir=tmp_path / "out")
        steps = [m for m in messages if m.startswith("step ")]
        prefixes = [m.split(":")[0] for m in steps]
        assert prefixes == [f"step {i}/7" for i in range(1, 8)]

    def test_seven_stages_in_order_cold_and_warm(self, minicorpus_dir, wordnet_dir, tmp_path,
                                                caplog, monkeypatch):
        # the second run reads steps 1-3 from the corpus cache and logs them alike
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        for run in ("cold", "warm"):
            caplog.clear()
            messages = self._messages(caplog, minicorpus_dir, wordnet_dir,
                                      out_dir=tmp_path / run)
            prefixes = [m.split(":")[0] for m in messages if m.startswith("step ")]
            assert prefixes == [f"step {i}/7" for i in range(1, 8)], run
            assert any(m.startswith("steps 1-3 read from the cache entry ")
                       for m in messages) == (run == "warm")

    def test_stage_four_skipped_when_disabled(self, minicorpus_dir, tmp_path, caplog):
        messages = self._messages(caplog, minicorpus_dir, None,
                                  out_dir=tmp_path / "out", wordnet_policy="off")
        steps = [m.split(":")[0] for m in messages if m.startswith("step ")]
        assert "step 4/7 skipped (wordnet off)" in [m for m in messages
                                                    if m.startswith("step 4")]
        assert [s for s in steps if not s.startswith("step 4")] == [
            "step 1/7", "step 2/7", "step 3/7", "step 5/7", "step 6/7", "step 7/7",
        ]
