import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termsift import weighting
from termsift.errors import EmptyCorpusError
from termsift.pipeline import LOG_BASES
from termsift.textprep import TermVector
from termsift.weighting import (
    AGGREGATIONS,
    EXPORT_FORMATS,
    SCHEMES,
    CorpusIndex,
    WeightMatrix,
    build_index,
    compute_matrix,
    export_matrix,
    frequent_terms,
    removed_percentage,
    select_joint,
    select_key_terms,
)


def vec(doc_id, counts):
    return TermVector(doc_id=doc_id, counts=dict(counts))


def left_to_right_sum(weights):
    """The README's rule for a mean's sum: start from 0 and add each weight in
    order. Builtin ``sum`` compensates its rounding from Python 3.12 on."""
    total = 0.0
    for w in weights:
        total += w
    return total


# The point formulas: this file's reference for one cell, computed from the
# vectors alone and undefined where the term does not occur in the document.
class ZeroFrequencyError(Exception):
    pass


def _cell(vectors, i, term):
    f = vectors[i].counts.get(term, 0)
    if f == 0:
        raise ZeroFrequencyError(f"term {term!r} has zero frequency in document {i}")
    return f, sum(vectors[i].counts.values()), sum(term in v.counts for v in vectors)


def tfidf(vectors, i, term):
    f, total, df = _cell(vectors, i, term)
    return (f / total) * math.log(len(vectors) / df)


def tfdf(vectors, i, term):
    f, total, df = _cell(vectors, i, term)
    return (f / total) / (df / len(vectors))


def tf2(vectors, i, term):
    return tfidf(vectors, i, term) * tfdf(vectors, i, term)


def random_vectors(rng, n_docs=None, n_terms=None):
    n_docs = n_docs or rng.randint(2, 12)
    n_terms = n_terms or rng.randint(3, 25)
    terms = [f"t{k}" for k in range(n_terms)]
    vectors = []
    for i in range(n_docs):
        chosen = rng.sample(terms, rng.randint(1, n_terms))
        vectors.append(vec(f"d{i}", {t: rng.randint(1, 9) for t in chosen}))
    return vectors


class TestIndex:
    def test_vocabulary_sorted_and_df(self):
        vectors = [vec("a", {"z": 1, "m": 2}), vec("b", {"m": 5})]
        index = build_index(vectors)
        assert index.vocabulary == ("m", "z")
        assert index.df == (2, 1)
        assert index.doc_count == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_index([])

    def test_frequent_terms(self):
        vectors = [vec("a", {"x": 1, "y": 3}), vec("b", {"y": 1, "z": 2})]
        assert frequent_terms(vectors) == {"x", "y", "z"}
        assert frequent_terms(vectors, 2) == {"y", "z"}
        assert frequent_terms(vectors, 4) == {"y"}
        assert frequent_terms(vectors, 5) == set()
        with pytest.raises(ValueError):
            frequent_terms(vectors, 0)

    def test_rows_hold_ascending_term_ids_and_relative_frequencies(self):
        index = build_index([vec("a", {"z": 1, "a": 3}), vec("b", {}), vec("c", {"m": 2})])
        assert index.vocabulary == ("a", "m", "z")
        assert [tuple(r) for r in index.term_ids] == [(0, 2), (), (1,)]
        assert [tuple(r) for r in index.tf] == [(3 / 4, 1 / 4), (), (2 / 2,)]
        assert index.df == (1, 1, 1)
        assert index.doc_count == 3


class TestPointFormulas:
    VECTORS = [vec("a", {"apple": 2, "both": 1, "rare": 1}), vec("b", {"both": 3, "pear": 1})]

    def test_tfidf_definition(self):
        # apple: f=2, total=4, df=1, |D|=2
        assert tfidf(self.VECTORS, 0, "apple") == pytest.approx((2 / 4) * math.log(2))

    def test_tfidf_zero_for_ubiquitous_term(self):
        assert tfidf(self.VECTORS, 0, "both") == 0.0
        assert tfidf(self.VECTORS, 1, "both") == 0.0

    def test_tfdf_definition(self):
        # TF = 1/4, DF = 1/2
        assert tfdf(self.VECTORS, 0, "rare") == pytest.approx((1 / 4) / (1 / 2))

    def test_tf2_is_product(self):
        for i, term in [(0, "apple"), (0, "both"), (1, "both")]:
            assert tf2(self.VECTORS, i, term) == pytest.approx(
                tfidf(self.VECTORS, i, term) * tfdf(self.VECTORS, i, term)
            )

    def test_absent_cell_is_undefined(self):
        with pytest.raises(ZeroFrequencyError):
            tfidf(self.VECTORS, 0, "pear")
        with pytest.raises(ZeroFrequencyError):
            tfdf(self.VECTORS, 0, "pear")


class TestMatrix:
    def test_entries_match_point_functions(self):
        rng = random.Random(7)
        vectors = random_vectors(rng)
        index = build_index(vectors)
        for scheme, fn in (("tfidf", tfidf), ("tfdf", tfdf), ("tf2", tf2)):
            matrix = compute_matrix(index, scheme)
            for (i, j), w in matrix.entries.items():
                assert w == pytest.approx(fn(vectors, i, index.vocabulary[j]), rel=1e-12)

    def test_only_populated_cells_present(self):
        index = build_index([vec("a", {"x": 1}), vec("b", {"y": 1})])
        matrix = compute_matrix(index, "tfidf")
        pos = {t: j for j, t in enumerate(index.vocabulary)}
        assert set(matrix.entries) == {(0, pos["x"]), (1, pos["y"])}
        assert (len(matrix.index.doc_ids), len(matrix.index.vocabulary)) == (2, 2)

    def test_unknown_scheme(self):
        index = build_index([vec("a", {"x": 1})])
        with pytest.raises(ValueError):
            compute_matrix(index, "bm25")

    def test_relative_frequencies_sum_to_one(self):
        rng = random.Random(11)
        for _ in range(20):
            index = build_index(random_vectors(rng))
            for tfs in index.tf:
                assert sum(tfs) == pytest.approx(1.0, abs=1e-9)


class TestEntriesView:
    VECTORS = [vec("a", {"z": 1, "m": 2}), vec("b", {}), vec("c", {"m": 1, "a": 4})]

    def test_len_lookup_and_order(self):
        index = build_index(self.VECTORS)  # vocabulary a, m, z
        entries = compute_matrix(index, "tfdf").entries
        assert len(entries) == sum(len(v.counts) for v in self.VECTORS) == 4
        assert list(entries) == [(0, 1), (0, 2), (2, 0), (2, 1)]
        assert entries[(2, 0)] == pytest.approx(tfdf(self.VECTORS, 2, "a"), rel=1e-12)
        for absent in [(0, 0), (1, 1), (2, 2), (0, 3), (3, 0), (-1, 0)]:
            with pytest.raises(KeyError):
                entries[absent]
            assert absent not in entries
        assert entries.get((1, 0)) is None
        with pytest.raises(TypeError):
            entries[(0, 1)] = 1.0


class TestOracleEquivalence:
    """Another log base divides tfidf and tf2 by its natural log and leaves
    tfdf alone; criterion 3 checks the natural-log cells against the formulas."""

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_corpora(self, seed):
        index = build_index(random_vectors(random.Random(seed)))
        natural = {s: compute_matrix(index, s) for s in SCHEMES}
        for base in (2.0, 10.0):
            for s in SCHEMES:
                matrix = compute_matrix(index, s, log_base=base)
                assert list(matrix.entries) == list(natural[s].entries)
                divisor = 1.0 if s == "tfdf" else math.log(base)
                assert list(matrix.entries.values()) == pytest.approx(
                    [w / divisor for w in natural[s].entries.values()], rel=1e-12, abs=1e-15)


class TestSelection:
    def make(self, seed=3):
        index = build_index(random_vectors(random.Random(seed)))
        return index, {s: compute_matrix(index, s) for s in SCHEMES}

    def test_threshold_zero_keeps_tfdf_everything(self):
        index, matrices = self.make()
        kd = select_key_terms(matrices["tfdf"], 0.0)
        assert kd.terms == frozenset(index.vocabulary)
        assert kd.vocabulary_size == len(index.vocabulary)
        assert kd.removed_pct == "0.00"

    def test_huge_threshold_removes_everything(self):
        index, matrices = self.make()
        kd = select_key_terms(matrices["tfidf"], 1e9)
        assert kd.terms == frozenset()
        assert kd.removed_pct == "100.00"

    def test_boundary_is_inclusive(self):
        index = build_index([vec("a", {"x": 1, "y": 1}), vec("b", {"x": 1})])
        matrix = compute_matrix(index, "tfdf")
        # y: max tfdf = (1/2)/(1/2) = 1.0 exactly; >= keeps it at the boundary
        assert "y" in select_key_terms(matrix, 1.0).terms
        assert "y" not in select_key_terms(matrix, 1.0 + 1e-12).terms

    def test_monotone_in_threshold(self):
        _, matrices = self.make()
        for m in matrices.values():
            prev = None
            for th in (0.0, 0.01, 0.1, 0.5, 1.0, 5.0):
                kd = select_key_terms(m, th)
                if prev is not None:
                    assert kd.terms <= prev
                prev = kd.terms

    def test_aggregations(self):
        index = build_index([vec("a", {"x": 3, "y": 1}), vec("b", {"x": 1, "z": 3})])
        matrix = compute_matrix(index, "tfdf")
        jx = index.vocabulary.index("x")
        by_max = select_key_terms(matrix, 0, "max")
        by_mean = select_key_terms(matrix, 0, "mean")
        assert by_max.terms == by_mean.terms
        # mean for x = (w_a + w_b)/df = (0.75 + 0.25)/2
        x_max = max(matrix.entries[(0, jx)], matrix.entries[(1, jx)])
        x_mean = (matrix.entries[(0, jx)] + matrix.entries[(1, jx)]) / 2
        mid = (x_mean + x_max) / 2
        assert "x" in select_key_terms(matrix, mid, "max").terms
        assert "x" not in select_key_terms(matrix, mid, "mean").terms

    def test_mean_sums_each_term_in_document_order(self):
        vectors = [vec("d0", {"x": 1, "y": 3}), vec("d1", {"x": 1, "y": 5}),
                   vec("d2", {"x": 7, "y": 7}), vec("d3", {"y": 1})]
        matrix = compute_matrix(build_index(vectors), "tfdf")
        ws = [matrix.entries[(i, 0)] for i in range(3)]  # x's weights in document order
        in_order = left_to_right_sum(ws)
        # another summation order gives another float, so it would move the boundary
        assert left_to_right_sum(reversed(ws)) != in_order and math.fsum(ws) != in_order
        mean = in_order / len(ws)
        assert "x" in select_key_terms(matrix, mean, "mean").terms
        assert "x" not in select_key_terms(matrix, math.nextafter(mean, math.inf), "mean").terms

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), aggregation=st.sampled_from(AGGREGATIONS),
           threshold=st.sampled_from([0.0, 0.25, 1.0, 3.5]))
    def test_keeps_the_terms_whose_max_or_mean_reaches_the_threshold(
            self, data, aggregation, threshold):
        n_terms = data.draw(st.integers(1, 6))
        # weights exactly at the threshold and one ulp either side of it
        weight = st.one_of(
            st.sampled_from([threshold, math.nextafter(threshold, math.inf),
                             math.nextafter(threshold, -math.inf) if threshold else 0.0,
                             0.0, threshold / 2, 2 * threshold + 1]),
            st.floats(0, 10))
        n_docs = data.draw(st.integers(3, 7))
        # one more term, t<n_terms>, has 0.1, 0.2 and 0.3 in three documents, in
        # document order: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1, so its mean
        # depends on the order its weights are summed in
        ordered = sorted(data.draw(st.sets(st.integers(0, n_docs - 1), min_size=3, max_size=3)))
        extra = dict(zip(ordered, (0.1, 0.2, 0.3)))
        term_ids, weights = [], []
        for i in range(n_docs):
            ids = sorted(data.draw(st.sets(st.integers(0, n_terms - 1))))
            ws = [data.draw(weight) for _ in ids]
            if i in extra:
                ids.append(n_terms)
                ws.append(extra[i])
            term_ids.append(tuple(ids))
            weights.append(tuple(ws))
        columns = {}
        for ids, ws in zip(term_ids, weights):
            for j, w in zip(ids, ws):
                columns.setdefault(j, []).append(w)
        # the drawn weights stand in the tf rows, and the formula returns them;
        # a term with no cell has largest TF 0.0, which threshold 0.0 reaches
        index = CorpusIndex(tuple(f"t{j}" for j in range(n_terms + 1)),
                            tuple(f"d{i}" for i in range(n_docs)),
                            tuple(len(columns.get(j, ())) for j in range(n_terms + 1)),
                            tuple(term_ids), tuple(weights),
                            array("d", [max(columns.get(j, ()), default=0.0)
                                        for j in range(n_terms + 1)]))
        matrix = WeightMatrix("tfidf", index, lambda tf, j: tf)
        if aggregation == "max":
            aggregate = {j: max(ws) for j, ws in columns.items()}
        else:
            aggregate = {j: left_to_right_sum(ws) / len(ws) for j, ws in columns.items()}
            # a mean lands anywhere, so the boundary is drawn at one: exactly
            # at a reference mean or one ulp either side of it
            at_a_mean = sorted({t for m in aggregate.values()
                                for t in (m, math.nextafter(m, math.inf),
                                          math.nextafter(m, -math.inf)) if t >= 0})
            if at_a_mean:
                threshold = data.draw(st.sampled_from(at_a_mean))
        expected = {f"t{j}" for j, a in aggregate.items() if a >= threshold}
        assert select_key_terms(matrix, threshold, aggregation).terms == expected

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(SCHEMES),
           base=st.sampled_from(sorted(LOG_BASES.values())))
    def test_weights_do_not_decrease_as_tf_grows(self, data, scheme, base):
        # max selection reads each term's weight at its largest TF only
        n = data.draw(st.integers(1, 10**6))
        d = data.draw(st.integers(1, n))
        index = CorpusIndex(("t",), ("d",) * n, (d,), (), (), array("d", [0.0]))
        weight = compute_matrix(index, scheme, log_base=base).weight
        low = data.draw(st.floats(0, 1))
        high = data.draw(st.one_of(
            st.just(low), st.just(math.nextafter(low, math.inf)), st.floats(low, 1)))
        assert weight(low, 0) <= weight(high, 0)

    def test_mean_memory_follows_the_terms_not_the_cells(self):
        # 500 documents x 200 of 2,000 terms: 100,000 cells, 50 per term
        rng = random.Random(11)
        terms = [f"t{k:04d}" for k in range(2000)]
        index = build_index([vec(f"d{i}", {t: rng.randint(1, 9) for t in rng.sample(terms, 200)})
                             for i in range(500)])
        matrix = compute_matrix(index, "tfidf")
        tracemalloc.start()
        try:
            kept = select_key_terms(matrix, 0.0, "mean")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept.terms) == len(terms)
        # a list of each term's boxed weights takes about 32 bytes a cell, 1,600 a term here
        assert peak < 500 * len(terms), f"traced peak {peak} bytes for {len(terms)} terms"

    def test_negative_threshold_rejected(self):
        _, matrices = self.make()
        with pytest.raises(ValueError):
            select_key_terms(matrices["tfidf"], -0.1)

    def test_unknown_aggregation(self):
        _, matrices = self.make()
        with pytest.raises(ValueError):
            select_key_terms(matrices["tfidf"], 0.1, "median")

    def test_joint_is_intersection(self):
        _, matrices = self.make()
        joint = select_joint(_key_terms(matrices))
        per = {s: select_key_terms(matrices[s], THRESHOLDS[s]).terms for s in SCHEMES}
        assert joint.terms == per["tfidf"] & per["tfdf"] & per["tf2"]
        assert joint.threshold is None
        assert joint.scheme == "joint"

    def test_joint_needs_all_schemes(self):
        _, matrices = self.make()
        key_terms = _key_terms(matrices)
        with pytest.raises(ValueError):
            select_joint({**key_terms, "bm25": key_terms["tf2"]})

    def test_joint_rejects_sets_over_different_vocabularies(self):
        _, matrices = self.make(seed=3)
        _, other = self.make(seed=4)
        key_terms = _key_terms(matrices)
        key_terms["tf2"] = select_key_terms(other["tf2"], THRESHOLDS["tf2"])
        assert key_terms["tf2"].vocabulary_size != key_terms["tfidf"].vocabulary_size
        with pytest.raises(ValueError, match="vocabularies"):
            select_joint(key_terms)

    def test_joint_needs_key_terms_for_every_scheme(self):
        _, matrices = self.make()
        key_terms = _key_terms(matrices)
        with pytest.raises(ValueError):
            select_joint({s: key_terms[s] for s in ("tfidf", "tfdf")})
        key_terms["tf2"] = select_key_terms(matrices["tf2"], 0.1, "mean")
        with pytest.raises(ValueError):
            select_joint(key_terms)


# the paper's default alpha, beta and gamma
THRESHOLDS = {"tfidf": 0.028, "tfdf": 0.01, "tf2": 0.005}


def _key_terms(matrices):
    return {s: select_key_terms(matrices[s], THRESHOLDS[s]) for s in SCHEMES}


class TestRemovedPercentage:
    @pytest.mark.parametrize(
        "removed,total,expected",
        [
            (15, 462, "3.24"),
            (392, 462, "84.84"),
            (52049, 309807, "16.80"),
            (182251, 185684, "98.15"),
            (0, 100, "0.00"),
            (100, 100, "100.00"),
            (1, 3, "33.33"),
            (2, 3, "66.66"),  # truncated, not rounded
            (0, 0, "0.00"),
        ],
    )
    def test_values(self, removed, total, expected):
        assert removed_percentage(removed, total) == expected

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_truncation_invariant(self, removed, total):
        s = removed_percentage(min(removed, total), total)
        whole, frac = s.split(".")
        assert len(frac) == 2
        value = int(whole) * 100 + int(frac)
        exact = min(removed, total) * 10000 / total
        assert value <= exact < value + 1 or math.isclose(value, exact)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_scaling_invariance(data):
    """Multiplying every count in a document by a constant leaves weights unchanged."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    scale = data.draw(st.integers(2, 50))
    vectors = random_vectors(rng)
    scaled = [
        TermVector(v.doc_id, {t: c * scale for t, c in v.counts.items()})
        for v in vectors
    ]
    m1 = {s: compute_matrix(build_index(vectors), s) for s in SCHEMES}
    m2 = {s: compute_matrix(build_index(scaled), s) for s in SCHEMES}
    for s in SCHEMES:
        assert m1[s].entries.keys() == m2[s].entries.keys()
        for key, w in m1[s].entries.items():
            assert m2[s].entries[key] == pytest.approx(w, rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_tf2_product_identity(seed):
    index = build_index(random_vectors(random.Random(seed)))
    m = {s: compute_matrix(index, s) for s in SCHEMES}
    for key, w in m["tf2"].entries.items():
        expected = m["tfidf"].entries[key] * m["tfdf"].entries[key]
        assert w == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_tfidf_zero_iff_term_everywhere(seed):
    index = build_index(random_vectors(random.Random(seed)))
    m = compute_matrix(index, "tfidf")
    everywhere = {t for j, t in enumerate(index.vocabulary) if index.df[j] == index.doc_count}
    for (i, j), w in m.entries.items():
        term = index.vocabulary[j]
        if term in everywhere:
            assert w == 0.0
        else:
            assert w > 0.0


class TestExport:
    INDEX = build_index([vec("a", {"x": 2, "y": 1}), vec("b", {"y": 3})])

    def test_dense_csv(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfdf")
        path = export_matrix(matrix, tmp_path / "m.csv", fmt="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "doc_id,x,y"
        assert lines[1].startswith("a,")
        assert lines[2].split(",")[1] == "0"  # x absent in doc b

    def test_triplets_sorted(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfdf")
        path = export_matrix(matrix, tmp_path / "m.triplets", fmt="coordinate-triplet")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert [l.split(",")[:2] for l in lines] == [["a", "x"], ["a", "y"], ["b", "y"]]
        for line in lines:
            float(line.split(",")[2])  # parses, dot decimal separator

    def test_rows_follow_term_order_not_insertion_order(self, tmp_path):
        index = build_index([vec("a", {"z": 1, "a": 2}), vec("b", {"m": 1, "b": 1})])
        matrix = compute_matrix(index, "tfdf")
        path = export_matrix(matrix, tmp_path / "m.triplets", fmt="coordinate-triplet")
        assert [l.split(",")[:2] for l in path.read_text().splitlines()] == [
            ["a", "a"], ["a", "z"], ["b", "b"], ["b", "m"]]
        path = export_matrix(matrix, tmp_path / "m.csv", fmt="csv")
        assert path.read_text().splitlines() == [
            "doc_id,a,b,m,z", "a,1.333333333,0,0,0.6666666667", "b,0,1,1,0"]

    def test_empty_key_set(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfdf")
        kd = select_key_terms(matrix, 1e9)
        assert kd.terms == frozenset()
        path = export_matrix(matrix, tmp_path / "m.csv", fmt="csv", key_terms=kd)
        assert path.read_text() == "doc_id\na\nb\n"  # a header as wide as its rows
        path = export_matrix(matrix, tmp_path / "m.triplets", fmt="coordinate-triplet",
                             key_terms=kd)
        assert path.read_text() == ""  # no triplet, no line

    def test_key_term_restriction(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfdf")
        kd = select_key_terms(matrix, 0.0)
        restricted = type(kd)(kd.scheme, kd.threshold, kd.aggregation,
                              frozenset({"y"}), kd.vocabulary_size)
        path = export_matrix(matrix, tmp_path / "m.csv", fmt="csv", key_terms=restricted)
        assert path.read_text().splitlines()[0] == "doc_id,y"
        path = export_matrix(matrix, tmp_path / "m.triplets", fmt="coordinate-triplet",
                             key_terms=restricted)
        assert all(",y," in l for l in path.read_text().splitlines())

    def test_dense_row_of_a_document_with_no_kept_cell(self, tmp_path):
        index = build_index([vec("a", {"x": 2, "y": 1}), vec("b", {"y": 3}),
                             vec("c", {"z": 1}), vec("d", {})])
        matrix = compute_matrix(index, "tfdf")
        kd = select_key_terms(matrix, 0.0)
        restricted = type(kd)(kd.scheme, kd.threshold, kd.aggregation,
                              frozenset({"x", "z"}), kd.vocabulary_size)
        path = export_matrix(matrix, tmp_path / "m.csv", fmt="csv", key_terms=restricted)
        assert path.read_text().splitlines() == [
            "doc_id,x,z", "a,2.666666667,0", "b,0,0", "c,0,4", "d,0,0"]

    def test_unknown_format(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfdf")
        with pytest.raises(ValueError):
            export_matrix(matrix, tmp_path / "m.x", fmt="parquet")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_failed_export_leaves_the_previous_file(self, tmp_path, monkeypatch, fmt):
        matrix = compute_matrix(self.INDEX, "tfdf")
        path = tmp_path / "m.out"
        path.write_bytes(b"previous run\n")
        seen = []

        def failing_field(value):
            seen.append(value)
            if len(seen) == 2:
                raise OSError("disk full")
            return value

        monkeypatch.setattr(weighting, "csv_field", failing_field)
        with pytest.raises(OSError, match="disk full"):
            export_matrix(matrix, path, fmt=fmt)
        assert seen == ["a", "b"]  # it failed after the first document was written
        assert path.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.out"]

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_memory_does_not_follow_the_file_size(self, tmp_path, fmt):
        # 500 documents x 200 of 5,000 terms: about 100,000 cells, a 2-6 MB file
        rng = random.Random(7)
        terms = [f"t{k:04d}" for k in range(5000)]
        index = build_index([vec(f"d{i}", {t: rng.randint(1, 9) for t in rng.sample(terms, 200)})
                             for i in range(500)])
        matrix = compute_matrix(index, "tfidf")
        path = tmp_path / "m.out"
        tracemalloc.start()
        try:
            export_matrix(matrix, path, fmt=fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert peak < size / 2, f"traced peak {peak} bytes for a {size}-byte file"

    def test_ten_significant_digits(self, tmp_path):
        matrix = compute_matrix(self.INDEX, "tfidf")
        path = export_matrix(matrix, tmp_path / "m.triplets", fmt="coordinate-triplet")
        pos = {t: j for j, t in enumerate(self.INDEX.vocabulary)}
        docs = {d: i for i, d in enumerate(matrix.index.doc_ids)}
        for line in path.read_text().splitlines():
            doc_id, term, printed = line.split(",")
            exact = matrix.entries[(docs[doc_id], pos[term])]
            assert float(printed) == pytest.approx(exact, rel=1e-9, abs=1e-15)
