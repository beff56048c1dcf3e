import csv
import io
import json

import pytest

from termsift.corpus import DatasetStats
from termsift.report import ReductionRow, RunMetadata, emit_metadata, render_tables

STATS = [DatasetStats("demo", 20, 2, 12, 104)]
ROWS = [
    ReductionRow("demo", "tfidf", 0.028, 462, 447, "3.24"),
    ReductionRow("demo", "tfdf", 0.01, 462, 70, "84.84"),
    ReductionRow("demo", "joint", None, 462, 58, "87.44"),
]


class TestPlainText:
    def test_contains_all_fields(self):
        text = render_tables(ROWS, STATS, "plain-text")
        for token in ("demo", "tfidf", "0.028", "462", "447", "3.24", "84.84",
                      "Documents", "Key terms"):
            assert token in text

    def test_joint_threshold_dash(self):
        text = render_tables(ROWS, STATS, "plain-text")
        joint_line = next(l for l in text.splitlines() if " joint " in f" {l} ")
        assert " - " in joint_line

    def test_stats_only(self):
        text = render_tables([], STATS, "plain-text")
        assert "Documents" in text and "Scheme" not in text


class TestRoundTrip:
    def test_json(self):
        doc = json.loads(render_tables(ROWS, STATS, "json"))
        assert doc == {"stats": [s._asdict() for s in STATS], "rows": [r._asdict() for r in ROWS]}

    def test_csv(self):
        assert render_tables(ROWS, STATS, "csv") == (
            "kind,name,documents,classes,largest_class,avg_doc_length,"
            "scheme,threshold,term_count,key_term_count,removed_pct\n"
            "stats,demo,20,2,12,104,,,,,\n"
            "reduction,demo,,,,,tfidf,0.028,462,447,3.24\n"
            "reduction,demo,,,,,tfdf,0.01,462,70,84.84\n"
            "reduction,demo,,,,,joint,,462,58,87.44\n"
        )

    def test_csv_threshold_is_lossless(self):
        awkward = [ReductionRow("d", "tfidf", 0.1 + 0.2, 10, 5, "50.00")]
        record = render_tables(awkward, [], "csv").splitlines()[1].split(",")
        assert float(record[7]) == 0.1 + 0.2  # bit-exact, not 0.3

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines", 'all,"\n" of, them'])
    def test_csv_quotes_a_dataset_name_as_the_csv_module_does(self, name):
        stats = [STATS[0]._replace(name=name)]
        rows = [r._replace(dataset=name) for r in ROWS]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(render_tables([], [], "csv").rstrip("\n").split(","))
        writer.writerows(
            [["stats", s.name, s.documents, s.classes, s.largest_class, s.avg_doc_length,
              "", "", "", "", ""] for s in stats]
            + [["reduction", r.dataset, "", "", "", "", r.scheme,
                "" if r.threshold is None else repr(r.threshold),
                r.term_count, r.key_term_count, r.removed_pct] for r in rows])
        assert render_tables(rows, stats, "csv") == buf.getvalue()

    def test_csv_quotes_a_carriage_return(self):
        # csv.writer with lineterminator="\n" leaves a lone CR bare, and its own
        # reader then splits the record there; the report quotes it (RFC 4180)
        text = render_tables([], [STATS[0]._replace(name="a\rb")], "csv")
        assert text.endswith('\nstats,"a\rb",20,2,12,104,,,,,\n')
        assert list(csv.reader(io.StringIO(text, newline="")))[1][:2] == ["stats", "a\rb"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_tables(ROWS, STATS, "xml")


class TestMetadata:
    def test_emit_is_json_with_all_fields(self):
        meta = RunMetadata(
            stopword_count=574, stopword_sha256="ab" * 32, wordnet_version="2.1",
            wordnet_policy="annotate-only", log_base="e", aggregation="max",
            alpha=0.028, beta=0.01, gamma=0.005, min_count=1,
            tool_version="0.1.0", timestamp="2026-08-24T00:00:00+0000",
        )
        doc = json.loads(emit_metadata(meta))
        assert doc["stopword_count"] == 574
        assert doc["wordnet_version"] == "2.1"
        assert doc["alpha"] == 0.028
        assert set(doc) == set(meta._fields)
