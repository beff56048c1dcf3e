import os

import pytest

from termsift import corpus as corpus_mod
from termsift.corpus import (
    DatasetStats,
    corpus_summary,
    default_stopwords,
    load_corpus,
    load_stopwords,
)
from termsift.errors import CorpusFormatError, EmptyCorpusError


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestLoadCorpus:
    def test_flat_single_file(self, tmp_path):
        write(tmp_path / "a.txt", "hello")
        corpus = load_corpus(tmp_path, "flat")
        assert len(corpus) == 1
        assert corpus.documents[0].doc_id == "a.txt"
        assert corpus.documents[0].text == "hello"
        assert corpus.documents[0].class_label is None

    def test_class_subdirectories(self, tmp_path):
        for cls in ("one", "two"):
            for i in range(10):
                write(tmp_path / cls / f"d{i}.txt", f"text {i}")
        corpus = load_corpus(tmp_path, "class-subdirectories")
        assert len(corpus) == 20
        assert corpus.class_labels == {"one", "two"}

    def test_manifest_layout(self, tmp_path):
        write(tmp_path / "docs" / "x.txt", "xx")
        write(tmp_path / "docs" / "y.txt", "yy")
        write(tmp_path / "manifest.tsv", "docB\tcls\tdocs/y.txt\ndocA\tcls\tdocs/x.txt\n")
        corpus = load_corpus(tmp_path, "manifest-file")
        assert [d.doc_id for d in corpus] == ["docA", "docB"]
        assert corpus.documents[0].text == "xx"

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path, "flat")

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope", "flat")

    def test_duplicate_doc_id_in_manifest(self, tmp_path):
        write(tmp_path / "x.txt", "xx")
        write(tmp_path / "manifest.tsv", "d\tc\tx.txt\nd\tc\tx.txt\n")
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path, "manifest-file")

    def test_malformed_manifest_line(self, tmp_path):
        write(tmp_path / "manifest.tsv", "only-one-field\n")
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path, "manifest-file")

    @pytest.mark.parametrize("case", ["relative", "absolute", "symlink", "fifo"])
    def test_manifest_path_must_be_a_regular_file_inside_root(self, tmp_path, monkeypatch, case):
        root = tmp_path / "corpus"
        write(root / "ok.txt", "fine")
        write(tmp_path / "outside.txt", "secret")
        if case == "relative":
            target = "../outside.txt"
        elif case == "absolute":
            target = str(tmp_path / "outside.txt")
        elif case == "symlink":
            os.symlink(tmp_path / "outside.txt", root / "link.txt")
            target = "link.txt"
        else:
            os.mkfifo(root / "pipe")  # opening it would block with no writer
            target = "pipe"
        manifest = root / "manifest.tsv"
        write(manifest, f"a\tc\tok.txt\nb\tc\t{target}\n")
        read = corpus_mod._read_text
        monkeypatch.setattr(corpus_mod, "_read_text",
                            lambda p: read(p) if p.name == "ok.txt" else pytest.fail(f"opened {p}"))
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(root, "manifest-file")
        assert str(exc.value).startswith(f"{manifest}:2: ")

    def test_manifest_missing_document_names_manifest_line(self, tmp_path):
        write(tmp_path / "x.txt", "xx")
        manifest = tmp_path / "manifest.tsv"
        write(manifest, "a\tc\tx.txt\nb\tc\tmissing.txt\n")
        with pytest.raises(OSError) as exc:
            load_corpus(tmp_path, "manifest-file")
        assert str(exc.value).startswith(
            f"{manifest}:2: cannot read document file {tmp_path / 'missing.txt'}: ")
        assert isinstance(exc.value.__cause__, FileNotFoundError)

    def test_manifest_symlink_inside_root_is_read(self, tmp_path):
        write(tmp_path / "docs" / "x.txt", "xx")
        os.symlink(tmp_path / "docs" / "x.txt", tmp_path / "link.txt")
        write(tmp_path / "manifest.tsv", "a\tc\tlink.txt\n")
        assert load_corpus(tmp_path, "manifest-file").documents[0].text == "xx"

    def test_permissive_decoding(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"caf\xe9 latte \xff\xfe")
        corpus = load_corpus(tmp_path, "flat")
        assert "latte" in corpus.documents[0].text

    def test_deterministic_reload(self, tmp_path):
        for name in ("b.txt", "a.txt", "c.txt"):
            write(tmp_path / name, name)
        first = load_corpus(tmp_path, "flat")
        second = load_corpus(tmp_path, "flat")
        assert first == second
        assert [d.doc_id for d in first] == ["a.txt", "b.txt", "c.txt"]

    def test_unknown_layout(self, tmp_path):
        write(tmp_path / "a.txt", "x")
        with pytest.raises(ValueError):
            load_corpus(tmp_path, "zip")


class TestStopwords:
    def test_basic(self, tmp_path):
        write(tmp_path / "sw.txt", "the\nof\nand\n")
        sw = load_stopwords(tmp_path / "sw.txt")
        assert sw.words == {"the", "of", "and"}
        assert len(sw) == 3

    def test_comments_blanks_case(self, tmp_path):
        write(tmp_path / "sw.txt", "The\n# comment\n\nof\n")
        sw = load_stopwords(tmp_path / "sw.txt")
        assert sw.words == {"the", "of"}

    def test_duplicates_collapse(self, tmp_path):
        write(tmp_path / "sw.txt", "a\nb\na\n")
        assert len(load_stopwords(tmp_path / "sw.txt")) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stopwords(tmp_path / "nope.txt")

    def test_default_list(self):
        sw = default_stopwords()
        # shipped list is deduplicated, lowercase, whitespace-free
        assert 400 <= len(sw) <= 700
        assert all(w == w.lower() and " " not in w for w in sw.words)
        assert "the" in sw
        assert len(sw.sha256) == 64


class TestSummary:
    def test_counts(self, tmp_path):
        for cls, sizes in (("one", 12), ("two", 8)):
            for i in range(sizes):
                write(tmp_path / cls / f"d{i}.txt", "alpha beta gamma")
        stats = corpus_summary(load_corpus(tmp_path, "class-subdirectories"), [3] * 20)
        assert stats.documents == 20
        assert stats.classes == 2
        assert stats.largest_class == 12
        assert stats.avg_doc_length == 3

    def test_average_is_mean_rounded_half_up(self, tmp_path):
        for name in ("a.txt", "b.txt", "c.txt"):
            write(tmp_path / name, "tok")
        assert corpus_summary(load_corpus(tmp_path), [10, 20, 30]).avg_doc_length == 20
        write(tmp_path / "d.txt", "tok")
        # mean 63/4 = 15.75 -> 16
        assert corpus_summary(load_corpus(tmp_path), [10, 20, 30, 3]).avg_doc_length == 16
        # mean 2.5 rounds up to 3
        assert corpus_summary(load_corpus(tmp_path), [1, 2, 3, 4]).avg_doc_length == 3

    def test_empty_corpus_stats(self):
        from termsift.corpus import DocumentSet

        stats = corpus_summary(DocumentSet(name="x", documents=()), [])
        assert stats == DatasetStats("x", 0, 0, 0, 0)

    def test_document_count_matches_exactly(self, minicorpus_dir):
        corpus = load_corpus(minicorpus_dir, "class-subdirectories")
        assert corpus_summary(corpus, [0] * len(corpus)).documents == len(corpus)
