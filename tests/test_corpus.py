import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from termsift import corpus as corpus_mod
from termsift.corpus import (
    LAYOUTS,
    DatasetStats,
    corpus_summary,
    default_stopwords,
    load_corpus,
    load_stopwords,
)
from termsift.errors import CorpusFormatError, EmptyCorpusError, TermsiftError


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def guard_open(monkeypatch):
    """Make the corpus module's ``open`` fail the test for any file but
    ``ok.txt``; returns the list of base names it is asked to open."""
    opened = []

    def guarded_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        if opened[-1] != "ok.txt":
            pytest.fail(f"opened {path}")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(corpus_mod, "open", guarded_open, raising=False)
    return opened


DIRECTORY_LAYOUTS = {"flat": "", "class-subdirectories": "cls/"}


class TestLoadCorpus:
    def test_flat_single_file(self, tmp_path):
        write(tmp_path / "a.txt", "hello")
        corpus = load_corpus(tmp_path, "flat")
        assert len(corpus) == 1
        assert corpus[0].doc_id == "a.txt"
        assert corpus[0].read() == "hello"
        assert corpus[0].class_label is None

    def test_class_subdirectories(self, tmp_path):
        for cls in ("one", "two"):
            for i in range(10):
                write(tmp_path / cls / f"d{i}.txt", f"text {i}")
        corpus = load_corpus(tmp_path, "class-subdirectories")
        assert len(corpus) == 20
        assert {d.class_label for d in corpus} == {"one", "two"}

    def test_manifest_layout(self, tmp_path):
        write(tmp_path / "docs" / "x.txt", "xx")
        write(tmp_path / "docs" / "y.txt", "yy")
        write(tmp_path / "manifest.tsv", "docB\tcls\tdocs/y.txt\ndocA\tcls\tdocs/x.txt\n")
        corpus = load_corpus(tmp_path, "manifest-file")
        assert [d.doc_id for d in corpus] == ["docA", "docB"]
        assert corpus[0].read() == "xx"

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

    @pytest.mark.parametrize("doc_id", ["", "  "], ids=["empty", "spaces"])
    def test_manifest_empty_doc_id(self, tmp_path, doc_id):
        write(tmp_path / "a.txt", "wheat")
        manifest = tmp_path / "manifest.tsv"
        write(manifest, f"d\tc\ta.txt\n{doc_id}\tc1\ta.txt\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(tmp_path, "manifest-file")
        assert str(exc.value) == f"{manifest}:2: empty doc_id"

    def test_manifest_layout_needs_a_manifest(self, tmp_path):
        write(tmp_path / "a.txt", "wheat")
        with pytest.raises(FileNotFoundError) as exc:
            load_corpus(tmp_path, "manifest-file")
        assert str(exc.value) == f"manifest file not found: {tmp_path / 'manifest.tsv'}"

    def test_manifest_blank_and_comment_lines_are_skipped(self, tmp_path):
        write(tmp_path / "a.txt", "wheat")
        write(tmp_path / "manifest.tsv", "# doc_id\tclass\tpath\n\n  \nd\tc\ta.txt\n\n")
        assert [d.doc_id for d in load_corpus(tmp_path, "manifest-file")] == ["d"]

    @pytest.mark.parametrize("relpath, error, problem", [
        (".", CorpusFormatError, "{root}/. is not a regular file"),
        ("..", CorpusFormatError, "{root}/.. is not a regular file"),
        ("sub/", CorpusFormatError, "{root}/sub/ is not a regular file"),
        ("a.txt/", OSError, "cannot read document file {root}/a.txt/: "
                            "[Errno 20] Not a directory: '{root}/a.txt/'"),
        ("a.txt/.", OSError, "cannot read document file {root}/a.txt/.: "
                             "[Errno 20] Not a directory: '{root}/a.txt/.'"),
        ("a.txt//", OSError, "cannot read document file {root}/a.txt//: "
                             "[Errno 20] Not a directory: '{root}/a.txt//'"),
        ("a.txt/../a.txt", OSError, "cannot read document file {root}/a.txt/../a.txt: "
                                    "[Errno 20] Not a directory: '{root}/a.txt/../a.txt'"),
        ("missing/../a.txt", OSError,
         "cannot read document file {root}/missing/../a.txt: "
         "[Errno 2] No such file or directory: '{root}/missing/../a.txt'"),
    ], ids=["dot", "dot-dot", "slash", "file-slash", "file-slash-dot", "file-double-slash",
            "through-a-file", "through-a-missing-directory"])
    def test_manifest_path_naming_a_directory(self, tmp_path, relpath, error, problem):
        root = tmp_path / "corpus"
        write(root / "a.txt", "wheat")
        (root / "sub").mkdir()
        manifest = root / "manifest.tsv"
        write(manifest, f"a\tc\ta.txt\nb\tc\t{relpath}\n")
        with pytest.raises(error) as exc:
            load_corpus(root, "manifest-file")
        assert str(exc.value) == f"{manifest}:2: " + problem.format(root=root)

    def test_manifest_path_resolves_a_symlinked_directory_before_dot_dot(self, tmp_path):
        write(tmp_path / "a.txt", "wheat")
        write(tmp_path / "sub" / "a.txt", "barley")
        (tmp_path / "sub" / "inner").mkdir()
        os.symlink("sub/inner", tmp_path / "link")
        write(tmp_path / "manifest.tsv", "d\tc\tlink/../a.txt\n")
        [doc] = load_corpus(tmp_path, "manifest-file")
        # as the kernel (and cat) does; a lexical normpath would name ./a.txt
        assert doc.path == os.path.realpath(tmp_path / "sub" / "a.txt")
        assert doc.read() == "barley"

    def test_manifest_symlink_to_a_missing_file_names_manifest_line(self, tmp_path):
        write(tmp_path / "x.txt", "xx")
        os.symlink(tmp_path / "gone.txt", tmp_path / "link.txt")
        manifest = tmp_path / "manifest.tsv"
        write(manifest, "a\tc\tx.txt\nb\tc\tlink.txt\n")
        with pytest.raises(OSError) as exc:
            load_corpus(tmp_path, "manifest-file")
        assert str(exc.value).startswith(
            f"{manifest}:2: cannot read document file {tmp_path / 'link.txt'}: ")
        assert isinstance(exc.value.__cause__, FileNotFoundError)

    def test_manifest_empty_class_is_no_class(self, tmp_path):
        write(tmp_path / "a.txt", "wheat")
        write(tmp_path / "manifest.tsv", "d\t\ta.txt\n")
        assert load_corpus(tmp_path, "manifest-file")[0].class_label is None

    @pytest.mark.parametrize("case", ["relative", "absolute", "symlink", "fifo", "directory"])
    def test_manifest_document_is_checked_before_it_is_opened(self, tmp_path, monkeypatch,
                                                              case):
        root = tmp_path / "corpus"
        write(root / "ok.txt", "fine")
        write(tmp_path / "outside.txt", "secret")
        target = {"relative": "../outside.txt", "absolute": str(tmp_path / "outside.txt"),
                  "symlink": "link.txt", "fifo": "pipe", "directory": "sub"}[case]
        os.symlink(tmp_path / "outside.txt", root / "link.txt")
        os.mkfifo(root / "pipe")
        (root / "sub").mkdir()
        manifest = root / "manifest.tsv"
        write(manifest, f"a\tc\tok.txt\nb\tc\t{target}\n")
        opened = guard_open(monkeypatch)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(root, "manifest-file")
        assert str(exc.value).startswith(f"{manifest}:2: ")
        assert opened == []

    def test_manifest_path_with_a_nul_names_manifest_line(self, tmp_path):
        write(tmp_path / "x.txt", "xx")
        manifest = tmp_path / "manifest.tsv"
        write(manifest, "a\tc\tx.txt\nb\tc\tx\0.txt\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(tmp_path, "manifest-file")
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
        assert load_corpus(tmp_path, "manifest-file")[0].read() == "xx"

    @pytest.mark.parametrize("layout", DIRECTORY_LAYOUTS)
    def test_directory_symlink_out_of_root_is_rejected_unopened(self, tmp_path, monkeypatch,
                                                               layout):
        root = tmp_path / "corpus"
        prefix = DIRECTORY_LAYOUTS[layout]
        write(root / prefix / "ok.txt", "fine")
        write(tmp_path / "outside.txt", "secret")
        os.symlink(tmp_path / "outside.txt", root / prefix / "link.txt")
        opened = guard_open(monkeypatch)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(root, layout)
        assert str(exc.value).startswith(
            f"{root / (prefix + 'link.txt')} is outside the corpus root ")
        assert set(opened) <= {"ok.txt"}

    @pytest.mark.parametrize("layout", DIRECTORY_LAYOUTS)
    def test_directory_symlink_inside_root_is_read(self, tmp_path, layout):
        prefix = DIRECTORY_LAYOUTS[layout]
        write(tmp_path / prefix / "x.txt", "xx")
        os.symlink("x.txt", tmp_path / prefix / "link.txt")
        corpus = load_corpus(tmp_path, layout)
        assert [(d.doc_id, d.read()) for d in corpus] == [(prefix + "link.txt", "xx"),
                                                          (prefix + "x.txt", "xx")]

    @pytest.mark.parametrize("layout", DIRECTORY_LAYOUTS)
    def test_directory_entries_that_are_not_files_are_skipped(self, tmp_path, monkeypatch,
                                                              layout):
        docs = tmp_path / DIRECTORY_LAYOUTS[layout]
        write(docs / "ok.txt", "fine")
        write(docs / "sub" / "inner.txt", "nested")
        os.mkfifo(docs / "pipe")  # opening it would block with no writer
        os.symlink("missing.txt", docs / "dangling")
        opened = guard_open(monkeypatch)
        corpus = load_corpus(tmp_path, layout)
        assert [d.doc_id for d in corpus] == [DIRECTORY_LAYOUTS[layout] + "ok.txt"]
        assert opened == []
        assert corpus[0].read() == "fine"
        assert opened == ["ok.txt"]

    def test_permissive_decoding(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"caf\xe9 latte \xff\xfe")
        corpus = load_corpus(tmp_path, "flat")
        assert "latte" in corpus[0].read()

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


# Paths a manifest line may name: files the example writes, escapes from the
# root, an absolute path in and out of it, special files and odd spellings.
# "{root}" and "{outside}" are replaced by the example's real directories.
_NAMED_PATHS = st.sampled_from([
    "a.txt", "sub/b.txt", "sub/", "sub", ".", "..", "", "../outside.txt", "{outside}",
    "{root}/a.txt", "{root}", "link", "loop", "pipe", "missing.txt", "sub/../a.txt",
    "./a.txt", "a.txt/", "a.txt/../a.txt", "missing/../a.txt", "nul\0.txt", "x" * 300,
])
_FIELDS = st.tuples(st.text(max_size=6), st.text(max_size=4),
                    st.one_of(_NAMED_PATHS, _NAMED_PATHS, st.text(max_size=12)))
# mostly three tab-separated fields, so lines get past the field count
_MANIFEST_LINES = st.one_of(_FIELDS.map("\t".join), _FIELDS.map("\t".join),
                            st.text(max_size=20))


class TestLoadCorpusFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layout=st.sampled_from(LAYOUTS),
           files=st.dictionaries(st.sampled_from(["a.txt", "sub/b.txt", "sub/c", "d/e.txt",
                                                  "manifest.tsv", "f"]),
                                 st.binary(max_size=40), max_size=5),
           manifest=st.one_of(st.lists(_MANIFEST_LINES, max_size=5).map(
               lambda lines: "\n".join(lines).encode()), st.binary(max_size=60)),
           special=st.booleans())
    def test_only_a_checked_listing_or_a_documented_error(self, layout, files, manifest,
                                                          special):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "corpus"
            root.mkdir()
            (Path(tmp) / "outside.txt").write_bytes(b"outside text")
            for name, data in files.items():
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_bytes(data)
            if special:
                os.symlink(Path(tmp) / "outside.txt", root / "link")
                os.symlink("loop", root / "loop")
                os.mkfifo(root / "pipe")
            if "manifest.tsv" not in files:
                (root / "manifest.tsv").write_bytes(
                    manifest.replace(b"{root}", os.fsencode(root))
                    .replace(b"{outside}", os.fsencode(Path(tmp) / "outside.txt")))
            try:
                result = load_corpus(root, layout)
            except (TermsiftError, OSError):
                return
            assert len(result) > 0
            real_root = os.path.join(os.path.realpath(root), "")
            for d in result:
                assert d.doc_id
                # checked before any read: a FIFO would block the read below
                assert d.path.startswith(real_root) and os.path.isfile(d.path)
                assert os.path.samefile(os.path.join(d.root, d.relpath), d.path)
                assert d.read() != "outside text"


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
        assert "the" in sw.words
        assert len(sw.sha256) == 64

    def test_default_list_is_pinned(self):
        # what every run's metadata.json records of the bundled list
        sw = default_stopwords()
        assert len(sw) == 574
        assert sw.sha256 == "a3515563fb6a3e59f344dbb9ad57a109b025d232793cf881ac1d3ba1229a004d"

    @pytest.mark.parametrize("data, line", [
        (b"\xff\xfeand\n", 1),
        (b"the\nof\n\xff\xfeand\n", 3),
        (b"the\r\nof\r\n\xff\xfeand", 3),
        (b"# comment\n\nthe and\xe9\n", 3),
        (b"the\rof\r\xff", 3),
    ], ids=["first-line", "third-line", "crlf-last-line", "mid-line", "cr-endings"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "sw.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            load_stopwords(path)
        assert str(exc.value) == f"{path}:{line}: not valid UTF-8"


class TestSummary:
    def test_counts(self, tmp_path):
        for cls, sizes in (("one", 12), ("two", 8)):
            for i in range(sizes):
                write(tmp_path / cls / f"d{i}.txt", "alpha beta gamma")
        stats = corpus_summary("c", load_corpus(tmp_path, "class-subdirectories"), [3] * 20)
        assert stats.documents == 20
        assert stats.classes == 2
        assert stats.largest_class == 12
        assert stats.avg_doc_length == 3

    def test_average_is_mean_rounded_half_up(self, tmp_path):
        for name in ("a.txt", "b.txt", "c.txt"):
            write(tmp_path / name, "tok")
        assert corpus_summary("c", load_corpus(tmp_path), [10, 20, 30]).avg_doc_length == 20
        write(tmp_path / "d.txt", "tok")
        # mean 63/4 = 15.75 -> 16
        assert corpus_summary("c", load_corpus(tmp_path), [10, 20, 30, 3]).avg_doc_length == 16
        # mean 2.5 rounds up to 3
        assert corpus_summary("c", load_corpus(tmp_path), [1, 2, 3, 4]).avg_doc_length == 3

    def test_empty_corpus_stats(self):
        stats = corpus_summary("x", (), [])
        assert stats == DatasetStats("x", 0, 0, 0, 0)

    def test_document_count_matches_exactly(self, minicorpus_dir):
        corpus = load_corpus(minicorpus_dir, "class-subdirectories")
        assert corpus_summary("c", corpus, [0] * len(corpus)).documents == len(corpus)
