import csv
import itertools
import json
import os
import shutil
import string
import subprocess
import sys
from pathlib import Path

import pytest

import termsift
from termsift.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main


@pytest.fixture()
def corpus(tmp_path):
    root = tmp_path / "corpus"
    for cls in ("alpha", "beta"):
        d = root / cls
        d.mkdir(parents=True)
        for i in range(3):
            (d / f"doc{i}.txt").write_text(
                f"The wheat harvest and the shipping market report number {'word ' * (i + 3)}.\n"
            )
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys, )
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_corpus(self, capsys):
        code, _, err = run(capsys, "stats")
        assert code == EXIT_USAGE
        assert "corpus" in err

    def test_corpus_given_twice(self, capsys, corpus):
        code, _, err = run(capsys, "stats", str(corpus), "--corpus", str(corpus),
                           "--layout", "class-subdirectories")
        assert code == EXIT_USAGE
        assert "--corpus" in err

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "stats", "x", "--layout", "bogus")[0] == EXIT_USAGE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestStats:
    def test_output(self, capsys, corpus):
        code, out, _ = run(capsys, "stats", str(corpus), "--layout", "class-subdirectories")
        assert code == EXIT_OK
        fields = dict(line.split("\t") for line in out.splitlines())
        assert fields["documents"] == "6"
        assert fields["classes"] == "2"
        assert fields["largest_class"] == "3"
        # step-1 tokens per document: 9 words plus 3, 4 or 5 repeats of "word"
        assert fields["avg_doc_length"] == "13"

    def test_nonexistent_corpus(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", str(tmp_path / "missing"))
        assert code == EXIT_DATA
        assert "error" in err

    def test_empty_corpus(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(capsys, "stats", str(empty))[0] == EXIT_DATA


class TestPreprocess:
    def test_triplets(self, capsys, corpus):
        code, out, _ = run(capsys, "preprocess", str(corpus), "--layout",
                           "class-subdirectories")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines
        for line in lines:
            doc_id, term, count = line.split(",")
            assert int(count) >= 1
            assert doc_id.count("/") == 1

    def test_stopwords_flag(self, capsys, corpus, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_text("wheat\n")
        _, out_default, _ = run(capsys, "preprocess", str(corpus), "--layout",
                                "class-subdirectories")
        _, out_custom, _ = run(capsys, "preprocess", str(corpus), "--layout",
                               "class-subdirectories", "--stopwords", str(sw))
        assert any(",wheat," in l for l in out_default.splitlines())
        assert not any(",wheat," in l for l in out_custom.splitlines())
        # with the one-word custom list, "the"/"and" survive
        assert any(",the," in l for l in out_custom.splitlines())

    def test_invalid_utf8_stopword_file_names_file_line_and_stage(self, capsys, corpus,
                                                                  tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_bytes(b"the\n\xff\xfeand\n")
        code, out, err = run(capsys, "preprocess", str(corpus), "--layout",
                             "class-subdirectories", "--stopwords", str(sw))
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"termsift: error: stage load_stopwords: {sw}:2: not valid UTF-8\n"

    def test_document_ids_are_quoted(self, capsys, tmp_path):
        root = tmp_path / "flat"
        root.mkdir()
        (root / "a,b.txt").write_text("wheat corn wheat\n")
        (root / 'say "hi".txt').write_text("barley\n")
        (root / "d.txt").write_text("barley wheat\n")
        code, out, _ = run(capsys, "preprocess", str(root))
        assert code == EXIT_OK
        rows = list(csv.reader(out.splitlines()))
        assert rows == [["a,b.txt", "corn", "1"], ["a,b.txt", "wheat", "2"],
                        ["d.txt", "barlei", "1"], ["d.txt", "wheat", "1"],
                        ['say "hi".txt', "barlei", "1"]]


PIPELINE_COMMANDS = ("stats", "preprocess", "weigh", "select")


class TestValidation:
    @pytest.mark.parametrize("command", PIPELINE_COMMANDS)
    @pytest.mark.parametrize("bad", (["--alpha", "-1"], ["--min-count", "0"]))
    def test_every_pipeline_command_validates(self, capsys, corpus, tmp_path, command, bad):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, command, str(corpus), "--layout", "class-subdirectories",
                           "--out", str(out_dir), *bad)
        assert code == EXIT_DATA
        assert "error" in err
        assert not out_dir.exists()

    def test_config_file_format_is_validated_before_any_output(self, capsys, corpus,
                                                                tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = bogus\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                           "--config", str(cfg), "--out", str(out_dir))
        assert code == EXIT_DATA
        assert "bogus" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line, message", [
        ("aggregation = median", "unknown aggregation 'median'"),
        ("log_base = 3", "log base must be one of ['10', '2', 'e']"),
    ], ids=["aggregation", "log-base"])
    def test_config_file_aggregation_and_log_base_are_validated(self, capsys, corpus,
                                                                tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                           "--config", str(cfg), "--out", str(out_dir))
        assert (code, err) == (EXIT_DATA, f"termsift: error: {message}\n")
        assert not out_dir.exists()

    def test_invalid_utf8_manifest_names_file_line_and_stage(self, capsys, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.txt").write_text("wheat")
        (root / "manifest.tsv").write_bytes(b"a\tc\ta.txt\nb\tc\xff\ta.txt\n")
        for command in ("stats", "select"):
            code, _, err = run(capsys, command, str(root), "--layout", "manifest-file",
                               "--out", str(tmp_path / "out"))
            assert code == EXIT_DATA
            assert f"stage load_corpus: {root / 'manifest.tsv'}:2: not valid UTF-8" in err

    def test_manifest_path_outside_root_names_file_line_and_stage(self, capsys, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.txt").write_text("wheat")
        (tmp_path / "outside.txt").write_text("barley")
        (root / "manifest.tsv").write_text("a\tc\ta.txt\nb\tc\t../outside.txt\n")
        code, out, err = run(capsys, "preprocess", str(root), "--layout", "manifest-file")
        assert code == EXIT_DATA
        assert out == ""
        assert f"stage load_corpus: {root / 'manifest.tsv'}:2: " in err
        assert "outside the corpus root" in err

    def test_manifest_missing_document_names_file_line_and_stage(self, capsys, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.txt").write_text("wheat")
        (root / "manifest.tsv").write_text("a\tc\ta.txt\nb\tc\tmissing.txt\n")
        code, out, err = run(capsys, "preprocess", str(root), "--layout", "manifest-file")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"termsift: error: stage load_corpus: {root / 'manifest.tsv'}:2: "
                              f"cannot read document file {root / 'missing.txt'}: ")

    @staticmethod
    def unreadable_manifest_corpus(tmp_path, monkeypatch):
        """A manifest corpus whose second document passes the checks but cannot be
        opened. The corpus module's ``open`` is made to fail, since a mode bit
        does not stop a read by root."""
        from termsift import corpus as corpus_mod

        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.txt").write_text("wheat")
        (root / "b.txt").write_text("barley")
        (root / "manifest.tsv").write_text("a\tc\ta.txt\nb\tc\tb.txt\n")

        def failing_open(path, *args, **kwargs):
            if os.path.basename(path) == "b.txt":
                raise PermissionError(13, "Permission denied", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(corpus_mod, "open", failing_open, raising=False)
        return root

    @pytest.mark.parametrize("command", ["stats", "preprocess", "select"])
    def test_unreadable_document_names_file_line_and_stage(self, capsys, tmp_path,
                                                           monkeypatch, command):
        root = self.unreadable_manifest_corpus(tmp_path, monkeypatch)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, command, str(root), "--layout", "manifest-file",
                             "--out", str(out_dir))
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"termsift: error: stage load_corpus: {root / 'manifest.tsv'}:2: "
                              f"cannot read document file {root / 'b.txt'}: "
                              "[Errno 13] Permission denied: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["preprocess", "select"])
    def test_unreadable_document_fails_alike_with_a_warm_cache(self, capsys, tmp_path,
                                                               monkeypatch, command):
        # the cache key reads every document, so a run that could read the
        # corpus's cache entry still fails on the document it cannot read
        from termsift import corpus as corpus_mod

        root = self.unreadable_manifest_corpus(tmp_path, monkeypatch)
        failing_open = corpus_mod.open
        monkeypatch.setattr(corpus_mod, "open", open, raising=False)
        assert run(capsys, "preprocess", str(root), "--layout", "manifest-file")[0] == EXIT_OK
        monkeypatch.setattr(corpus_mod, "open", failing_open, raising=False)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, command, str(root), "--layout", "manifest-file",
                             "--out", str(out_dir))
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"termsift: error: stage load_corpus: {root / 'manifest.tsv'}:2: "
                              f"cannot read document file {root / 'b.txt'}: "
                              "[Errno 13] Permission denied: ")
        assert not out_dir.exists()

    def test_bad_stopword_file_wins_over_an_unreadable_document(self, capsys, tmp_path,
                                                               monkeypatch):
        # documents are read in steps 1-3, after the stop words are loaded
        root = self.unreadable_manifest_corpus(tmp_path, monkeypatch)
        code, _, err = run(capsys, "preprocess", str(root), "--layout", "manifest-file",
                           "--stopwords", str(tmp_path / "missing.txt"))
        assert code == EXIT_DATA
        assert err == ("termsift: error: stage load_stopwords: stopword file not found: "
                       f"{tmp_path / 'missing.txt'}\n")

    def test_unexpected_exception_exits_internal(self, capsys, corpus, monkeypatch):
        from termsift import corpus as corpus_mod

        def broken(*_):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(corpus_mod, "load_corpus", broken)
        code, _, err = run(capsys, "stats", str(corpus))
        assert code == EXIT_INTERNAL
        assert err == "termsift: internal error: stage load_corpus: invariant broken\n"

    def test_errno_oserror_keeps_stage_prefix(self, capsys, corpus, monkeypatch):
        from termsift import corpus as corpus_mod

        def missing(*_):
            raise FileNotFoundError(2, "No such file or directory", "x")

        monkeypatch.setattr(corpus_mod, "load_corpus", missing)
        code, _, err = run(capsys, "stats", str(corpus))
        assert code == EXIT_DATA
        assert err == "termsift: error: stage load_corpus: [Errno 2] No such file or directory: 'x'\n"

    def test_invalid_utf8_wordnet_file_names_file_line_and_stage(self, capsys, corpus,
                                                                 tmp_path, wordnet_dir):
        wn = tmp_path / "wn"
        shutil.copytree(wordnet_dir, wn)
        index = wn / "index.noun"
        lines = index.read_bytes().count(b"\n")
        with index.open("ab") as f:
            f.write(b"\xff")
        code, _, err = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                           "--wordnet-dir", str(wn), "--out", str(tmp_path / "out"))
        assert code == EXIT_DATA
        assert f"stage load_wordnet: {index}:{lines + 1}: " in err

    def test_invalid_utf8_config_file_names_file_and_line(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"layout = class-subdirectories\n\xffmin_count = 2\n")
        code, _, err = run(capsys, "stats", str(corpus), "--config", str(cfg))
        assert code == EXIT_DATA
        assert f"{cfg}:2: not valid UTF-8" in err


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["preprocess", "stem"])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, command):
        """``termsift ... | head -1``: the reader closes the pipe after one line,
        while the command still has far more to write than a pipe holds. The
        exit code is the shell's for ``cat`` there, 128 + SIGPIPE."""
        words = ["".join(w) for w in itertools.islice(
            itertools.product(string.ascii_lowercase, repeat=6), 20_000)]
        if command == "stem":
            argv = ["stem", *words]
        else:
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            for i in range(40):
                (corpus / f"doc{i:02d}.txt").write_text(" ".join(words[i * 500:][:500]))
            argv = ["preprocess", str(corpus)]
        src = Path(termsift.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from termsift.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(tmp_path / "xdg")})
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestStemAndLex:
    def test_stem(self, capsys):
        code, out, _ = run(capsys, "stem", "running", "Ponies", "sky")
        assert code == EXIT_OK
        assert out.splitlines() == ["run", "poni", "sky"]

    def test_stem_rejects_nonwords(self, capsys):
        assert run(capsys, "stem", "abc123")[0] == EXIT_USAGE

    def test_lex(self, capsys, wordnet_dir):
        code, out, _ = run(capsys, "lex", "dog", "zzyzx", "--wordnet-dir", str(wordnet_dir))
        assert code == EXIT_OK
        lines = dict(l.split("\t") for l in out.splitlines())
        assert lines["dog"] == "noun.animal"
        assert lines["zzyzx"] == "-"

    def test_lex_env_fallback(self, capsys, wordnet_dir, monkeypatch):
        monkeypatch.setenv("WNSEARCHDIR", str(wordnet_dir))
        code, out, _ = run(capsys, "lex", "washington")
        assert code == EXIT_OK
        assert out.strip().split("\t")[1] == "noun.group,noun.location,noun.person"

    def test_lex_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        assert run(capsys, "lex", "dog")[0] == EXIT_USAGE

    def test_lex_empty_values_count_as_unset(self, capsys, wordnet_dir, monkeypatch):
        monkeypatch.setenv("WNSEARCHDIR", "")
        code, _, err = run(capsys, "lex", "dog", "--wordnet-dir", "")
        assert code == EXIT_USAGE
        assert "required" in err
        monkeypatch.setenv("WNSEARCHDIR", str(wordnet_dir))
        code, out, _ = run(capsys, "lex", "dog", "--wordnet-dir", "")
        assert (code, out) == (EXIT_OK, "dog\tnoun.animal\n")


class TestWeigh:
    def test_export(self, capsys, corpus, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "weigh", str(corpus), "--layout", "class-subdirectories",
                           "--scheme", "tfdf", "--out", str(out_dir))
        assert code == EXIT_OK
        path = out_dir / "matrix_tfdf.triplets"
        assert path.exists()
        assert str(path) in out
        assert path.read_text().strip()

    def test_dense_format(self, capsys, corpus, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "weigh", str(corpus), "--layout", "class-subdirectories",
                         "--format", "csv", "--out", str(out_dir))
        assert code == EXIT_OK
        first = (out_dir / "matrix_tfidf.csv").read_text().splitlines()[0]
        assert first.startswith("doc_id,")

    @pytest.mark.parametrize("fmt", ["csv", "coordinate-triplet"])
    def test_document_ids_are_quoted(self, capsys, tmp_path, fmt):
        root = tmp_path / "flat"
        root.mkdir()
        (root / "a,b.txt").write_text("wheat corn rice wheat\n")
        (root / "d.txt").write_text("barley wheat\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "weigh", str(root), "--scheme", "tfdf", "--format", fmt,
                           "--out", str(out_dir))
        assert code == EXIT_OK
        with open(out.strip(), newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        if fmt == "csv":
            header, rows = rows[0], rows[1:]
            assert header[0] == "doc_id" and all(len(r) == len(header) for r in rows)
        else:
            assert all(len(r) == 3 for r in rows)
        assert {r[0] for r in rows} == {"a,b.txt", "d.txt"}


class TestSelect:
    def test_full_run(self, capsys, corpus, tmp_path, wordnet_dir):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "select", str(corpus), "--layout",
                           "class-subdirectories", "--wordnet-dir", str(wordnet_dir),
                           "--out", str(out_dir))
        assert code == EXIT_OK
        for scheme in ("tfidf", "tfdf", "tf2", "joint"):
            assert any(l.startswith(scheme + "\t") for l in out.splitlines())
            assert (out_dir / f"keyterms_{scheme}.txt").exists()
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["wordnet_version"] == "2.1"
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "lexical_categories.tsv").exists()

    def test_empty_wordnet_env_counts_as_unset(self, capsys, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("WNSEARCHDIR", "")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "select", str(corpus), "--layout",
                         "class-subdirectories", "--out", str(out_dir))
        assert code == EXIT_OK
        assert json.loads((out_dir / "metadata.json").read_text())["wordnet_version"] == "none"

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_wordnet_dir_falls_back_to_env(self, capsys, corpus, tmp_path, wordnet_dir,
                                                 monkeypatch, via):
        monkeypatch.setenv("WNSEARCHDIR", str(wordnet_dir))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wordnet_dir =\n")
        empty = ["--wordnet-dir", ""] if via == "flag" else ["--config", str(cfg)]
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                         *empty, "--out", str(out_dir))
        assert code == EXIT_OK
        assert json.loads((out_dir / "metadata.json").read_text())["wordnet_version"] == "2.1"

    def test_without_wordnet(self, capsys, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "select", str(corpus), "--layout",
                         "class-subdirectories", "--out", str(out_dir))
        assert code == EXIT_OK
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["wordnet_version"] == "none"
        assert not (out_dir / "lexical_categories.tsv").exists()

    def test_threshold_flags_change_selection(self, capsys, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
            "--alpha", "0", "--beta", "0", "--gamma", "0", "--out", str(a))
        run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
            "--alpha", "1e9", "--out", str(b))
        all_kept = (a / "keyterms_tfidf.txt").read_text().split()
        none_kept = (b / "keyterms_tfidf.txt").read_text().split()
        assert all_kept and not none_kept

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_any_doc_is_max(self, capsys, minicorpus_dir, tmp_path, monkeypatch, via):
        """``any-doc`` is an alias: a term clears a >= threshold in some
        document exactly when its max clears it."""
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        base = ["select", str(minicorpus_dir), "--layout", "class-subdirectories"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("aggregation = any-doc\n")
        alias = ["--aggregation", "any-doc"] if via == "flag" else ["--config", str(cfg)]
        outputs = []
        for name, extra in (("max", ["--aggregation", "max"]), ("any-doc", alias)):
            out_dir = tmp_path / name
            code, out, _ = run(capsys, *base, *extra, "--out", str(out_dir))
            assert code == EXIT_OK
            outputs.append((out.replace(str(out_dir), "OUT"),
                            {p.name: p.read_bytes() for p in out_dir.iterdir()
                             if p.name != "metadata.json"}))
        assert outputs[0] == outputs[1]
        assert "keyterms_joint.txt" in outputs[0][1]
        assert json.loads((tmp_path / "any-doc" / "metadata.json").read_text()
                          )["aggregation"] == "max"


class TestWriteFailures:
    @pytest.mark.parametrize("command", ["weigh", "select"])
    def test_out_that_is_a_file_names_the_write_stage(self, capsys, corpus, tmp_path, command):
        out_file = tmp_path / "out"
        out_file.write_text("not a directory\n")
        code, out, err = run(capsys, command, str(corpus), "--layout", "class-subdirectories",
                             "--wordnet-policy", "off", "--out", str(out_file))
        assert (code, out) == (EXIT_DATA, "")
        assert err == ("termsift: error: stage write_outputs: [Errno 17] File exists: "
                       f"'{out_file}'\n")
        assert out_file.read_text() == "not a directory\n"

    def test_failed_export_leaves_no_metadata_report_or_temporary_file(self, capsys, corpus,
                                                                       tmp_path, monkeypatch):
        from termsift import weighting

        class FullDisk:
            """TF rows that fail once the first document's row is read."""

            def __init__(self, rows):
                self.rows = rows

            def __iter__(self):
                yield self.rows[0]
                raise OSError(28, "No space left on device")

        export = weighting.export_matrix

        def failing_export(matrix, *args, **kwargs):
            if matrix.scheme == "tfdf":
                matrix = matrix._replace(index=matrix.index._replace(tf=FullDisk(matrix.index.tf)))
            return export(matrix, *args, **kwargs)

        monkeypatch.setattr(weighting, "export_matrix", failing_export)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                             "--wordnet-policy", "off", "--out", str(out_dir))
        assert (code, out) == (EXIT_DATA, "")
        assert err == "termsift: error: stage write_outputs: [Errno 28] No space left on device\n"
        # matrices are written first, metadata.json last
        assert [p.name for p in out_dir.iterdir()] == ["matrix_tfidf.triplets"]


class TestReusedOut:
    """A run into a used ``--out`` removes the artifact names of an earlier run
    before its first export, so a ``metadata.json`` describes every artifact."""

    def select(self, capsys, corpus, out_dir, *extra):
        return run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                   "--out", str(out_dir), *extra)

    def test_second_select_leaves_only_its_own_artifacts(self, capsys, minicorpus_dir,
                                                         tmp_path, wordnet_dir):
        out_dir, fresh = tmp_path / "out", tmp_path / "fresh"
        second = ("--wordnet-policy", "off", "--format", "csv")
        assert self.select(capsys, minicorpus_dir, out_dir, "--wordnet-dir",
                           str(wordnet_dir))[0] == EXIT_OK
        assert self.select(capsys, minicorpus_dir, out_dir, *second)[0] == EXIT_OK
        assert self.select(capsys, minicorpus_dir, fresh, *second)[0] == EXIT_OK

        def artifacts(path):  # name -> bytes; only the metadata's timestamp differs
            return {p.name: p.name == "metadata.json" or p.read_bytes() for p in path.iterdir()}

        assert artifacts(out_dir) == artifacts(fresh)
        assert json.loads((out_dir / "metadata.json").read_text())["wordnet_policy"] == "off"

    def test_failed_rerun_leaves_no_metadata_or_temporary_file(self, capsys, corpus, tmp_path):
        out_dir = tmp_path / "out"
        assert self.select(capsys, corpus, out_dir, "--wordnet-policy", "off")[0] == EXIT_OK
        (out_dir / "matrix_tfdf.triplets").unlink()
        (out_dir / "matrix_tfdf.triplets").mkdir()
        code, _, err = self.select(capsys, corpus, out_dir, "--wordnet-policy", "off",
                                   "--alpha", "0.05")
        assert code == EXIT_DATA
        assert err.startswith("termsift: error: stage write_outputs: [Errno 21] Is a directory")
        names = sorted(p.name for p in out_dir.iterdir())
        assert "metadata.json" not in names
        assert not [name for name in names if name.endswith(".tmp")]

    def test_weigh_after_select_leaves_no_metadata(self, capsys, corpus, tmp_path):
        out_dir = tmp_path / "out"
        assert self.select(capsys, corpus, out_dir, "--wordnet-policy", "off")[0] == EXIT_OK
        code, _, _ = run(capsys, "weigh", str(corpus), "--layout", "class-subdirectories",
                         "--wordnet-policy", "off", "--scheme", "tf2", "--out", str(out_dir))
        assert code == EXIT_OK
        assert not (out_dir / "metadata.json").exists()
        assert (out_dir / "report.json").exists()  # weigh removes metadata.json alone

    @pytest.mark.parametrize("command", ["weigh", "select"])
    def test_other_files_survive(self, capsys, corpus, tmp_path, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        others = ("notes.txt", "matrix_bm25.csv", "keyterms_tfidf.txt.bak")
        for name in others:
            (out_dir / name).write_text("kept\n")
        code, _, _ = run(capsys, command, str(corpus), "--layout", "class-subdirectories",
                         "--wordnet-policy", "off", "--out", str(out_dir))
        assert code == EXIT_OK
        assert all((out_dir / name).read_text() == "kept\n" for name in others)


class TestDatasetName:
    """A corpus given as ``.`` or a path ending in ``..`` is named after the
    directory it reaches, also when a symlink comes before the ``..``."""

    def outputs(self, capsys, monkeypatch, given: str, cwd: Path, out_dir: Path):
        """What ``stats`` prints and the three reports ``select`` writes."""
        monkeypatch.chdir(cwd)
        code, stats, _ = run(capsys, "stats", given, "--layout", "class-subdirectories")
        assert code == EXIT_OK
        assert run(capsys, "select", given, "--layout", "class-subdirectories",
                   "--wordnet-policy", "off", "--out", str(out_dir))[0] == EXIT_OK
        return stats, [(out_dir / name).read_bytes()
                       for name in ("report.txt", "report.csv", "report.json")]

    @pytest.mark.parametrize("given, cwd", [(".", "corpus"), ("..", "corpus/alpha"),
                                            ("corpus/alpha/..", ".")])
    def test_dot_paths_name_the_directory(self, capsys, corpus, tmp_path, monkeypatch,
                                          given, cwd):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        expected = self.outputs(capsys, monkeypatch, str(corpus), tmp_path, tmp_path / "named")
        assert expected[0].startswith("dataset\tcorpus\n")
        assert all(b"corpus" in report for report in expected[1])
        assert self.outputs(capsys, monkeypatch, given, tmp_path / cwd,
                            tmp_path / "out") == expected

    @pytest.mark.parametrize("given", ["link/..", "link/../.", "link/../beta/.."])
    def test_dot_dot_after_a_symlink_names_the_targets_parent(self, capsys, corpus, tmp_path,
                                                          monkeypatch, given):
        # the kernel resolves link/.. to corpus, the parent of the link's target;
        # dropping "link/.." lexically names the working directory, cwd
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        (tmp_path / "cwd").mkdir()
        (tmp_path / "cwd" / "link").symlink_to(corpus / "alpha", target_is_directory=True)
        expected = self.outputs(capsys, monkeypatch, str(corpus), tmp_path, tmp_path / "named")
        assert self.outputs(capsys, monkeypatch, given, tmp_path / "cwd",
                            tmp_path / "out") == expected

    @pytest.mark.parametrize("given", ["symcorpus/.", "symcorpus/alpha/.."])
    def test_a_symlinked_corpus_keeps_its_own_name(self, capsys, corpus, tmp_path,
                                                   monkeypatch, given):
        # symcorpus/alpha/.. is the corpus itself, which the path names symcorpus
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        (tmp_path / "cwd").mkdir()
        link = tmp_path / "cwd" / "symcorpus"
        link.symlink_to(corpus, target_is_directory=True)
        expected = self.outputs(capsys, monkeypatch, str(link), tmp_path, tmp_path / "named")
        assert expected[0].startswith("dataset\tsymcorpus\n")
        assert self.outputs(capsys, monkeypatch, given, tmp_path / "cwd",
                            tmp_path / "out") == expected


@pytest.mark.parametrize("via", ["flag", "config"])
class TestEmptyPathSettings:
    """An empty corpus, stop-word or output path counts as not set, as a flag
    or as a config key, as an empty WordNet directory does."""

    @staticmethod
    def empty(tmp_path: Path, via: str, key: str) -> list[str]:
        if via == "flag":
            return [f"--{key}", ""]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} =\n")
        return ["--config", str(cfg)]

    def test_empty_corpus_is_a_usage_error(self, capsys, tmp_path, monkeypatch, via):
        monkeypatch.chdir(tmp_path)  # a directory with a document, never to be listed
        (tmp_path / "doc.txt").write_text("wheat harvest\n")
        code, out, err = run(capsys, "stats", *self.empty(tmp_path, via, "corpus"))
        assert (code, out) == (EXIT_USAGE, "")
        assert "a corpus directory is required" in err

    def test_empty_out_is_the_default(self, capsys, corpus, tmp_path, monkeypatch, via):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "select", str(corpus), "--layout", "class-subdirectories",
                           *self.empty(tmp_path, via, "out"))
        assert code == EXIT_OK
        assert out.endswith("artifacts written to termsift-out\n")
        assert (tmp_path / "termsift-out" / "metadata.json").is_file()
        assert not (tmp_path / "metadata.json").exists()

    def test_empty_stopwords_is_the_bundled_list(self, capsys, corpus, tmp_path, via):
        args = ("preprocess", str(corpus), "--layout", "class-subdirectories")
        bundled = run(capsys, *args)
        assert bundled[0] == EXIT_OK
        assert run(capsys, *args, *self.empty(tmp_path, via, "stopwords")) == bundled


class TestConfigFile:
    def test_flags_override_config(self, capsys, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "layout = class-subdirectories\n"
            "# comment line\n"
            f"out = {tmp_path / 'from-config'}\n"
            "alpha = 0.5\n"
        )
        out_dir = tmp_path / "from-flag"
        code, _, _ = run(capsys, "select", str(corpus), "--config", str(cfg),
                         "--out", str(out_dir))
        assert code == EXIT_OK
        assert out_dir.exists()
        assert not (tmp_path / "from-config").exists()
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["alpha"] == 0.5  # from config; not overridden

    def test_config_supplies_corpus(self, capsys, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {corpus}\nlayout = class-subdirectories\n")
        code, out, _ = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_OK
        assert "documents\t6" in out

    def test_unknown_key(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 42\n")
        code, _, err = run(capsys, "stats", str(corpus), "--config", str(cfg))
        assert code == EXIT_DATA
        assert f"termsift: error: {cfg}:1: unknown config key 'mystery'" in err

    @pytest.mark.parametrize("key, value", [("min_count", "2.5"), ("alpha", "high")])
    def test_value_that_does_not_convert(self, capsys, corpus, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# thresholds\nlayout = class-subdirectories\n{key} = {value}\n")
        code, _, err = run(capsys, "stats", str(corpus), "--config", str(cfg))
        assert code == EXIT_DATA
        assert f"termsift: error: {cfg}:3: invalid value for {key!r}: " in err
        assert repr(value) in err

    def test_repeated_key(self, capsys, corpus, tmp_path):
        # both spellings normalise to min_count, so line 3 would override line 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("layout = class-subdirectories\nmin_count = 1\nmin-count = 9\n")
        code, _, err = run(capsys, "select", str(corpus), "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_DATA
        assert (f"termsift: error: {cfg}:3: config key 'min_count' is already set "
                f"at {cfg}:2") in err
        assert not (tmp_path / "out").exists()

    def test_malformed_line(self, capsys, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no equals sign here\n")
        assert run(capsys, "stats", str(corpus), "--config", str(cfg))[0] == EXIT_DATA

    def test_missing_config(self, capsys, corpus, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert run(capsys, "stats", str(corpus), "--config", str(missing))[0] == EXIT_DATA


class TestWeighSelectParity:
    """``weigh`` runs the same steps 1-6 as ``select`` on the same configuration."""

    # (wordnet policy, vocabulary size on the bundled corpus at --min-count 5)
    @pytest.fixture(params=[("off", 126), ("filter-nonwordnet", 22)])
    def case(self, request, minicorpus_dir, wordnet_dir, monkeypatch):
        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        policy, vocabulary = request.param
        flags = [str(minicorpus_dir), "--layout", "class-subdirectories", "--min-count", "5",
                 "--wordnet-dir", str(wordnet_dir), "--wordnet-policy", policy]
        return flags, vocabulary

    @pytest.mark.parametrize("scheme", ("tfidf", "tfdf", "tf2"))
    def test_weigh_has_selects_vocabulary_and_weights(self, capsys, tmp_path, case, scheme):
        flags, vocabulary = case
        code, out, _ = run(capsys, "select", *flags, "--out", str(tmp_path / "select"))
        assert code == EXIT_OK
        rows = dict(line.split("\t", 1) for line in out.splitlines() if "\t" in line)
        assert f"\tterms={vocabulary}\t" in rows[scheme]
        code, _, _ = run(capsys, "weigh", *flags, "--scheme", scheme,
                         "--out", str(tmp_path / "weigh"))
        assert code == EXIT_OK
        weigh_lines = (tmp_path / "weigh" / f"matrix_{scheme}.triplets").read_text().splitlines()
        assert len({line.split(",")[1] for line in weigh_lines}) == vocabulary
        select_lines = (tmp_path / "select" / f"matrix_{scheme}.triplets").read_text()
        assert select_lines.strip()
        assert set(select_lines.splitlines()) <= set(weigh_lines)

    def test_preprocess_prints_the_vectors_select_weighs(self, capsys, tmp_path,
                                                         minicorpus_dir, monkeypatch):
        from termsift import weighting

        monkeypatch.delenv("WNSEARCHDIR", raising=False)
        indexed = []
        build_index = weighting.build_index

        def spy(vectors, keep=None):
            indexed.append([(v.doc_id, {t: c for t, c in v.counts.items()
                                        if keep is None or t in keep}) for v in vectors])
            return build_index(vectors, keep)

        monkeypatch.setattr(weighting, "build_index", spy)
        flags = [str(minicorpus_dir), "--layout", "class-subdirectories"]
        code, _, _ = run(capsys, "select", *flags, "--out", str(tmp_path))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "preprocess", *flags)
        assert code == EXIT_OK
        expected = [f"{doc_id},{t},{counts[t]}" for doc_id, counts in indexed[0]
                    for t in sorted(counts)]
        assert out.splitlines() == expected
