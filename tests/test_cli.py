import json
import shutil

import pytest

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
        assert run(capsys, "stats", str(corpus), "--config", str(cfg))[0] == EXIT_DATA

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

        def spy(vectors):
            indexed.append(list(vectors))
            return build_index(vectors)

        monkeypatch.setattr(weighting, "build_index", spy)
        flags = [str(minicorpus_dir), "--layout", "class-subdirectories"]
        code, _, _ = run(capsys, "select", *flags, "--out", str(tmp_path))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "preprocess", *flags)
        assert code == EXIT_OK
        expected = [f"{v.doc_id},{t},{v.counts[t]}" for v in indexed[0] for t in sorted(v.counts)]
        assert out.splitlines() == expected
