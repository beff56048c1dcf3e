"""Steps 1-3 through the corpus cache: a warm run reads exactly what a cold
run computes, any change to what steps 1-3 read misses, and no cache fault
fails a run."""

import logging
import os
import shutil
import sys
from pathlib import Path

import pytest

from termsift import cache, pipeline, wordnet
from termsift.cli import main
from termsift.corpus import default_stopwords, load_corpus, load_stopwords
from termsift.pipeline import PipelineConfig, extract_terms, run_chain

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run as perfbench  # noqa: E402

SEED = 301


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch) -> Path:
    """A fresh cache per test; returns the directory its entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "termsift"


@pytest.fixture()
def extracted(monkeypatch) -> list:
    """Every ``extract_terms`` call ``run_chain`` makes, i.e. every cache miss."""
    calls = []

    def spy(documents, stopwords, key=None):
        calls.append(documents)
        return extract_terms(documents, stopwords, key)

    monkeypatch.setattr(pipeline, "extract_terms", spy)
    return calls


@pytest.fixture()
def mini(tmp_path, minicorpus_dir) -> Path:
    """A copy of the minicorpus that a test may change."""
    return shutil.copytree(minicorpus_dir, tmp_path / "minicorpus")


@pytest.fixture(scope="module")
def workloads(tmp_path_factory) -> dict[str, tuple[Path, str]]:
    """The corpora of the three benchmark workloads at seed 301: name -> (root, layout)."""
    base = tmp_path_factory.mktemp("workloads")
    found = {}
    for name, workload in perfbench.WORKLOADS.items():
        gen.make_corpus(gen.CORPORA[name], SEED, base / name)
        found[name] = (base / name / "corpus", workload.layout)
    return found


def chain_terms(root: Path, layout: str = "class-subdirectories", **kw):
    return run_chain(PipelineConfig(corpus_path=str(root), layout=layout, **kw),
                     last_step=3).terms


def uncached_terms(root: Path, layout: str = "class-subdirectories", stopwords=None):
    return extract_terms(load_corpus(root, layout), stopwords or default_stopwords())


def assert_identical(got, expected) -> None:
    """Equal, and every dict in the same order."""
    assert got == expected
    assert [list(v.counts.items()) for v in got.vectors] == [
        list(v.counts.items()) for v in expected.vectors]
    assert list(got.stem_of.items()) == list(expected.stem_of.items())


@pytest.mark.parametrize("corpus", ["minicorpus", *perfbench.WORKLOADS])
def test_warm_run_equals_cold_run(corpus, minicorpus_dir, workloads, cache_dir, extracted):
    root, layout = ((minicorpus_dir, "class-subdirectories") if corpus == "minicorpus"
                    else workloads[corpus])
    expected = uncached_terms(root, layout)
    assert_identical(chain_terms(root, layout), expected)
    assert len(extracted) == 1
    [entry] = cache_dir.glob("corpus-*.marshal")
    assert_identical(chain_terms(root, layout), expected)
    assert len(extracted) == 1  # the second run read the entry


@pytest.mark.parametrize("command", ["select", "weigh", "preprocess"])
def test_outputs_are_identical_cold_and_warm(capsys, mini, tmp_path, extracted, command):
    outputs = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main([command, str(mini), "--layout", "class-subdirectories",
                     "--wordnet-policy", "off", "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "metadata.json"
                 } if out.is_dir() else {}
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert len(extracted) == 1
    assert outputs[0] == outputs[1]


def test_warm_select_agrees_with_the_oracle(capsys, workloads, tmp_path, extracted):
    """The zipf-select workload's select, cold then warm, each checked by
    perfbench's oracle as ``perfbench/run.py`` checks a run's first select."""
    root, _ = workloads["zipf-select"]
    workload = perfbench.WORKLOADS["zipf-select"]
    exp = oracle.expected(root.parent / "tokens.tsv", workload.thresholds,
                          workload.aggregation, workload.min_count)
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(perfbench.termsift_args("select", root, workload, out, None)) == 0
        problems, _ = oracle.check_select(out, exp, workload.thresholds,
                                          workload.matrix_format)
        assert problems == [], run
    assert len(extracted) == 1
    capsys.readouterr()


def edit_a_byte(root: Path) -> None:
    path = root / "grainfarm" / "doc03.txt"
    data = bytearray(path.read_bytes())
    data[0] = ord("q") if data[0] != ord("q") else ord("z")
    path.write_bytes(bytes(data))


def rename_a_document(root: Path) -> None:
    (root / "shipping" / "doc09.txt").rename(root / "shipping" / "doc10.txt")


def damage_entry(how: str):
    def damage(cache_dir: Path) -> None:
        [entry] = cache_dir.glob("corpus-*.marshal")
        data = bytearray(entry.read_bytes())
        if how == "truncate":
            del data[len(data) // 2:]
        else:
            data[-10] ^= 0x01
        entry.write_bytes(bytes(data))
    return damage


@pytest.mark.parametrize("change", [
    "byte", "doc-id", "stopwords", "code", "truncated-entry", "bit-flipped-entry"])
def test_a_change_misses_and_equals_a_cold_run(mini, tmp_path, cache_dir, monkeypatch,
                                               extracted, change):
    chain_terms(mini)
    stopwords = None
    kw = {}
    if change == "byte":
        edit_a_byte(mini)
    elif change == "doc-id":
        rename_a_document(mini)
    elif change == "stopwords":
        # as many words as the bundled list, one of them another
        bundled = Path(pipeline.corpus_io.__file__).parent / "data" / "stopwords.txt"
        words = bundled.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "sw.txt"
        path.write_text("\n".join("wheat" if w == "the" else w for w in words) + "\n",
                        encoding="utf-8")
        kw["stopword_path"] = str(path)
        stopwords = load_stopwords(path)
        assert len(stopwords) == len(default_stopwords())
    elif change == "code":
        # an edited stemmer: the same code and a comment, in another file
        edited = tmp_path / "porter.py"
        source = Path(pipeline.porter.__file__).read_text(encoding="utf-8")
        edited.write_text(source + "# edited\n", encoding="utf-8")
        monkeypatch.setattr(pipeline, "_STEP_SOURCES", tuple(
            edited if p.name == "porter.py" else p for p in pipeline._STEP_SOURCES))
    else:
        damage_entry(change.split("-")[0])(cache_dir)
    expected = uncached_terms(mini, stopwords=stopwords)
    assert_identical(chain_terms(mini, **kw), expected)
    assert len(extracted) == 2
    assert_identical(chain_terms(mini, **kw), expected)  # the rewritten entry hits
    assert len(extracted) == 2


def test_a_document_edited_between_the_two_reads_is_keyed_by_what_was_read_last(
        mini, monkeypatch, extracted):
    """A miss keys its entry by the bytes its terms came from, so a document
    edited after the hashing pass and then changed back does not hit."""
    chain_terms(mini)  # an entry exists, so the next run hashes every document first
    edit_a_byte(mini)
    doc = mini / "grainfarm" / "doc03.txt"
    hashed = doc.read_bytes()
    spy = pipeline.extract_terms

    def edit_then_extract(documents, stopwords, key=None):
        doc.write_bytes(hashed + b" harvest harvest\n")
        return spy(documents, stopwords, key)

    monkeypatch.setattr(pipeline, "extract_terms", edit_then_extract)
    assert_identical(chain_terms(mini), uncached_terms(mini))
    monkeypatch.setattr(pipeline, "extract_terms", spy)
    doc.write_bytes(hashed)  # back to the bytes the hashing pass read
    assert_identical(chain_terms(mini), uncached_terms(mini))
    assert len(extracted) == 3


def test_documents_are_read_once_unless_a_stale_entry_exists(mini, monkeypatch, extracted):
    """No entry: one read per document, keyed as it goes. A hit: one read.
    A stale entry: the hashing pass, then ``extract_terms``'s read."""
    reads = []
    read_bytes = pipeline.corpus_io.Document.read_bytes

    def counted(doc):
        reads.append(doc.doc_id)
        return read_bytes(doc)

    monkeypatch.setattr(pipeline.corpus_io.Document, "read_bytes", counted)
    n = len(load_corpus(mini, "class-subdirectories"))
    for change, runs in ((None, 1), (None, 1), (edit_a_byte, 2)):
        if change:
            change(mini)
        reads.clear()
        assert_identical(chain_terms(mini), uncached_terms(mini))
        assert len(reads) == runs * n + n  # uncached_terms reads each one more time
    assert len(extracted) == 2


def test_code_fingerprint_reads_the_step_modules(mini, wordnet_dir, monkeypatch):
    names = sorted(p.name for p in pipeline._STEP_SOURCES)
    assert names == ["corpus.py", "pipeline.py", "porter.py", "textprep.py"]
    assert all(p.is_file() for p in pipeline._STEP_SOURCES)
    assert [p.name for p in wordnet._SOURCES] == ["wordnet.py"]
    assert all(p.is_file() for p in wordnet._SOURCES)
    # each key starts with the cache module's source, then its caller's
    hashed = []
    file_digest = cache.file_digest
    monkeypatch.setattr(cache, "file_digest",
                        lambda path: hashed.append(Path(path)) or file_digest(path))
    chain_terms(mini)
    assert hashed == [Path(cache.__file__), *pipeline._STEP_SOURCES]
    hashed.clear()
    wordnet.load_wordnet(wordnet_dir)
    assert hashed[:2] == [Path(cache.__file__), *wordnet._SOURCES]


@pytest.mark.parametrize("blocker", ["file", "entry-is-directory", "no-permission"])
def test_unwritable_cache_still_exits_0(capsys, mini, tmp_path, cache_dir, caplog, monkeypatch,
                                        blocker):
    if blocker == "file":
        cache_dir.parent.mkdir()
        cache_dir.write_text("not a directory\n")
    elif blocker == "no-permission":
        # what a directory without search permission gives a non-root user,
        # e.g. one an earlier `sudo termsift` created: stat fails with EACCES
        cache_dir.mkdir(parents=True)
        stat = os.stat

        def refuse(path, *args, **kwargs):
            if str(path).startswith(str(cache_dir)):
                raise PermissionError(13, "Permission denied", str(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", refuse)
    else:
        cache_dir.mkdir(parents=True)
        (cache_dir / pipeline.cache.entry_path("corpus", mini).name).mkdir()
    for _ in range(2):
        with caplog.at_level(logging.INFO, logger="termsift.cache"):
            assert main(["preprocess", str(mini), "--layout", "class-subdirectories"]) == 0
    assert capsys.readouterr().out
    assert sum("cache not written" in m for m in caplog.messages) == 2


def test_unreadable_source_runs_uncached(mini, tmp_path, monkeypatch, cache_dir, extracted):
    monkeypatch.setattr(pipeline, "_STEP_SOURCES", (tmp_path / "missing.py",))
    for _ in range(2):
        assert_identical(chain_terms(mini), uncached_terms(mini))
    assert len(extracted) == 2
    assert not cache_dir.exists()


def test_entry_of_a_deleted_corpus_is_pruned(mini, tmp_path, cache_dir, minicorpus_dir):
    chain_terms(mini)
    [gone] = cache_dir.glob("corpus-*.marshal")
    shutil.rmtree(mini)
    chain_terms(minicorpus_dir)
    assert not gone.exists()
    assert len(list(cache_dir.glob("corpus-*.marshal"))) == 1


def test_one_entry_per_corpus_directory(mini, cache_dir):
    chain_terms(mini)
    edit_a_byte(mini)
    chain_terms(mini)
    assert [p.name for p in cache_dir.iterdir()] == [
        pipeline.cache.entry_path("corpus", mini).name]
