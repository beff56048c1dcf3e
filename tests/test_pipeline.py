import logging
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termsift import corpus as corpus_io
from termsift import pipeline, porter, weighting, wordnet
from termsift.corpus import StopwordList, load_corpus, load_stopwords
from termsift.pipeline import (
    PipelineConfig, extract_terms, run_chain, run_pipeline, run_weigh,
)
from termsift.textprep import TermVector

SW = StopwordList(words=frozenset({"the", "of", "and", "a", "is"}))


@pytest.fixture()
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    texts = [
        "The farmer harvested the wheat crop and sold grain at the market.",
        "Wheat and barley prices rose as the grain market tightened.",
        "The ship carried cargo of grain from the port across the sea.",
        "Dock workers loaded the vessel with wheat cargo at the harbour.",
    ]
    for i, text in enumerate(texts):
        (root / f"doc{i}.txt").write_text(text)
    return root


@pytest.fixture()
def computed(monkeypatch):
    """Every matrix ``weighting.compute_matrix`` returns during the test, in order."""
    matrices = []
    compute = weighting.compute_matrix

    def spy(*args, **kwargs):
        matrices.append(compute(*args, **kwargs))
        return matrices[-1]

    monkeypatch.setattr(weighting, "compute_matrix", spy)
    return matrices


def config_for(corpus, tmp_path, **kw):
    return PipelineConfig(corpus_path=str(corpus), out_dir=str(tmp_path / "out"), **kw)


def extract(*docs, stopwords=SW):
    """``extract_terms`` over (doc_id, text) pairs, each written to a file named doc_id."""
    with tempfile.TemporaryDirectory() as tmp:
        for doc_id, text in docs:
            (Path(tmp) / doc_id).write_text(text, encoding="utf-8")
        return extract_terms(load_corpus(tmp, "flat"), stopwords)


class TestExtractTerms:
    """Steps 1-3 through ``extract_terms``."""

    def test_document_vector(self):
        terms = extract(("d1", "The running dogs and the jumping dogs."))
        (v,) = terms.vectors
        assert v.doc_id == "d1"
        assert v.counts == {"run": 1, "dog": 2, "jump": 1}

    def test_corpus_surface_map(self):
        terms = extract(("a", "ponies run"), ("b", "pony runs"))
        assert len(terms.vectors) == 2
        assert terms.stem_of == {"ponies": "poni", "pony": "poni", "run": "run", "runs": "run"}

    def test_vectors_independent_of_other_documents(self):
        docs = [(f"d{i}", f"harvest market grain grain x{i}ing") for i in range(4)]
        together = extract(*docs).vectors
        assert together == [extract(doc).vectors[0] for doc in docs]

    def test_stopword_matching_is_on_surface_forms(self):
        # "running" is not a stopword even if "run" were one: matching happens
        # before stemming, on the surface token
        sw = StopwordList(words=frozenset({"run"}))
        (v,) = extract(("d", "run running"), stopwords=sw).vectors
        assert v.counts == {"run": 1}  # the stem of "running"

    def test_empty_document_allowed(self):
        (v,) = extract(("d", "the of and")).vectors
        assert v.counts == {}

    def test_token_counts_are_taken_before_stopword_removal(self):
        terms = extract(("a", "the of and"), ("b", "wheat a 7 x barley"))
        assert terms.token_counts == [3, 2]

    def test_each_surface_token_is_stemmed_once(self, monkeypatch):
        calls = Counter()

        def counting_stem(word):
            calls[word] += 1
            return porter.stem(word)

        monkeypatch.setattr(pipeline, "porter_stem", counting_stem)
        terms = extract(("a", "ponies run runs ponies"),
                        ("b", "pony runs the run"),
                        ("c", "ponies ponies pony"))
        assert calls == {"ponies": 1, "run": 1, "runs": 1, "pony": 1}
        assert [v.counts for v in terms.vectors] == [
            {"poni": 2, "run": 2}, {"poni": 1, "run": 2}, {"poni": 3}]
        assert terms.stem_of == {"ponies": "poni", "pony": "poni", "run": "run", "runs": "run"}

    def test_memory_keeps_no_container_per_stem(self):
        # 20,000 distinct words, each its own stem, 1,000 to a document
        letters = "bcdfghjklmnpqrtvwxz"
        words = [f"zq{letters[k // 361]}{letters[k // 19 % 19]}{letters[k % 19]}{n}o"
                 for k in range(19 ** 3) for n in ("", "l", "n")][:20_000]
        docs = [(f"d{i}", " ".join(words[i:i + 1000]))
                for i in range(0, len(words), 1000)]
        tracemalloc.start()
        try:
            terms = extract(*docs)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a word's surface -> stem entry and its one count take about 100 bytes;
        # a set of surfaces per stem adds about 250
        assert held < 160 * len(words), f"{held} bytes held for {len(words)} words"
        assert len(terms.stem_of) == len({s for v in terms.vectors for s in v.counts}) == 20_000

    # words that share stems, stop words, one-letter words, and ids that need quoting
    WORDS = ("the", "of", "a", "is", "x", "pony", "ponies", "run", "runs", "running",
             "grain", "grains", "market", "marketing", "wheat", "connection", "connected")
    TEXT = st.lists(st.sampled_from(WORDS) | st.text("ab7 ,.\n", max_size=4), max_size=30)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(TEXT, min_size=1, max_size=8))
    def test_matches_a_whole_corpus_reference(self, texts):
        docs = [(f"d,{i}", " ".join(words).upper() if i % 3 == 0
                            else " ".join(words)) for i, words in enumerate(texts)]
        terms = extract(*docs)
        # the reference runs each step over the whole corpus before the next
        tokenized = [re.findall("[a-z]+", text.lower()) for _, text in docs]
        tokenized = [[t for t in tokens if len(t) >= 2] for tokens in tokenized]
        token_counts = [len(tokens) for tokens in tokenized]
        kept = [[t for t in tokens if t not in SW.words] for tokens in tokenized]
        stems = [[porter.stem(t) for t in tokens] for tokens in kept]
        stem_of = {t: s for tokens, stemmed in zip(kept, stems) for t, s in zip(tokens, stemmed)}
        assert terms.token_counts == token_counts
        assert [(v.doc_id, dict(v.counts)) for v in terms.vectors] == [
            (doc_id, dict(Counter(stemmed))) for (doc_id, _), stemmed in zip(docs, stems)]
        assert terms.stem_of == stem_of


class TestValidation:
    def test_bad_layout(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(config_for(corpus, tmp_path, layout="tarball"))

    def test_bad_policy(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(config_for(corpus, tmp_path, wordnet_policy="maybe"))

    def test_bad_min_count(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(config_for(corpus, tmp_path, min_count=0))

    @pytest.mark.parametrize("field, value, message", [
        ("aggregation", "median", "unknown aggregation 'median'"),
        ("log_base", "3", "log base must be one of ['10', '2', 'e']"),
    ], ids=["aggregation", "log-base"])
    def test_bad_aggregation_and_log_base(self, corpus, tmp_path, field, value, message):
        with pytest.raises(ValueError) as exc:
            run_pipeline(config_for(corpus, tmp_path, **{field: value}))
        assert str(exc.value) == message
        assert not (tmp_path / "out").exists()

    def test_negative_threshold(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(config_for(corpus, tmp_path, alpha=-1.0))

    def test_threshold_defaults(self, corpus, tmp_path, monkeypatch):
        config = config_for(corpus, tmp_path)
        assert (config.alpha, config.beta, config.gamma) == (0.028, 0.01, 0.005)
        used = {}
        select = weighting.select_key_terms

        def spy(matrix, threshold, *args):
            used[matrix.scheme] = threshold
            return select(matrix, threshold, *args)

        monkeypatch.setattr(weighting, "select_key_terms", spy)
        run_pipeline(config._replace(alpha=0.5, beta=0.25, gamma=0.125))
        assert used == {"tfidf": 0.5, "tfdf": 0.25, "tf2": 0.125}

    @pytest.mark.parametrize("name, value", [("alpha", -1.0), ("beta", math.nan),
                                             ("gamma", math.inf)])
    def test_invalid_thresholds(self, corpus, tmp_path, name, value):
        config = config_for(corpus, tmp_path, **{name: value})
        message = re.escape(f"threshold {name} must be finite and >= 0, got {value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            config.validate()
        # weigh_schemes is public: called directly, it checks the config too
        index = run_chain(config_for(corpus, tmp_path)).index
        with pytest.raises(ValueError, match=f"^{message}$"):
            pipeline.weigh_schemes(index, config, select=True)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kw,stage",
        [
            ({"corpus_path": "/nonexistent/corpus"}, "load_corpus"),
            ({"stopword_path": "/nonexistent/sw.txt"}, "load_stopwords"),
            ({"wordnet_dir": "/nonexistent/wn"}, "load_wordnet"),
        ],
    )
    def test_missing_inputs_name_their_stage(self, corpus, tmp_path, kw, stage):
        base = dict(corpus_path=str(corpus), out_dir=str(tmp_path / "out"))
        base.update(kw)
        with pytest.raises(FileNotFoundError) as exc:
            run_pipeline(PipelineConfig(**base))
        assert f"stage {stage}" in str(exc.value)

    def test_corrupt_wordnet_names_its_stage(self, corpus, tmp_path):
        wn = tmp_path / "wn"
        wn.mkdir()
        with pytest.raises(FileNotFoundError) as exc:
            run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wn)))
        assert "stage load_wordnet" in str(exc.value)


class TestRunChain:
    def test_prefixes_load_only_the_inputs_they_use(self, corpus, tmp_path, wordnet_dir,
                                                    monkeypatch):
        def unused(*_):
            raise AssertionError("loaded an input this prefix does not use")

        config = config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir))
        monkeypatch.setattr(wordnet, "load_wordnet", unused)
        assert len(run_chain(config, last_step=3).terms.vectors) == 4
        monkeypatch.setattr(corpus_io, "default_stopwords", unused)
        assert run_chain(config, last_step=1).stats.documents == 4

    def test_stats_prefix_summarizes_like_the_full_run(self, corpus, tmp_path):
        config = config_for(corpus, tmp_path)
        assert run_chain(config, last_step=1).stats == run_pipeline(config).stats

    def test_step_six_loads_wordnet_only_to_filter(self, corpus, tmp_path, wordnet_dir,
                                                   monkeypatch, computed):
        def unused(*_):
            raise AssertionError("loaded WordNet for annotations step 6 drops")

        config = config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir),
                            wordnet_policy="annotate-only")
        annotated = run_pipeline(config)
        assert annotated.db is not None and annotated.annotations
        monkeypatch.setattr(wordnet, "load_wordnet", unused)
        for scheme in weighting.SCHEMES:
            run_weigh(config, scheme)

        def cells(matrix):  # a matrix's formula is a new function each time
            return matrix.scheme, matrix.index, dict(matrix.entries)

        assert list(map(cells, computed[3:])) == list(map(cells, computed[:3]))

    def test_stage_prefix_keeps_type_and_cause_of_errno_oserror(self, corpus, tmp_path,
                                                               monkeypatch):
        original = FileNotFoundError(2, "No such file or directory", "x")

        def missing(*_):
            raise original

        monkeypatch.setattr(corpus_io, "load_corpus", missing)
        with pytest.raises(FileNotFoundError) as exc:
            run_chain(config_for(corpus, tmp_path), last_step=1)
        assert str(exc.value) == "stage load_corpus: [Errno 2] No such file or directory: 'x'"
        assert exc.value.__cause__ is original

    @pytest.mark.parametrize("log_base", ["2", "10"])
    def test_log_base_divides_tfidf_and_tf2_by_its_natural_log(self, corpus, tmp_path,
                                                              computed, log_base):
        run_pipeline(config_for(corpus, tmp_path))
        run_pipeline(config_for(corpus, tmp_path, log_base=log_base))
        natural, result = computed[:3], computed[3:]
        for matrix, natural_matrix in zip(result, natural, strict=True):
            divisor = 1.0 if matrix.scheme == "tfdf" else math.log(float(log_base))
            assert list(matrix.entries) == list(natural_matrix.entries)
            assert list(matrix.entries.values()) == pytest.approx(
                [w / divisor for w in natural_matrix.entries.values()], rel=1e-12)

    def test_step_six_computes_only_the_requested_schemes(self, corpus, tmp_path,
                                                          monkeypatch, computed):
        def unused(*_):
            raise AssertionError("selected key terms for weigh")

        monkeypatch.setattr(weighting, "select_key_terms", unused)
        path = run_weigh(config_for(corpus, tmp_path), "tf2")
        assert [m.scheme for m in computed] == ["tf2"]
        assert list((tmp_path / "out").iterdir()) == [path]
        assert path.name == "matrix_tf2.triplets"


class TestOneSchemeAtATime:
    """Steps 6-7 take each scheme through compute, select and export before the next."""

    def test_schemes_are_computed_selected_and_exported_in_turn(self, corpus, tmp_path,
                                                                monkeypatch):
        calls = []
        compute, select = weighting.compute_matrix, weighting.select_key_terms
        export = weighting.export_matrix

        def spy_compute(index, scheme, **kw):
            calls.append(("compute", scheme))
            return compute(index, scheme, **kw)

        def spy_select(matrix, *args):
            calls.append(("select", matrix.scheme))
            return select(matrix, *args)

        def spy_export(matrix, *args, **kw):
            calls.append(("export", matrix.scheme))
            return export(matrix, *args, **kw)

        monkeypatch.setattr(weighting, "compute_matrix", spy_compute)
        monkeypatch.setattr(weighting, "select_key_terms", spy_select)
        monkeypatch.setattr(weighting, "export_matrix", spy_export)
        run_pipeline(config_for(corpus, tmp_path))
        assert calls == [(step, scheme) for scheme in ("tfidf", "tfdf", "tf2")
                         for step in ("compute", "select", "export")]

    @pytest.mark.parametrize("aggregation", weighting.AGGREGATIONS)
    def test_weights_are_not_stored(self, tmp_path, aggregation):
        # 500 documents x 200 of 2,000 terms: 100,000 cells
        rng = random.Random(5)
        terms = [f"t{k:04d}" for k in range(2000)]
        index = weighting.build_index([
            TermVector(f"d{i}", {t: rng.randint(1, 9) for t in rng.sample(terms, 200)})
            for i in range(500)])
        cells = sum(map(len, index.term_ids))
        # thresholds no weight reaches, so the exports write no cell
        config = config_for(tmp_path, tmp_path, alpha=1e9, beta=1e9, gamma=1e9,
                            aggregation=aggregation)
        tracemalloc.start()
        try:
            key_terms, _ = pipeline.weigh_schemes(index, config, select=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(kd.terms for kd in key_terms.values())
        # a stored matrix takes 8 bytes a cell in its array('d') rows
        assert peak < 3 * cells, f"traced peak {peak / cells:.2f} bytes a cell"

    def test_pipeline_result_holds_no_matrix_and_no_index(self, corpus, tmp_path):
        result = run_pipeline(config_for(corpus, tmp_path))
        assert result.index is None
        assert not any(isinstance(value, (weighting.WeightMatrix, weighting.CorpusIndex))
                       for value in vars(result).values())


class TestStageLog:
    def expected_steps(self):
        return [f"step {i}/7" for i in range(1, 8)]

    def test_all_seven_steps_in_order(self, corpus, tmp_path, wordnet_dir, caplog):
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir)))
        hits = [m for m in caplog.messages for s in self.expected_steps() if m.startswith(s)]
        assert [h.split(":")[0] for h in hits] == self.expected_steps()

    def test_wordnet_step_skippable(self, corpus, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_pipeline(config_for(corpus, tmp_path, wordnet_policy="off"))
        messages = "\n".join(caplog.messages)
        assert "step 4/7 skipped" in messages
        for step in ("step 1/7", "step 2/7", "step 3/7", "step 5/7",
                     "step 6/7", "step 7/7"):
            assert step in messages

    def test_stop_words_that_match_no_token_are_counted(self, corpus, tmp_path, caplog):
        sw = tmp_path / "sw.txt"
        sw.write_text("the\na\ndon't\nx1\nwheat\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_chain(config_for(corpus, tmp_path, stopword_path=str(sw)), last_step=3)
        assert ("loaded corpus corpus: 4 documents; stopword list: 5 words, 3 of which "
                "can never match a token") in caplog.messages

    def test_stop_word_lines_end_only_at_line_breaks(self, corpus, tmp_path, caplog):
        # \f and U+0085 end a line for str.splitlines, but as in the config and
        # manifest files only \n, \r and \r\n end one
        sw = tmp_path / "sw.txt"
        sw.write_text("the\fand\nof\u0085it\n", encoding="utf-8")
        assert load_stopwords(sw).words == {"the\fand", "of\u0085it"}
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_chain(config_for(corpus, tmp_path, stopword_path=str(sw)), last_step=3)
        assert ("loaded corpus corpus: 4 documents; stopword list: 2 words, 2 of which "
                "can never match a token") in caplog.messages

    def test_vocab_before_after_logged(self, corpus, tmp_path, wordnet_dir, caplog):
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir)))
        assert any("before WordNet" in m for m in caplog.messages)

    @pytest.mark.parametrize("policy,after", [("annotate-only", 136), ("filter-nonwordnet", 24)])
    def test_vocab_before_after_counts(self, minicorpus_dir, tmp_path, wordnet_dir, caplog,
                                       policy, after):
        config = PipelineConfig(corpus_path=str(minicorpus_dir), layout="class-subdirectories",
                                wordnet_dir=str(wordnet_dir), wordnet_policy=policy,
                                out_dir=str(tmp_path / "out"))
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_chain(config)
        assert f"vocabulary: 136 terms before WordNet step, {after} after" in caplog.messages


class TestResults:
    def test_key_term_sets_cover_all_schemes(self, corpus, tmp_path):
        result = run_pipeline(config_for(corpus, tmp_path))
        assert set(result.key_terms) == {"tfidf", "tfdf", "tf2"}
        assert result.joint.scheme == "joint"
        vocab_size = result.rows[0].term_count
        for kd in result.key_terms.values():
            assert kd.vocabulary_size == vocab_size
            assert all(isinstance(t, str) for t in kd.terms)

    def test_joint_contained_in_each(self, corpus, tmp_path):
        result = run_pipeline(config_for(corpus, tmp_path))
        for kd in result.key_terms.values():
            assert result.joint.terms <= kd.terms

    def test_rows_consistent(self, corpus, tmp_path):
        from termsift.weighting import removed_percentage

        result = run_pipeline(config_for(corpus, tmp_path))
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.removed_pct == removed_percentage(
                row.term_count - row.key_term_count, row.term_count)

    def test_min_count_shrinks_vocabulary(self, corpus, tmp_path):
        base = run_pipeline(config_for(corpus, tmp_path))
        floored = run_pipeline(config_for(corpus, tmp_path / "f", min_count=2))
        assert floored.rows[0].term_count < base.rows[0].term_count
        # wheat occurs three times corpus-wide, so it survives the floor
        assert "wheat" in floored.key_terms["tfdf"].terms

    def test_filter_policy_drops_nonwordnet_terms(self, corpus, tmp_path, wordnet_dir):
        kept = run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir),
                                       wordnet_policy="annotate-only"))
        filtered = run_pipeline(config_for(corpus, tmp_path / "f",
                                           wordnet_dir=str(wordnet_dir),
                                           wordnet_policy="filter-nonwordnet"))
        assert filtered.rows[0].term_count < kept.rows[0].term_count

    def test_artifacts_written(self, corpus, tmp_path, wordnet_dir):
        result = run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir)))
        for key in ("metadata", "report.txt", "report.csv", "report.json",
                    "matrix_tfidf", "matrix_tfdf", "matrix_tf2",
                    "keyterms_tfidf", "keyterms_joint", "lexical_categories"):
            assert result.artifacts[key].exists(), key

    def test_metadata_written_even_on_minimal_run(self, corpus, tmp_path):
        result = run_pipeline(config_for(corpus, tmp_path, wordnet_policy="off"))
        assert result.artifacts["metadata"].exists()
        assert "lexical_categories" not in result.artifacts


class TestDeterminism:
    def read_all(self, out_dir):
        skip = {"metadata.json"}  # carries a timestamp
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name not in skip
        }

    def test_reports_byte_identical_across_runs(self, corpus, tmp_path, wordnet_dir):
        a = config_for(corpus, tmp_path / "a", wordnet_dir=str(wordnet_dir))
        b = config_for(corpus, tmp_path / "b", wordnet_dir=str(wordnet_dir))
        run_pipeline(a)
        run_pipeline(b)
        assert self.read_all(tmp_path / "a" / "out") == self.read_all(tmp_path / "b" / "out")

    @pytest.mark.parametrize("policy", ["off", "filter-nonwordnet"])
    def test_artifacts_do_not_follow_the_hash_seed(self, tmp_path, minicorpus_dir, wordnet_dir,
                                                   policy):
        # step 3 stems each document's new surface types in the order of a
        # set of strings, which the hash seed sets; one process has one seed
        src = Path(pipeline.__file__).resolve().parent.parent
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed-{seed}"
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from termsift.cli import main; sys.exit(main(sys.argv[1:]))",
                 "select", str(minicorpus_dir), "--layout", "class-subdirectories",
                 "--wordnet-dir", str(wordnet_dir), "--wordnet-policy", policy,
                 "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outputs.append(self.read_all(out))
        assert outputs[0] == outputs[1]
        assert ("lexical_categories.tsv" in outputs[0]) == (policy != "off")


class TestRecords:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # termsift is started once per corpus and setting, so its import is a
        # cost of every run: dataclasses alone pulls in inspect, ast and dis
        src = Path(pipeline.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import termsift.cli; "
             "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    @pytest.mark.parametrize("record, field", [
        (PipelineConfig(corpus_path="corpus"), "min_count"),
        (weighting.KeyTermSet("tfidf", 0.1, "max", frozenset({"wheat"}), 3), "terms"),
        (wordnet.LexEntry(frozenset({"noun.plant"})), "categories"),
    ])
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert record._replace(**{field: None})._asdict()[field] is None
