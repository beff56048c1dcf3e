import logging
from collections import Counter

import pytest

from termsift import corpus as corpus_io
from termsift import pipeline, porter, wordnet
from termsift.corpus import DocumentSet, RawDocument, StopwordList
from termsift.pipeline import PipelineConfig, extract_terms, run_chain, run_pipeline

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


def config_for(corpus, tmp_path, **kw):
    return PipelineConfig(corpus_path=str(corpus), out_dir=str(tmp_path / "out"), **kw)


def extract(*docs, stopwords=SW):
    return extract_terms(DocumentSet(name="c", documents=docs), stopwords)


class TestExtractTerms:
    """Steps 1-3 through ``extract_terms``."""

    def test_document_vector(self):
        terms = extract(RawDocument("d1", "The running dogs and the jumping dogs."))
        (v,) = terms.vectors
        assert v.doc_id == "d1"
        assert v.counts == {"run": 1, "dog": 2, "jump": 1}
        assert v.total == 4

    def test_total_is_count_sum(self):
        (v,) = extract(RawDocument("d", "wheat wheat barley the of and")).vectors
        assert v.total == sum(v.counts.values()) == 3

    def test_corpus_surface_map(self):
        terms = extract(RawDocument("a", "ponies run"), RawDocument("b", "pony runs"))
        assert len(terms.vectors) == 2
        assert terms.originals["poni"] == {"ponies", "pony"}
        assert terms.originals["run"] == {"run", "runs"}

    def test_vectors_independent_of_other_documents(self):
        docs = [RawDocument(f"d{i}", f"harvest market grain grain x{i}ing") for i in range(4)]
        together = extract(*docs).vectors
        assert together == [extract(doc).vectors[0] for doc in docs]

    def test_stopword_matching_is_on_surface_forms(self):
        # "running" is not a stopword even if "run" were one: matching happens
        # before stemming, on the surface token
        sw = StopwordList(words=frozenset({"run"}))
        (v,) = extract(RawDocument("d", "run running"), stopwords=sw).vectors
        assert v.counts == {"run": 1}  # the stem of "running"

    def test_empty_document_allowed(self):
        (v,) = extract(RawDocument("d", "the of and")).vectors
        assert v.counts == {}
        assert v.total == 0

    def test_token_counts_are_taken_before_stopword_removal(self):
        terms = extract(RawDocument("a", "the of and"), RawDocument("b", "wheat a 7 x barley"))
        assert terms.token_counts == [3, 2]

    def test_each_surface_token_is_stemmed_once(self, monkeypatch):
        calls = Counter()

        def counting_stem(word):
            calls[word] += 1
            return porter.stem(word)

        monkeypatch.setattr(pipeline, "porter_stem", counting_stem)
        terms = extract(RawDocument("a", "ponies run runs ponies"),
                        RawDocument("b", "pony runs the run"),
                        RawDocument("c", "ponies ponies pony"))
        assert calls == {"ponies": 1, "run": 1, "runs": 1, "pony": 1}
        assert [v.counts for v in terms.vectors] == [
            {"poni": 2, "run": 2}, {"poni": 1, "run": 2}, {"poni": 3}]
        assert [v.total for v in terms.vectors] == [4, 3, 3]
        assert terms.originals == {"poni": {"ponies", "pony"}, "run": {"run", "runs"}}


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

    def test_negative_threshold(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(config_for(corpus, tmp_path, alpha=-1.0))

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
                                                   monkeypatch):
        def unused(*_):
            raise AssertionError("loaded WordNet for annotations step 6 drops")

        config = config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir),
                            wordnet_policy="annotate-only")
        annotated = run_chain(config, last_step=7)
        assert annotated.db is not None and annotated.annotations
        monkeypatch.setattr(wordnet, "load_wordnet", unused)
        result = run_chain(config, last_step=6)
        assert result.db is None
        assert result.matrices == annotated.matrices

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

    def test_step_six_computes_only_the_requested_schemes(self, corpus, tmp_path):
        result = run_chain(config_for(corpus, tmp_path), last_step=6, schemes=("tf2",))
        assert list(result.matrices) == ["tf2"]
        assert not result.key_terms and not (tmp_path / "out").exists()


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

    def test_vocab_before_after_logged(self, corpus, tmp_path, wordnet_dir, caplog):
        with caplog.at_level(logging.INFO, logger="termsift.pipeline"):
            run_pipeline(config_for(corpus, tmp_path, wordnet_dir=str(wordnet_dir)))
        assert any("before WordNet" in m for m in caplog.messages)


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
        from termsift.report import check_row

        result = run_pipeline(config_for(corpus, tmp_path))
        assert len(result.rows) == 4
        for row in result.rows:
            assert check_row(row)

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
