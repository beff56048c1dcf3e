"""End-to-end key-term extraction run over one corpus.

Stage order is fixed: (1) tokenize into the raw term set, (2) remove
stopwords, (3) Porter-stem, (4) WordNet category annotation (skippable),
(5) global unique words + frequency floor, (6) the three weight matrices,
(7) threshold selection. Each stage is logged, so a run's log shows the
seven steps in order.

``extract_terms`` (steps 1-3) and ``build_vocabulary`` (4-5) run in sequence
under ``run_chain``, which every CLI subcommand that reads a corpus calls for a
prefix of the chain. ``weigh_schemes`` then takes one scheme at a time through
steps 6-7 and its export, which compute each weight from the index as they read
its cell, so no weight is stored.

``run_chain`` keeps what steps 1-3 yield in ``termsift.cache``, one entry per
corpus directory, keyed by everything those steps read: the source of the
modules they run (and of ``termsift.cache``), the stop-word set, and each
document's id and bytes. A run on an unchanged corpus reads the entry instead
of tokenizing and stemming.
"""

from __future__ import annotations

import hashlib
import logging
import marshal
import math
import os
import time
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import NamedTuple

from termsift import __version__, cache, porter, textprep, weighting, wordnet
from termsift import corpus as corpus_io
from termsift import report as report_mod
from termsift.porter import stem as porter_stem
from termsift.textprep import TermVector, remove_stopwords, tokenize

log = logging.getLogger("termsift.pipeline")

WORDNET_POLICIES = ("annotate-only", "filter-nonwordnet", "off")
LOG_BASES = {"e": math.e, "10": 10.0, "2": 2.0}
# Every file ``select`` writes, metadata.json first; ``weigh_schemes`` clears them.
OUTPUT_NAMES = ("metadata.json",
                *(f"matrix_{s}.{ext}" for s in weighting.SCHEMES for ext in ("csv", "triplets")),
                "report.txt", "report.csv", "report.json",
                *(f"keyterms_{s}.txt" for s in (*weighting.SCHEMES, "joint")),
                "lexical_categories.tsv")
_STEPS_1_TO_3 = ("step 1/7: extracting term sets (tokenization)",
                 "step 2/7: removing stop words",
                 "step 3/7: applying Porter stemming")
# The code steps 1-3 run: an edit to any of these files changes the cache key.
# All of pipeline.py is covered, though steps 4-7 live here too: extract_terms,
# its stage errors and the entry's payload shape are here, and extract_terms
# cannot move, since perfbench/child.py traces steps 1-3 by replacing tokenize,
# remove_stopwords and porter_stem by their names in this module.
_STEP_SOURCES = (Path(corpus_io.__file__), Path(textprep.__file__), Path(porter.__file__),
                 Path(__file__))


class PipelineConfig(NamedTuple):
    corpus_path: str
    layout: str = "flat"
    stopword_path: str | None = None  # bundled default list when None
    wordnet_dir: str | None = None
    wordnet_policy: str = "annotate-only"
    alpha: float = 0.028
    beta: float = 0.01
    gamma: float = 0.005
    aggregation: str = "max"
    log_base: str = "e"
    min_count: int = 1
    out_dir: str = "termsift-out"
    matrix_format: str = "coordinate-triplet"

    def validate(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"threshold {name} must be finite and >= 0, got {value}")
        if self.layout not in corpus_io.LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.wordnet_policy not in WORDNET_POLICIES:
            raise ValueError(f"unknown wordnet policy {self.wordnet_policy!r}")
        if self.aggregation not in weighting.AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.log_base not in LOG_BASES:
            raise ValueError(f"log base must be one of {sorted(LOG_BASES)}")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.matrix_format not in weighting.EXPORT_FORMATS:
            raise ValueError(f"unknown matrix format {self.matrix_format!r}")


class TermVectors(NamedTuple):
    """Steps 1-3: stem -> count per document, one surface -> stem map for
    the corpus, and each document's token count before stop-word removal."""

    vectors: list[TermVector]
    stem_of: dict[str, str]
    token_counts: list[int]


class PipelineResult:
    """What a run of the chain produced, filled in stage by stage by ``run_chain``;
    stages the run did not reach stay empty."""

    def __init__(self, stats: corpus_io.DatasetStats,
                 stopwords: corpus_io.StopwordList | None = None,
                 db: wordnet.WordNetDb | None = None):
        self.stats, self.stopwords, self.db = stats, stopwords, db
        self.terms: TermVectors | None = None  # kept only when the chain ends at step 3
        self.index: weighting.CorpusIndex | None = None  # kept until steps 6-7 read it
        self.annotations: dict[str, wordnet.LexEntry] = {}
        self.key_terms: dict[str, weighting.KeyTermSet] = {}  # per scheme
        self.joint: weighting.KeyTermSet | None = None
        self.rows: list[report_mod.ReductionRow] = []
        self.artifacts: dict[str, Path] = {}


@contextmanager
def _stage_errors(name: str):
    """Prefix any stage failure with the stage name, keeping the exception type."""
    try:
        yield
    except Exception as exc:
        message = f"stage {name}: {exc}"
        if isinstance(exc, OSError) and exc.errno is not None:
            # such an OSError prints its errno, strerror and filename, not its args
            raise type(exc)(message) from exc
        exc.args = (message,)
        raise


def extract_terms(documents: tuple[corpus_io.Document, ...],
                  stopwords: corpus_io.StopwordList, key=None) -> TermVectors:
    """Steps 1-3: read, tokenize, drop stop words (matched on surface forms), stem.

    Each document is read and goes through all three steps before the next,
    so only one document's text and tokens exist at a time; the three step lines
    are logged before the first document. The stemmer is a pure function
    of the word, so a document stems only the surface types no earlier
    one had, into the surface -> stem map step 4 groups per stem. Given a
    corpus cache ``key``, each document's id and bytes go into it as read."""
    for line in _STEPS_1_TO_3:
        log.info(line)
    stem_of: dict[str, str] = {}
    vectors: list[TermVector] = []
    token_counts: list[int] = []
    for doc in documents:
        with _stage_errors("load_corpus"):
            data = doc.read_bytes()
        if key is not None:
            _add_document(key, doc.doc_id, data)
        tokens = tokenize(doc.decode(data))
        token_counts.append(len(tokens))
        tokens = remove_stopwords(tokens, stopwords)
        for token in set(tokens).difference(stem_of):
            stem_of[token] = porter_stem(token)
        # a plain dict: the interpreter specialises row subscripts only on exact dicts
        counts = dict(Counter(map(stem_of.__getitem__, tokens)))
        vectors.append(TermVector(doc_id=doc.doc_id, counts=counts))
    return TermVectors(vectors=vectors, stem_of=stem_of, token_counts=token_counts)


def _cached_terms(config: PipelineConfig, documents: tuple[corpus_io.Document, ...],
                  stopwords: corpus_io.StopwordList) -> TermVectors:
    """Steps 1-3 through the cache: the entry of the corpus directory when it
    was written under the same key, else ``extract_terms``, whose result is
    then written. The payload is ``marshal.dumps((one stem -> count dict per
    document, the surface -> stem dict, one token count per document))``.

    The key covers each document's bytes, so telling a hit needs them all
    before step 1. A miss then reads each document again in
    ``extract_terms``, and its entry is keyed by the bytes of that second
    read, the ones its terms came from: a document edited between the two
    reads is saved under its new content, never its old. With no entry file
    there is nothing to hit, so the first pass is skipped."""
    root = Path(config.corpus_path)
    entry = cache.keyed_entry("corpus", root, _STEP_SOURCES)
    if entry is None:
        return extract_terms(documents, stopwords)
    path, key = entry  # then the stop words, and each document's id and bytes
    key.update(len(stopwords).to_bytes(8, "little"))
    for word in sorted(stopwords.words):
        _add_text(key, word)
    if os.path.isfile(path):  # Path.is_file raises on EACCES before Python 3.12
        probe = key.copy()
        with _stage_errors("load_corpus"):
            for doc in documents:
                _add_document(probe, doc.doc_id, doc.read_bytes())
        value = cache.load(path, probe.digest())
        if value is not None:
            for line in _STEPS_1_TO_3:
                log.info(line)
            log.info("steps 1-3 read from the cache entry %s", path)
            rows, stem_of, token_counts = value
            return TermVectors([TermVector(doc.doc_id, counts)
                                for doc, counts in zip(documents, rows)],
                               stem_of, token_counts)
    terms = extract_terms(documents, stopwords, key)
    cache.save(path, key.digest(), root, marshal.dumps(([v.counts for v in terms.vectors],
                                                        terms.stem_of, terms.token_counts)))
    return terms


def _add_text(key, text: str) -> None:
    data = text.encode("utf-8", "surrogatepass")  # ids from file names may hold surrogates
    key.update(len(data).to_bytes(8, "little"))
    key.update(data)


def _add_document(key, doc_id: str, data: bytes) -> None:
    _add_text(key, doc_id)
    key.update(hashlib.sha256(data).digest())


def build_vocabulary(terms: TermVectors, db: wordnet.WordNetDb | None, config: PipelineConfig
                     ) -> tuple[weighting.CorpusIndex, dict[str, wordnet.LexEntry]]:
    """Steps 4-5: WordNet annotation (and filtering), then the frequency floor.

    A term's corpus total does not depend on other terms, so the two filters
    commute: ``build_index`` restricts the vectors once, to the terms both keep."""
    annotations: dict[str, wordnet.LexEntry] = {}
    keep: set[str] | None = None
    if db is not None:
        log.info(f"step 4/7: WordNet lexical-category annotation (policy={config.wordnet_policy})")
        surfaces: dict[str, list[str]] = {}
        for token, stem in terms.stem_of.items():
            surfaces.setdefault(stem, []).append(token)
        categorised, annotations = wordnet.annotate_terms(db, surfaces)
        del surfaces  # the index built below does not read them
        if config.wordnet_policy == "filter-nonwordnet":
            keep = categorised
        log.info("vocabulary: %d terms before WordNet step, %d after",
                 len(annotations), len(annotations if keep is None else keep))
    else:
        log.info("step 4/7 skipped (wordnet off)")

    log.info("step 5/7: global unique words and frequency floor")
    if config.min_count > 1:
        frequent = weighting.frequent_terms(terms.vectors, config.min_count)
        keep = frequent if keep is None else keep & frequent
    with _stage_errors("build_index"):
        index = weighting.build_index(terms.vectors, keep)
    return index, annotations


def _dataset_name(corpus_path: str) -> str:
    """The name of the directory ``corpus_path`` reaches, also of ``.`` and
    ``a/..``: the last component of the path as written, unless that path
    reaches another directory (``link/..`` is the parent of the link's
    target), which is then named by its resolved path. A symlinked corpus
    keeps its own name."""
    lexical = os.path.abspath(corpus_path)
    if os.path.exists(lexical) and os.path.samefile(lexical, corpus_path):
        return os.path.basename(lexical)
    return os.path.basename(os.path.realpath(corpus_path))


def run_chain(config: PipelineConfig, last_step: int = 5) -> PipelineResult:
    """Validate ``config`` and run the chain through ``last_step``: 1 (the corpus
    summary's token counts), 3 (the term vectors) or 5 (the floored index that
    ``weigh_schemes`` reads). A prefix loads only the inputs it uses."""
    config.validate()
    with _stage_errors("load_corpus"):
        corpus = corpus_io.load_corpus(config.corpus_path, config.layout)
    name = _dataset_name(config.corpus_path)
    if last_step == 1:
        with _stage_errors("load_corpus"):
            token_counts = [len(tokenize(d.read())) for d in corpus]
        return PipelineResult(stats=corpus_io.corpus_summary(name, corpus, token_counts))

    with _stage_errors("load_stopwords"):
        if config.stopword_path is not None:
            stopwords = corpus_io.load_stopwords(config.stopword_path)
        else:
            stopwords = corpus_io.default_stopwords()
    log.info("loaded corpus %s: %d documents; stopword list: %d words, %d of which "
             "can never match a token", name, len(corpus), len(stopwords),
             sum(not textprep.is_token(word) for word in stopwords.words))
    db = None
    if last_step == 5 and config.wordnet_policy != "off":
        if config.wordnet_dir is None:
            log.warning("no WordNet directory configured; step 4 will be skipped "
                        "(wordnet-policy is effectively 'off')")
        else:
            with _stage_errors("load_wordnet"):
                db = wordnet.load_wordnet(config.wordnet_dir)
            log.info("loaded WordNet %s: %d lemmas, %d synsets",
                     db.version, db.lemma_count, db.synset_count)

    terms = _cached_terms(config, corpus, stopwords)
    result = PipelineResult(stats=corpus_io.corpus_summary(name, corpus, terms.token_counts),
                            stopwords=stopwords, db=db)
    del corpus  # steps 4-5 read no document
    if last_step == 3:
        result.terms = terms
    else:
        result.index, result.annotations = build_vocabulary(terms, db, config)
    return result


def weigh_schemes(index: weighting.CorpusIndex, config: PipelineConfig,
                  schemes: tuple[str, ...] = weighting.SCHEMES, select: bool = False
                  ) -> tuple[dict[str, weighting.KeyTermSet], dict[str, Path]]:
    """Steps 6-7 and the matrix exports, one scheme at a time: take its weight
    formula over ``index``, with ``select`` pick its key terms against its
    threshold, and export its matrix to ``matrix_<scheme>.<ext>`` (restricted to
    those key terms). Returns the key-term sets and the paths.

    Before the first export it removes ``OUTPUT_NAMES`` (only ``metadata.json``
    without ``select``) from ``out_dir``, so a directory that holds a
    ``metadata.json`` holds just the artifacts of the run it describes."""
    config.validate()
    if schemes == weighting.SCHEMES:
        log.info("step 6/7: computing tf-idf, tf-df and tf2 weight matrices")
    else:
        log.info(f"step 6/7: computing the {', '.join(schemes)} weight matrix")
    if select:
        log.info("step 7/7: selecting key terms against the thresholds")
    thresholds = {"tfidf": config.alpha, "tfdf": config.beta, "tf2": config.gamma}
    base = LOG_BASES[config.log_base]
    out_dir = Path(config.out_dir)
    ext = "csv" if config.matrix_format == "csv" else "triplets"
    key_terms: dict[str, weighting.KeyTermSet] = {}
    paths: dict[str, Path] = {}
    with _stage_errors("write_outputs"):
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in OUTPUT_NAMES if select else OUTPUT_NAMES[:1]:
            # a directory is no artifact; an export onto it fails by itself
            with suppress(FileNotFoundError, IsADirectoryError):
                (out_dir / name).unlink()
    for scheme in schemes:
        with _stage_errors("compute_matrices"):
            matrix = weighting.compute_matrix(index, scheme, log_base=base)
        if select:
            key_terms[scheme] = weighting.select_key_terms(
                matrix, thresholds[scheme], config.aggregation)
        path = paths[f"matrix_{scheme}"] = out_dir / f"matrix_{scheme}.{ext}"
        with _stage_errors("write_outputs"):
            weighting.export_matrix(matrix, path, fmt=config.matrix_format,
                                    key_terms=key_terms.get(scheme))
    return key_terms, paths


def run_weigh(config: PipelineConfig, scheme: str) -> Path:
    """Steps 1-6 for one scheme and its whole matrix's export; returns the file.

    No annotation reaches a matrix, so ``annotate-only`` runs as ``off``, and
    WordNet is loaded only to filter."""
    if config.wordnet_policy == "annotate-only":
        config = config._replace(wordnet_policy="off")
    _, paths = weigh_schemes(run_chain(config).index, config, (scheme,))
    return paths[f"matrix_{scheme}"]


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """The whole chain, then the reduction reports and every artifact in ``out_dir``:
    the matrices, then the reports and lists, and ``metadata.json`` last."""
    result = run_chain(config)
    result.key_terms, result.artifacts = weigh_schemes(result.index, config, select=True)
    result.index = None  # nothing after step 7 reads it
    result.joint = weighting.select_joint(result.key_terms)
    result.rows = [
        report_mod.ReductionRow(result.stats.name, kd.scheme, kd.threshold, kd.vocabulary_size,
                                len(kd.terms), kd.removed_pct)
        for kd in [*result.key_terms.values(), result.joint]
    ]
    with _stage_errors("write_outputs"):
        result.artifacts.update(_write_outputs(config, result))
    return result


def _write_outputs(config: PipelineConfig, result: PipelineResult) -> dict[str, Path]:
    """Every artifact but the matrices, each through ``weighting.replacing``;
    ``metadata.json`` goes last, so no run that failed before it has one."""
    out_dir = Path(config.out_dir)
    artifacts: dict[str, Path] = {}

    def write(key: str, filename: str, text: str) -> None:
        path = artifacts[key] = out_dir / filename
        with weighting.replacing(path) as f:
            f.write(text)

    for fmt, filename in (("plain-text", "report.txt"), ("csv", "report.csv"),
                          ("json", "report.json")):
        write(filename, filename, report_mod.render_tables(result.rows, [result.stats], fmt))

    for kd in [*result.key_terms.values(), result.joint]:
        write(f"keyterms_{kd.scheme}", f"keyterms_{kd.scheme}.txt",
              "\n".join(sorted(kd.terms)) + "\n")

    if result.annotations:
        lines = [
            f"{term}\t{','.join(sorted(entry.categories)) or '-'}"
            for term, entry in sorted(result.annotations.items())
        ]
        write("lexical_categories", "lexical_categories.tsv", "\n".join(lines) + "\n")

    stopwords, db = result.stopwords, result.db
    meta = report_mod.RunMetadata(
        stopword_count=len(stopwords),
        stopword_sha256=stopwords.sha256,
        wordnet_version=db.version if db is not None else "none",
        wordnet_policy=config.wordnet_policy if db is not None else "off",
        log_base=config.log_base,
        aggregation=config.aggregation,
        alpha=config.alpha,
        beta=config.beta,
        gamma=config.gamma,
        min_count=config.min_count,
        tool_version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    write("metadata", "metadata.json", report_mod.emit_metadata(meta))
    return artifacts
