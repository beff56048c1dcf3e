"""End-to-end key-term extraction run over one corpus.

Stage order is fixed: (1) tokenize into the raw term set, (2) remove
stopwords, (3) Porter-stem, (4) WordNet category annotation (skippable),
(5) global unique words + frequency floor, (6) the three weight matrices,
(7) threshold selection. Each stage is logged, so a run's log shows the
seven steps in order.

``extract_terms`` (steps 1-3), ``build_vocabulary`` (4-5), ``compute_weights``
(6) and ``select_terms`` (7) run in sequence under ``run_chain``, which
every CLI subcommand that reads a corpus calls for a prefix of the chain.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from termsift import __version__
from termsift import corpus as corpus_io
from termsift import report as report_mod
from termsift import weighting, wordnet
from termsift.porter import stem as porter_stem
from termsift.textprep import TermVector, remove_stopwords, tokenize

log = logging.getLogger("termsift.pipeline")

WORDNET_POLICIES = ("annotate-only", "filter-nonwordnet", "off")
LOG_BASES = {"e": math.e, "10": 10.0, "2": 2.0}


@dataclass
class PipelineConfig:
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
        weighting.Thresholds(self.alpha, self.beta, self.gamma)
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


@dataclass
class TermVectors:
    """Steps 1-3: stemmed counts per document, stem -> surface forms, and
    each document's token count before stop-word removal."""

    vectors: list[TermVector]
    originals: dict[str, set[str]]
    token_counts: list[int]


@dataclass
class PipelineResult:
    """What a run of the chain produced; stages the run did not reach stay empty."""

    stats: corpus_io.DatasetStats
    stopwords: corpus_io.StopwordList | None = None
    db: wordnet.WordNetDb | None = None
    terms: TermVectors | None = None  # kept only when the chain ends at step 3
    index: weighting.CorpusIndex | None = None
    annotations: dict[str, wordnet.LexEntry] = field(default_factory=dict)
    matrices: dict[str, weighting.WeightMatrix] = field(default_factory=dict)
    key_terms: dict[str, weighting.KeyTermSet] = field(default_factory=dict)  # per scheme
    joint: weighting.KeyTermSet | None = None
    rows: list[report_mod.ReductionRow] = field(default_factory=list)
    artifacts: dict[str, Path] = field(default_factory=dict)


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


def extract_terms(corpus: corpus_io.DocumentSet, stopwords: corpus_io.StopwordList) -> TermVectors:
    """Steps 1-3: tokenize, drop stop words (matched on surface forms), stem.

    The stemmer is a pure function of the word, so each distinct surface
    token is stemmed once per call and the result reused."""
    log.info("step 1/7: extracting term sets (tokenization)")
    tokenized = [tokenize(d.text) for d in corpus]
    token_counts = [len(tokens) for tokens in tokenized]

    log.info("step 2/7: removing stop words")
    tokenized = [remove_stopwords(tokens, stopwords) for tokens in tokenized]

    log.info("step 3/7: applying Porter stemming")
    stem_of: dict[str, str] = {}
    vectors: list[TermVector] = []
    for doc, tokens in zip(corpus, tokenized):
        counts: dict[str, int] = {}
        for token, n in Counter(tokens).items():
            if token not in stem_of:
                stem_of[token] = porter_stem(token)
            s = stem_of[token]
            counts[s] = counts.get(s, 0) + n
        vectors.append(TermVector(doc_id=doc.doc_id, counts=counts, total=len(tokens)))
    originals: dict[str, set[str]] = {}
    for token, s in stem_of.items():
        originals.setdefault(s, set()).add(token)
    return TermVectors(vectors=vectors, originals=originals, token_counts=token_counts)


def build_vocabulary(terms: TermVectors, db: wordnet.WordNetDb | None, config: PipelineConfig
                     ) -> tuple[weighting.CorpusIndex, dict[str, wordnet.LexEntry]]:
    """Steps 4-5: WordNet annotation (and filtering), then the frequency floor."""
    vectors = terms.vectors
    annotations: dict[str, wordnet.LexEntry] = {}
    if db is not None:
        log.info(f"step 4/7: WordNet lexical-category annotation (policy={config.wordnet_policy})")
        before = len({t for v in vectors for t in v.counts})
        vectors, annotations = wordnet.annotate_terms(
            db, vectors, terms.originals, policy=config.wordnet_policy
        )
        after = len({t for v in vectors for t in v.counts})
        log.info("vocabulary: %d terms before WordNet step, %d after", before, after)
    else:
        log.info("step 4/7 skipped (wordnet off)")

    log.info("step 5/7: global unique words and frequency floor")
    if config.min_count > 1:
        frequent = weighting.frequent_terms(vectors, config.min_count)
        vectors = [
            TermVector(
                doc_id=v.doc_id,
                counts={t: c for t, c in v.counts.items() if t in frequent},
                total=sum(c for t, c in v.counts.items() if t in frequent),
            )
            for v in vectors
        ]
    with _stage_errors("build_index"):
        index = weighting.build_index(vectors)
    return index, annotations


def compute_weights(index: weighting.CorpusIndex, config: PipelineConfig,
                    schemes=weighting.SCHEMES) -> dict[str, weighting.WeightMatrix]:
    """Step 6: one weight matrix per requested scheme."""
    if schemes == weighting.SCHEMES:
        log.info("step 6/7: computing tf-idf, tf-df and tf2 weight matrices")
    else:
        log.info(f"step 6/7: computing the {', '.join(schemes)} weight matrix")
    base = LOG_BASES[config.log_base]
    with _stage_errors("compute_matrices"):
        return {s: weighting.compute_matrix(index, s, log_base=base) for s in schemes}


def select_terms(matrices: dict[str, weighting.WeightMatrix], config: PipelineConfig
                 ) -> tuple[dict[str, weighting.KeyTermSet], weighting.KeyTermSet]:
    """Step 7: key terms per scheme against its threshold, and the joint set."""
    log.info("step 7/7: selecting key terms against the thresholds")
    thresholds = weighting.Thresholds(config.alpha, config.beta, config.gamma)
    agg = config.aggregation
    key_terms = {
        s: weighting.select_key_terms(m, thresholds.for_scheme(s), agg)
        for s, m in matrices.items()
    }
    return key_terms, weighting.select_joint(matrices.values(), key_terms)


def run_chain(config: PipelineConfig, last_step: int = 7,
              schemes=weighting.SCHEMES) -> PipelineResult:
    """Validate ``config`` and run the chain through ``last_step``: 1 (the corpus
    summary's token counts), 3, 6 or 7. A prefix loads only the inputs it uses;
    ``schemes`` limits step 6 to the matrices a caller exports."""
    config.validate()
    with _stage_errors("load_corpus"):
        corpus = corpus_io.load_corpus(config.corpus_path, config.layout)
    if last_step == 1:
        token_counts = [len(tokenize(d.text)) for d in corpus]
        return PipelineResult(stats=corpus_io.corpus_summary(corpus, token_counts))

    with _stage_errors("load_stopwords"):
        if config.stopword_path is not None:
            stopwords = corpus_io.load_stopwords(config.stopword_path)
        else:
            stopwords = corpus_io.default_stopwords()
    log.info("loaded corpus %s: %d documents; stopword list: %d words",
             corpus.name, len(corpus), len(stopwords))
    db = None
    # a prefix ending at step 6 drops the annotations, so only a filter needs WordNet there
    if (last_step == 7 and config.wordnet_policy != "off"
            or last_step == 6 and config.wordnet_policy == "filter-nonwordnet"):
        if config.wordnet_dir is None:
            log.warning("no WordNet directory configured; step 4 will be skipped "
                        "(wordnet-policy is effectively 'off')")
        else:
            with _stage_errors("load_wordnet"):
                db = wordnet.load_wordnet(config.wordnet_dir)
            log.info("loaded WordNet %s: %d lemmas, %d synsets",
                     db.version, db.lemma_count, db.synset_count)

    terms = extract_terms(corpus, stopwords)
    result = PipelineResult(stats=corpus_io.corpus_summary(corpus, terms.token_counts),
                            stopwords=stopwords, db=db)
    if last_step == 3:
        result.terms = terms
        return result
    result.index, result.annotations = build_vocabulary(terms, db, config)
    del terms  # the floored index replaces the step-3 vectors and surface forms
    result.matrices = compute_weights(result.index, config, schemes)
    if last_step == 6:
        return result
    result.key_terms, result.joint = select_terms(result.matrices, config)
    return result


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """The whole chain, then the reduction reports and every artifact in ``out_dir``."""
    result = run_chain(config)
    result.rows = [
        report_mod.make_reduction_row(result.stats.name, s, kd.threshold, result.index, kd)
        for s, kd in [*result.key_terms.items(), ("joint", result.joint)]
    ]
    with _stage_errors("write_outputs"):
        result.artifacts = _write_outputs(config, result)
    return result


def export_weights(out_dir: Path, matrices: dict[str, weighting.WeightMatrix], fmt: str,
                   key_terms: dict[str, weighting.KeyTermSet] | None = None) -> dict[str, Path]:
    """Write ``matrix_<scheme>.<ext>`` per matrix, restricted to ``key_terms`` if given."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "triplets"
    artifacts: dict[str, Path] = {}
    for scheme, matrix in matrices.items():
        path = out_dir / f"matrix_{scheme}.{ext}"
        weighting.export_matrix(matrix, path, fmt=fmt,
                                key_terms=None if key_terms is None else key_terms[scheme])
        artifacts[f"matrix_{scheme}"] = path
    return artifacts


def _write_outputs(config: PipelineConfig, result: PipelineResult) -> dict[str, Path]:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stopwords, db = result.stopwords, result.db
    artifacts: dict[str, Path] = {}
    # metadata goes first: no report counts as final without it
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
    meta_path = out_dir / "metadata.json"
    meta_path.write_text(report_mod.emit_metadata(meta), encoding="utf-8")
    artifacts["metadata"] = meta_path

    for fmt, filename in (("plain-text", "report.txt"), ("csv", "report.csv"),
                          ("json", "report.json")):
        path = out_dir / filename
        path.write_text(report_mod.render_tables(result.rows, [result.stats], fmt),
                        encoding="utf-8")
        artifacts[filename] = path

    artifacts.update(export_weights(out_dir, result.matrices, config.matrix_format,
                                    key_terms=result.key_terms))

    for name, kd in list(result.key_terms.items()) + [("joint", result.joint)]:
        path = out_dir / f"keyterms_{name}.txt"
        path.write_text("\n".join(sorted(kd.terms)) + "\n", encoding="utf-8")
        artifacts[f"keyterms_{name}"] = path

    if result.annotations:
        path = out_dir / "lexical_categories.tsv"
        lines = [
            f"{term}\t{','.join(sorted(entry.categories)) or '-'}"
            for term, entry in sorted(result.annotations.items())
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        artifacts["lexical_categories"] = path
    return artifacts
