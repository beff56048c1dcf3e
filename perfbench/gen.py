"""Seeded input generator for the perfbench workloads.

Every input is derived from the in-repo Porter fixture vocabulary
(``tests/fixtures/porter/voc.txt``) and the bundled stop-word list, so
nothing is downloaded. The same seed always gives byte-identical files.

For each corpus the generator also writes ``tokens.tsv``: one line per
document, ``doc_id<TAB>class<TAB>token token ...``, listing exactly the
tokens the documented tokenizer must extract from that document (the
oracle in ``oracle.py`` starts from this record, not from the program).
For the WordNet database it writes ``lemmas.tsv``: every lemma a corpus
token could reach, with its part of speech and lexicographer categories.

Regenerate the inputs of one workload by hand with

    python3 perfbench/gen.py --workload zipf-select --seed 1 --out /tmp/zipf
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VOC = ROOT / "tests" / "fixtures" / "porter" / "voc.txt"
STOPWORDS = ROOT / "src" / "termsift" / "data" / "stopwords.txt"

sys.path.insert(0, str(ROOT / "tests"))
from wn_fixture import LEXNAMES, _data_line  # noqa: E402  (the fixture's data-line format)


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    classes: int
    layout: str  # "class-subdirectories" or "manifest-file"
    length_median: int  # tokens per document (log-normal around this)
    length_sigma: float
    distribution: str  # "zipf" or "uniform"
    stop_share: float  # share of tokens drawn from the stop-word list
    topic_share: float  # share of content tokens drawn from the class's own ranking


CORPORA = {
    "zipf-select": CorpusSpec(docs=500, classes=10, layout="class-subdirectories",
                              length_median=200, length_sigma=0.35, distribution="zipf",
                              stop_share=0.4, topic_share=0.25),
    "uniform-wide": CorpusSpec(docs=400, classes=6, layout="class-subdirectories",
                               length_median=150, length_sigma=0.3, distribution="uniform",
                               stop_share=0.3, topic_share=0.0),
    "wordnet-short": CorpusSpec(docs=2000, classes=20, layout="manifest-file",
                                length_median=24, length_sigma=0.4, distribution="zipf",
                                stop_share=0.35, topic_share=0.3),
    # Input of the known-faulty `weigh --min-count` operation. It is always
    # generated with FIXED_SEED, so that operation never depends on --seed.
    "weigh-fixed": CorpusSpec(docs=200, classes=4, layout="class-subdirectories",
                              length_median=60, length_sigma=0.3, distribution="uniform",
                              stop_share=0.3, topic_share=0.0),
}
FIXED_SEED = 0

# Sizes of WordNet 3.0 (lemmas in index.*, synsets in data.*).
WORDNET_SIZE = {"n": (117_798, 82_115), "v": (11_529, 13_767)}
# Share of fixture content words made lemmas of each part of speech.
WORDNET_FIXTURE_SHARE = {"n": 0.35, "v": 0.12}
WORDNET_HEADER = (
    "  1 This software and database is being provided to you, the LICENSEE.\n"
    "  2 WordNet 3.0 Copyright 2006 by Princeton University.  All rights reserved.\n"
    "  3 THIS SOFTWARE AND DATABASE IS PROVIDED \"AS IS\".\n"
    "  4 (synthetic database of WordNet 3.0 size, generated for benchmarking)\n"
)


def load_vocabulary() -> tuple[list[str], list[str]]:
    """Content words (fixture words that survive tokenizing and stop-word
    removal) and the purely alphabetic stop words, both sorted."""
    stops = {line.strip().lower() for line in STOPWORDS.read_text(encoding="utf-8").splitlines()
             if line.strip() and not line.startswith("#")}
    words = {w for w in VOC.read_text(encoding="utf-8").split()
             if len(w) >= 2 and w.isascii() and w.isalpha()}
    alpha_stops = sorted(s for s in stops if len(s) >= 2 and s.isascii() and s.isalpha())
    return sorted(words - stops), alpha_stops


def _zipf_cum_weights(n: int) -> list[float]:
    # Zipf-Mandelbrot with exponent 1.05 and offset 2.7, close to word
    # frequencies in English news text.
    acc, out = 0.0, []
    for r in range(n):
        acc += 1.0 / (r + 2.7) ** 1.05
        out.append(acc)
    return out


def _render(rng: random.Random, tokens: list[str]) -> str:
    """Document text whose tokenization is exactly ``tokens``: sentences with
    capitals and punctuation, plus numbers and one-letter words, which the
    tokenizer must drop."""
    parts = []
    for i, tok in enumerate(tokens):
        if i % 11 == 0:
            tok = tok.capitalize()
        parts.append(tok)
        r = rng.random()
        if r < 0.06:
            parts.append(str(rng.randint(1, 2000)))
        elif r < 0.09:
            parts.append(rng.choice("aix"))
        if i % 11 == 10:
            parts[-1] += rng.choice(".;!?")
        elif r > 0.97:
            parts[-1] += ","
    lines = [" ".join(parts[k:k + 14]) for k in range(0, len(parts), 14)]
    return "\n".join(lines) + "\n"


def make_corpus(spec: CorpusSpec, seed: int, out: Path) -> int:
    """Write one corpus and its token record under ``out``; return its raw token count."""
    rng = random.Random(seed)
    content, stops = load_vocabulary()
    global_rank = content[:]
    rng.shuffle(global_rank)
    topic_ranks = []
    for _ in range(spec.classes):
        ranking = content[:]
        rng.shuffle(ranking)
        topic_ranks.append(ranking)
    content_cum = _zipf_cum_weights(len(content))
    stop_rank = stops[:]
    rng.shuffle(stop_rank)
    stop_cum = _zipf_cum_weights(len(stops))

    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    manifest, record, raw_tokens = [], [], 0
    for d in range(spec.docs):
        label = f"class{d % spec.classes:02d}"
        length = max(3, int(rng.lognormvariate(math.log(spec.length_median), spec.length_sigma)))
        n_stop = sum(rng.random() < spec.stop_share for _ in range(length))
        n_topic = sum(rng.random() < spec.topic_share for _ in range(length - n_stop))
        n_global = length - n_stop - n_topic
        if spec.distribution == "zipf":
            drawn = (rng.choices(global_rank, cum_weights=content_cum, k=n_global)
                     + rng.choices(topic_ranks[d % spec.classes], cum_weights=content_cum,
                                   k=n_topic))
        else:
            drawn = rng.choices(content, k=n_global + n_topic)
        drawn += rng.choices(stop_rank, cum_weights=stop_cum, k=n_stop)
        rng.shuffle(drawn)
        name = f"d{d:05d}.txt"
        if spec.layout == "class-subdirectories":
            doc_id, path = f"{label}/{name}", corpus / label / name
        else:
            doc_id, path = f"w{d:05d}", corpus / "docs" / label / name
            manifest.append(f"{doc_id}\t{label}\tdocs/{label}/{name}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_render(rng, drawn), encoding="utf-8")
        record.append(f"{doc_id}\t{label}\t{' '.join(drawn)}")
        raw_tokens += len(drawn)
    if manifest:
        (corpus / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    (out / "tokens.tsv").write_text("\n".join(record) + "\n", encoding="utf-8")
    return raw_tokens


def _filler_lemma(rng: random.Random, content: list[str]) -> str:
    # Collocations joined by "_", as in WordNet; no corpus token can equal one.
    return "_".join(rng.sample(content, rng.choice((2, 2, 3))))


def make_wordnet(seed: int, out: Path) -> None:
    """Write a WordNet-3.0-sized database in the standard on-disk format.

    Fixture words become lemmas with categories drawn from the 45-entry
    lexnames table; collocation fillers bring the index and data files to
    WordNet 3.0's lemma and synset counts. Data lines are keyed by their
    byte offset, in the format of ``tests/wn_fixture.py``.
    """
    rng = random.Random(seed * 7919 + 17)
    content, _ = load_vocabulary()
    out.mkdir(parents=True)
    with open(out / "lexnames", "w", encoding="utf-8") as f:
        for num, name, cat in LEXNAMES:
            f.write(f"{num:02d}\t{name}\t{cat}\n")
    lexnames = {"n": [name for _, name, _ in LEXNAMES if name.startswith("noun.")],
                "v": [name for _, name, _ in LEXNAMES if name.startswith("verb.")]}

    record = []
    for pos, data_name, index_name in (("n", "data.noun", "index.noun"),
                                       ("v", "data.verb", "index.verb")):
        lemma_total, synset_total = WORDNET_SIZE[pos]
        real = rng.sample(content, int(len(content) * WORDNET_FIXTURE_SHARE[pos]))
        lemmas = set(real)
        while len(lemmas) < lemma_total:
            lemmas.add(_filler_lemma(rng, content))
        lemma_list = sorted(lemmas)
        rng.shuffle(lemma_list)
        categories = [rng.choice(lexnames[pos]) for _ in range(synset_total)]
        # Every synset gets one lemma; the remaining senses go to random
        # lemmas, so polysemous lemmas span several categories.
        members: list[list[str]] = [[] for _ in range(synset_total)]
        senses: dict[str, list[int]] = {lemma: [] for lemma in lemma_list}
        for s in range(synset_total):
            lemma = lemma_list[s % lemma_total]
            members[s].append(lemma)
            senses[lemma].append(s)
        for lemma in lemma_list[synset_total:]:
            s = rng.randrange(synset_total)
            members[s].append(lemma)
            senses[lemma].append(s)
        for lemma in rng.sample(lemma_list, lemma_total // 4):
            s = rng.randrange(synset_total)
            if s not in senses[lemma]:
                members[s].append(lemma)
                senses[lemma].append(s)
        hypernym = [rng.randrange(synset_total) if pos == "n" else None
                    for _ in range(synset_total)]
        glosses = [" ".join(rng.choices(content, k=rng.randint(4, 14)))
                   for _ in range(synset_total)]
        frames = ((8, 0),) if pos == "v" else ()

        # Offsets are fixed-width, so line lengths do not depend on them:
        # one pass sizes the lines, the second writes them with real offsets.
        offsets, cursor = [], len(WORDNET_HEADER.encode())
        for s in range(synset_total):
            offsets.append(cursor)
            hyper = 0 if hypernym[s] is not None else None
            cursor += len(_data_line(0, pos, categories[s], members[s], glosses[s], hyper,
                                     frames).encode())
        with open(out / data_name, "w", encoding="utf-8") as f:
            f.write(WORDNET_HEADER)
            for s in range(synset_total):
                hyper = offsets[hypernym[s]] if hypernym[s] is not None else None
                f.write(_data_line(offsets[s], pos, categories[s], members[s], glosses[s],
                                   hyper, frames))
        ptr_part = "1 @" if pos == "n" else "0"
        with open(out / index_name, "w", encoding="utf-8") as f:
            f.write(WORDNET_HEADER)
            for lemma in sorted(lemma_list):
                offs = sorted(offsets[s] for s in senses[lemma])
                f.write(f"{lemma} {pos} {len(offs)} {ptr_part} {len(offs)} 0 "
                        + " ".join(f"{o:08d}" for o in offs) + "  \n")
        for lemma in sorted(real):
            cats = sorted({categories[s] for s in senses[lemma]})
            record.append(f"{lemma}\t{pos}\t{','.join(cats)}")
    (out / "lemmas.tsv").write_text("\n".join(record) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> int:
    """Write the inputs of ``workload`` under ``out``; return the corpus's raw token count."""
    tokens = make_corpus(CORPORA[workload], seed, out)
    if workload == "wordnet-short":
        make_wordnet(seed, out / "wordnet")
    return tokens


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CORPORA), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="new directory to write into")
    args = parser.parse_args()
    tokens = generate(args.workload, args.seed, args.out)
    print(f"{args.workload} seed {args.seed}: {tokens} raw tokens under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
