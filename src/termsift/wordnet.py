"""Parser for the WordNet on-disk database and lexical-category lookup.

Reads the standard text format (``index.noun``, ``data.noun``,
``index.verb``, ``data.verb``, ``lexnames``) exactly as distributed:
space-delimited fields, license header lines beginning with two spaces,
and data lines keyed by their byte offset within the file. Only the noun
and verb parts of speech are loaded, which yields the 41 lexicographer
categories (26 noun.* + 15 verb.*).

The load keeps only what lookup reads: each lemma's set of category
names. Every line is still checked, and a bad one raises naming its
file and line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from termsift.errors import WordNetFormatError
from termsift.textprep import TermVector

REQUIRED_FILES = ("index.noun", "data.noun", "index.verb", "data.verb", "lexnames")

_VERSION_RE = re.compile(r"WordNet\s+(\d+\.\d+)")
_NO_CATEGORIES: frozenset[str] = frozenset()

# Morphological detachment rules (suffix, replacement), tried in order.
_NOUN_RULES = (
    ("s", ""),
    ("ses", "s"),
    ("xes", "x"),
    ("zes", "z"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("men", "man"),
    ("ies", "y"),
)
_VERB_RULES = (
    ("s", ""),
    ("ies", "y"),
    ("es", "e"),
    ("es", ""),
    ("ed", "e"),
    ("ed", ""),
    ("ing", "e"),
    ("ing", ""),
)


@dataclass(frozen=True)
class LexEntry:
    lemma: str
    categories: frozenset[str]

    @property
    def in_wordnet(self) -> bool:
        return bool(self.categories)


@dataclass(frozen=True)
class WordNetDb:
    noun: dict[str, frozenset[str]]  # lemma -> category names of its noun synsets
    verb: dict[str, frozenset[str]]
    synset_count: int
    version: str

    @property
    def lemma_count(self) -> int:
        return len(self.noun) + len(self.verb)


def _parse_lexnames(path: Path) -> dict[int, str]:
    table: dict[int, str] = {}
    with path.open("rb") as f:
        for lineno, raw in enumerate(f, 1):
            if not raw.strip():
                continue
            try:
                fields = raw.decode("utf-8").split()
                table[int(fields[0])] = fields[1]
            except (IndexError, ValueError) as exc:
                raise WordNetFormatError(f"{path}:{lineno}: malformed lexnames line: {exc}") from exc
    return table


def _parse_data(path: Path, pos: str, lexnames: dict[int, str]) -> tuple[dict[int, str], str]:
    """Synset byte offset -> category name, and the version in the header."""
    categories: dict[int, str] = {}
    version = ""
    ss_type = pos.encode()
    byte_pos = 0
    with path.open("rb") as f:
        for lineno, raw in enumerate(f, 1):
            line_start = byte_pos
            byte_pos += len(raw)
            if raw.startswith(b"  "):
                m = _VERSION_RE.search(raw.decode("utf-8", errors="replace"))
                if m and not version:
                    version = m.group(1)
                continue
            # offset, lex_filenum, ss_type, w_cnt, then the words and the rest
            fields = raw.split(None, 4)
            try:
                offset = int(fields[0])
                if offset != line_start:
                    raise ValueError(f"synset offset {offset} != byte offset {line_start}")
                lex_filenum = int(fields[1])
                if fields[2] != ss_type:
                    raise ValueError(f"synset type {fields[2].decode(errors='replace')!r}, "
                                     f"expected {pos!r}")
                w_cnt = int(fields[3], 16)
                if w_cnt < 1:
                    raise ValueError("synset with no words")
                # each word is followed by its lex_id, so word i is field 2 * i
                if len(fields) < 5 or len(fields[4].split(None, 2 * w_cnt - 2)) < 2 * w_cnt - 1:
                    raise ValueError(f"fewer word fields than the {w_cnt} words declared")
                if lex_filenum not in lexnames:
                    raise ValueError(f"lexicographer file {lex_filenum} absent from lexnames")
            except (IndexError, ValueError) as exc:
                raise WordNetFormatError(f"{path}:{lineno}: malformed data line: {exc}") from exc
            categories[offset] = lexnames[lex_filenum]
    return categories, version


def _parse_index(path: Path, pos: str, categories: dict[int, str],
                 interned: dict[frozenset[str], frozenset[str]]) -> dict[str, frozenset[str]]:
    """Lemma -> category names of its synsets; equal sets share one object via ``interned``."""
    index: dict[str, frozenset[str]] = {}
    with path.open("rb") as f:
        for lineno, raw in enumerate(f, 1):
            if raw.startswith(b" "):
                continue
            try:
                fields = raw.decode("utf-8").split()
                lemma = fields[0]
                if fields[1] != pos:
                    raise ValueError(f"part of speech {fields[1]!r}, expected {pos!r}")
                synset_cnt = int(fields[2])
                p_cnt = int(fields[3])
                offsets = [int(o) for o in fields[6 + p_cnt:]]
                if len(offsets) != synset_cnt:
                    raise ValueError(f"{synset_cnt} synsets declared, {len(offsets)} offsets given")
            except (IndexError, ValueError) as exc:
                raise WordNetFormatError(f"{path}:{lineno}: malformed index line: {exc}") from exc
            try:
                cats = frozenset([categories[o] for o in offsets])
            except KeyError as exc:
                raise WordNetFormatError(f"{path}:{lineno}: lemma {lemma!r} references unknown "
                                         f"synset offset {exc.args[0]}") from exc
            index[lemma] = interned.setdefault(cats, cats)
    return index


def load_wordnet(directory: str | Path) -> WordNetDb:
    """Parse a WordNet database directory into lemma -> categories maps.

    Fails fast: a missing file or a malformed line raises, never a
    partially loaded database.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"WordNet directory not found: {root}")
    for name in REQUIRED_FILES:
        if not (root / name).is_file():
            raise FileNotFoundError(f"missing WordNet database file: {root / name}")

    lexnames = _parse_lexnames(root / "lexnames")
    noun_synsets, version_n = _parse_data(root / "data.noun", "n", lexnames)
    verb_synsets, version_v = _parse_data(root / "data.verb", "v", lexnames)
    interned: dict[frozenset[str], frozenset[str]] = {}
    return WordNetDb(
        noun=_parse_index(root / "index.noun", "n", noun_synsets, interned),
        verb=_parse_index(root / "index.verb", "v", verb_synsets, interned),
        synset_count=len(noun_synsets) + len(verb_synsets),
        version=version_n or version_v or "unknown",
    )


def _categories_for(db: WordNetDb, word: str) -> frozenset[str]:
    return db.noun.get(word, _NO_CATEGORIES) | db.verb.get(word, _NO_CATEGORIES)


def lexical_categories(db: WordNetDb, word: str) -> LexEntry:
    """Union of lexicographer categories over every noun/verb synset of ``word``."""
    return LexEntry(lemma=word, categories=_categories_for(db, word))


def base_forms(db: WordNetDb, word: str, pos: str) -> list[str]:
    """Candidate lemmas for ``word`` via the standard detachment rules.

    Only candidates actually present in the index are returned; the word
    itself comes first when indexed.
    """
    if pos == "noun":
        index, rules = db.noun, _NOUN_RULES
    elif pos == "verb":
        index, rules = db.verb, _VERB_RULES
    else:
        raise ValueError(f"pos must be 'noun' or 'verb', got {pos!r}")
    candidates = []
    if word in index:
        candidates.append(word)
    for suffix, replacement in rules:
        if word.endswith(suffix):
            cand = word[: len(word) - len(suffix)] + replacement
            if cand and cand in index and cand not in candidates:
                candidates.append(cand)
    return candidates


def _lookup(db: WordNetDb, stem: str, surfaces: Iterable[str]) -> LexEntry:
    # Cascade: the stem itself, then the surface forms, then detached base
    # forms of the surfaces. The first stage with any hit wins.
    cats = _categories_for(db, stem)
    if cats:
        return LexEntry(lemma=stem, categories=cats)
    surface_cats: set[str] = set()
    for surface in surfaces:
        surface_cats |= _categories_for(db, surface)
    if surface_cats:
        return LexEntry(lemma=stem, categories=frozenset(surface_cats))
    base_cats: set[str] = set()
    for surface in surfaces:
        for pos in ("noun", "verb"):
            for cand in base_forms(db, surface, pos):
                base_cats |= _categories_for(db, cand)
    return LexEntry(lemma=stem, categories=frozenset(base_cats))


def annotate_terms(
    db: WordNetDb,
    vectors: list[TermVector],
    originals: dict[str, set[str]],
    policy: str = "annotate-only",
) -> tuple[list[TermVector], dict[str, LexEntry]]:
    """Map every term to its lexical categories; optionally drop non-WordNet terms.

    Under ``annotate-only`` the vectors pass through unchanged; under
    ``filter-nonwordnet`` terms without any category are removed from
    every vector and totals are recomputed.
    """
    if policy not in ("annotate-only", "filter-nonwordnet"):
        raise ValueError(f"unknown wordnet policy {policy!r}")
    vocabulary = sorted({t for v in vectors for t in v.counts})
    annotations = {
        term: _lookup(db, term, sorted(originals.get(term, ()))) for term in vocabulary
    }
    if policy == "annotate-only":
        return vectors, annotations
    filtered = []
    for v in vectors:
        counts = {t: c for t, c in v.counts.items() if annotations[t].in_wordnet}
        filtered.append(TermVector(doc_id=v.doc_id, counts=counts, total=sum(counts.values())))
    return filtered, annotations
