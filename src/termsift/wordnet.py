"""Parser for the WordNet on-disk database and lexical-category lookup.

Reads the standard text format (``index.noun``, ``data.noun``,
``index.verb``, ``data.verb``, ``lexnames``) exactly as distributed:
space-delimited fields, license header lines beginning with two spaces,
and data lines keyed by their byte offset within the file. Only the noun
and verb parts of speech are loaded, which yields the 41 lexicographer
categories (26 noun.* + 15 verb.*).

The load keeps only what lookup reads: each lemma's set of category
names. Every line is still checked, and a bad one raises naming its
file and line. The maps are split by the shape of the lemma. A
token-shaped lemma (``[a-z]+``) goes into ``WordNetDb.noun``/``.verb``,
the only maps the pipeline reads: every word it looks up is a token, a
Porter stem or a detached base form, all letters only. Every other
lemma (collocations such as ``domestic_dog``, hyphens, digits,
apostrophes) is held as one marshalled ``bytes`` value, decoded only
when ``lexical_categories`` is asked for such a word.

A parsed database is cached in ``$XDG_CACHE_HOME/termsift/`` (default
``~/.cache/termsift/``), one file per database directory, keyed by the
SHA-256 of the five files' contents; a changed database is parsed and
checked again. A hit decodes only the token-shaped maps and keeps the
other lemmas as the bytes it read. Each entry records its database
directory, and every cache write removes the entries whose directory no
longer exists. The cache never fails a load: an unreadable, stale or
corrupt entry counts as a miss, and a failed write or removal is logged
and ignored.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import marshal
import os
import re
import sys
import tempfile
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from termsift.errors import WordNetFormatError

log = logging.getLogger("termsift.wordnet")

REQUIRED_FILES = ("index.noun", "data.noun", "index.verb", "data.verb", "lexnames")

# Bump when WordNetDb or the cache file layout changes; the key covers it.
_CACHE_FORMAT = 3
_CACHE_TAG = (f"termsift wordnet cache {_CACHE_FORMAT}, marshal {marshal.version}, "
              f"python {sys.version_info[0]}.{sys.version_info[1]}").encode()
_DIGEST_SIZE = hashlib.sha256().digest_size
_HASH_CHUNK = 1 << 20
_PATH_MAX = 4096  # bytes of an entry's recorded directory read when pruning

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
# Last letter -> (noun rules, verb rules) whose suffix ends in it, each in
# rule order: a word can only match the rules filed under its own last letter.
_RULES_BY_LAST_LETTER = {
    letter: (tuple(r for r in _NOUN_RULES if r[0].endswith(letter)),
             tuple(r for r in _VERB_RULES if r[0].endswith(letter)))
    for letter in {suffix[-1] for suffix, _ in _NOUN_RULES + _VERB_RULES}
}
_NO_RULES: tuple[tuple, tuple] = ((), ())


class LexEntry(NamedTuple):
    lemma: str
    categories: frozenset[str]

    @property
    def in_wordnet(self) -> bool:
        return bool(self.categories)


class WordNetDb:
    def __init__(self, noun: dict[str, frozenset[str]], verb: dict[str, frozenset[str]],
                 other_lemmas: bytes, lemma_count: int, synset_count: int, version: str):
        # token-shaped lemma ([a-z]+) -> category names of its noun (verb) synsets
        self.noun, self.verb = noun, verb
        # marshal.dumps((noun, verb)) of the maps of every other lemma
        self.other_lemmas = other_lemmas
        self.lemma_count = lemma_count  # noun and verb lemmas of both shapes
        self.synset_count, self.version = synset_count, version

    def astuple(self) -> tuple:
        """The six constructor arguments, in order: what equality compares
        and what the cache stores."""
        return (self.noun, self.verb, self.other_lemmas, self.lemma_count,
                self.synset_count, self.version)

    def __eq__(self, other) -> bool:
        return type(other) is WordNetDb and self.astuple() == other.astuple()

    @cached_property
    def other_maps(self) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
        """The noun and verb maps of the lemmas that are not token-shaped,
        decoded on first use and kept."""
        return marshal.loads(self.other_lemmas)


def _token_shaped(word: str) -> bool:
    """Whether ``word`` matches ``[a-z]+``, the shape of every word the pipeline
    looks up (ASCII letters, none of them upper case)."""
    return word.isascii() and word.isalpha() and word.islower()


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
                 interned: dict[frozenset[str], frozenset[str]]
                 ) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
    """Lemma -> category names of its synsets, for the token-shaped lemmas and
    for the others; equal sets share one object via ``interned``."""
    index: dict[str, frozenset[str]] = {}
    other: dict[str, frozenset[str]] = {}
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
                offsets = list(map(int, fields[6 + p_cnt:]))
                if len(offsets) != synset_cnt:
                    raise ValueError(f"{synset_cnt} synsets declared, {len(offsets)} offsets given")
            except (IndexError, ValueError) as exc:
                raise WordNetFormatError(f"{path}:{lineno}: malformed index line: {exc}") from exc
            try:
                cats = frozenset(map(categories.__getitem__, offsets))
            except KeyError as exc:
                raise WordNetFormatError(f"{path}:{lineno}: lemma {lemma!r} references unknown "
                                         f"synset offset {exc.args[0]}") from exc
            (index if _token_shaped(lemma) else other)[lemma] = interned.setdefault(cats, cats)
    return index, other


def load_wordnet(directory: str | Path) -> WordNetDb:
    """Parse a WordNet database directory into lemma -> categories maps,
    or read them from the cache when the files' contents are unchanged.

    Fails fast: a missing file or a malformed line raises, never a
    partially loaded database.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"WordNet directory not found: {root}")
    for name in REQUIRED_FILES:
        if not (root / name).is_file():
            raise FileNotFoundError(f"missing WordNet database file: {root / name}")

    cache = _cache_path(root)
    if cache is None:
        return _parse_wordnet(root)
    key = _content_key(root)
    db = _read_cache(cache, key)
    if db is not None:
        log.info("WordNet cache hit: %s", cache)
        return db
    db = _parse_wordnet(root)  # raises on a malformed database, before anything is cached
    try:
        _write_cache(cache, key, root.resolve(), db)
    except OSError as exc:
        log.info("parsed WordNet; cache not written to %s: %s", cache, exc)
    else:
        log.info("parsed WordNet and wrote the cache %s", cache)
    _prune_cache(cache.parent)
    return db


def _parse_wordnet(root: Path) -> WordNetDb:
    lexnames = _parse_lexnames(root / "lexnames")
    noun_synsets, version_n = _parse_data(root / "data.noun", "n", lexnames)
    verb_synsets, version_v = _parse_data(root / "data.verb", "v", lexnames)
    interned: dict[frozenset[str], frozenset[str]] = {}
    noun, other_noun = _parse_index(root / "index.noun", "n", noun_synsets, interned)
    verb, other_verb = _parse_index(root / "index.verb", "v", verb_synsets, interned)
    return WordNetDb(
        noun=noun,
        verb=verb,
        other_lemmas=marshal.dumps((other_noun, other_verb)),
        lemma_count=len(noun) + len(verb) + len(other_noun) + len(other_verb),
        synset_count=len(noun_synsets) + len(verb_synsets),
        version=version_n or version_v or "unknown",
    )


def _cache_path(root: Path) -> Path | None:
    """The cache file of ``root``: one per resolved directory, named by its hash.
    None when neither $XDG_CACHE_HOME nor the home directory gives an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative value
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    name = hashlib.sha256(os.fsencode(root.resolve())).hexdigest()[:32]
    return Path(base) / "termsift" / f"wordnet-{name}.marshal"


def _content_key(root: Path) -> bytes:
    """SHA-256 over the cache format tag and each required file's own SHA-256."""
    key = hashlib.sha256(_CACHE_TAG)
    for name in REQUIRED_FILES:
        digest = hashlib.sha256()
        with (root / name).open("rb") as f:
            while chunk := f.read(_HASH_CHUNK):
                digest.update(chunk)
        key.update(digest.digest())
    return key.digest()


def _read_cache(path: Path, key: bytes) -> WordNetDb | None:
    """The cached database if ``path`` holds one under ``key`` intact, else None.

    File layout: the key, the SHA-256 of the rest, then the rest: the
    database directory's resolved path, a NUL byte and the payload,
    ``marshal.dumps((noun, verb, other_lemmas, lemma_count, synset_count,
    version))``. ``other_lemmas`` stays bytes: it is not decoded here."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    head = 2 * _DIGEST_SIZE
    rest = memoryview(blob)[head:]  # views, not second copies of the payload
    if (blob[:_DIGEST_SIZE] != key
            or blob[_DIGEST_SIZE:head] != hashlib.sha256(rest).digest()):
        return None
    end = blob.find(b"\0", head)
    if end < 0:
        return None
    payload = rest[end + 1 - head:]
    try:
        value = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if not (isinstance(value, tuple) and len(value) == 6):
        return None
    noun, verb, other_lemmas, lemma_count, synset_count, version = value
    if not (isinstance(noun, dict) and isinstance(verb, dict)
            and isinstance(other_lemmas, bytes) and type(lemma_count) is int
            and type(synset_count) is int and isinstance(version, str)):
        return None
    return WordNetDb(*value)


def _write_cache(path: Path, key: bytes, source: Path, db: WordNetDb) -> None:
    """Write the entry of the database in ``source`` to a temporary file beside
    ``path`` and rename it into place, so a reader sees the old entry or the
    whole new one."""
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            # marshal writes each shared category set once and loads it back
            # shared; the other lemmas' maps are already marshalled bytes
            payload = marshal.dumps(db.astuple())
            recorded = os.fsencode(source) + b"\0"
            digest = hashlib.sha256(recorded)
            digest.update(payload)
            f.write(key)
            f.write(digest.digest())
            f.write(recorded)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _prune_cache(cache_dir: Path) -> None:
    """Remove the entries whose recorded database directory no longer exists;
    an entry that cannot be read or removed is logged and left."""
    try:
        entries = sorted(cache_dir.glob("wordnet-*.marshal"))
    except OSError as exc:
        log.info("WordNet cache %s not pruned: %s", cache_dir, exc)
        return
    for entry in entries:
        try:
            with entry.open("rb") as f:
                head = f.read(2 * _DIGEST_SIZE + _PATH_MAX)
            source, nul, _ = head[2 * _DIGEST_SIZE:].partition(b"\0")
            # an entry of an older layout records no directory, so it is left
            if nul and os.path.isabs(source) and not os.path.isdir(source):
                entry.unlink()
                log.info("removed the WordNet cache entry %s of the deleted database %s",
                         entry, os.fsdecode(source))
        except OSError as exc:
            log.info("WordNet cache entry %s not pruned: %s", entry, exc)


def _categories_for(db: WordNetDb, word: str) -> frozenset[str]:
    """Categories of the token-shaped ``word``."""
    return db.noun.get(word, _NO_CATEGORIES) | db.verb.get(word, _NO_CATEGORIES)


def lexical_categories(db: WordNetDb, word: str) -> LexEntry:
    """Union of lexicographer categories over every noun/verb synset of ``word``.

    A token-shaped ``word`` (``[a-z]+``, as every word the pipeline looks up
    is) reads only the token-shaped maps; any other word, such as
    ``adult_male``, decodes the maps of the other lemmas on first use."""
    noun, verb = (db.noun, db.verb) if _token_shaped(word) else db.other_maps
    return LexEntry(lemma=word,
                    categories=noun.get(word, _NO_CATEGORIES) | verb.get(word, _NO_CATEGORIES))


def _detached(word: str, rules: tuple[tuple[str, str], ...],
              index: dict[str, frozenset[str]]) -> list[str]:
    """The forms ``rules`` detach from ``word`` that ``index`` holds, in rule order."""
    found = []
    for suffix, replacement in rules:
        if word.endswith(suffix):
            cand = word[: len(word) - len(suffix)] + replacement
            if cand and cand in index:
                found.append(cand)
    return found


def _lookup(db: WordNetDb, stem: str, surfaces: Iterable[str]) -> LexEntry:
    # Cascade: the stem itself, then the surface forms, then detached base
    # forms of the surfaces. The first stage with any hit wins.
    cats = _categories_for(db, stem)
    if cats:
        return LexEntry(lemma=stem, categories=cats)
    surfaces = sorted(surfaces)
    surface_cats: set[str] = set()
    for surface in surfaces:
        surface_cats |= _categories_for(db, surface)
    if surface_cats:
        return LexEntry(lemma=stem, categories=frozenset(surface_cats))
    # No surface has a category here, so only the forms the detachment
    # rules make from each surface are looked up.
    base_cats: set[str] = set()
    for surface in surfaces:
        rules = _RULES_BY_LAST_LETTER.get(surface[-1:], _NO_RULES)
        for side_rules, index in zip(rules, (db.noun, db.verb)):
            for cand in _detached(surface, side_rules, index):
                base_cats |= _categories_for(db, cand)
    return LexEntry(lemma=stem, categories=frozenset(base_cats))


def annotate_terms(db: WordNetDb, originals: Mapping[str, Iterable[str]]
                   ) -> tuple[set[str], dict[str, LexEntry]]:
    """Map every stem in ``originals`` (stem -> its surface forms, in any
    order) to its lexical categories; return the stems that have a
    category, and every stem's entry.

    Stems and surfaces are token-shaped (``[a-z]+``), and so is every form
    the detachment rules make from them, so only the token-shaped maps are
    read."""
    annotations = {term: _lookup(db, term, surfaces)
                   for term, surfaces in sorted(originals.items())}
    return {term for term, entry in annotations.items() if entry.categories}, annotations
