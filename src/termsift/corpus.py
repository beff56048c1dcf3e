"""Corpus loading: directory layouts, manifests and stopword lists.

Each layout only lists its documents; one loop checks them all, so every
document must resolve to a regular file inside the corpus root. Loading
reads no document: pipeline steps 1-3 read each one as they reach it.

Documents are decoded permissively (invalid bytes become replacement
characters) because real corpora such as 20 Newsgroups contain malformed
byte sequences and a load must never abort mid-corpus.
"""

from __future__ import annotations

import hashlib
import os
import stat
from collections.abc import Iterator
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from termsift.errors import CorpusFormatError, EmptyCorpusError

LAYOUTS = ("flat", "class-subdirectories", "manifest-file")
MANIFEST_NAME = "manifest.tsv"

# What a layout lists per document: (doc_id, class label, path relative to
# the root, manifest line or 0). Layouts yield them one at a time, so a
# manifest still fails at its first bad line.
_Entry = tuple[str, str | None, str, int]


class Document(NamedTuple):
    """A listed document, checked to be a regular file inside the corpus root:
    ``read_bytes`` opens its real ``path``, and ``read`` decodes what it reads.
    ``root``, ``relpath`` and ``line`` (of its manifest, or 0) name it in a
    read error, built only when one fails."""

    doc_id: str
    class_label: str | None
    path: str
    root: Path
    relpath: str
    line: int

    def read_bytes(self) -> bytes:
        try:
            with open(self.path, "rb", buffering=0) as f:
                return f.read()
        except OSError as exc:
            where = f"{self.root / MANIFEST_NAME}:{self.line}: " if self.line else ""
            raise OSError(f"{where}cannot read document file "
                          f"{os.path.join(self.root, self.relpath)}: {exc}") from exc

    def read(self) -> str:
        return self.decode(self.read_bytes())

    @staticmethod
    def decode(data: bytes) -> str:
        """A document's text: its bytes as UTF-8, each invalid byte read as U+FFFD."""
        return data.decode("utf-8", errors="replace")


class StopwordList:
    def __init__(self, words: frozenset[str], sha256: str = ""):
        self.words = words
        self.sha256 = sha256

    def __len__(self) -> int:
        return len(self.words)


class DatasetStats(NamedTuple):
    name: str
    documents: int
    classes: int
    largest_class: int
    avg_doc_length: int


def _scan_flat(root: Path) -> Iterator[_Entry]:
    with os.scandir(root) as entries:
        for e in entries:
            if e.is_file():
                yield e.name, None, e.name, 0


def _scan_class_subdirs(root: Path) -> Iterator[_Entry]:
    with os.scandir(root) as classes:
        for sub in classes:
            if not sub.is_dir():
                continue
            with os.scandir(sub.path) as entries:
                for e in entries:
                    if e.is_file():
                        relpath = f"{sub.name}/{e.name}"
                        yield relpath, sub.name, relpath, 0


def _scan_manifest(root: Path) -> Iterator[_Entry]:
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"manifest file not found: {manifest}")
    for lineno, raw in enumerate(manifest.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{manifest}:{lineno}: not valid UTF-8") from exc
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(
                f"{manifest}:{lineno}: expected 'doc_id<TAB>class<TAB>relative-path', got {line!r}"
            )
        doc_id, label, relpath = (p.strip() for p in parts)
        if not doc_id:
            raise CorpusFormatError(f"{manifest}:{lineno}: empty doc_id")
        yield doc_id, label or None, relpath, lineno


def _check_document(where: str, root: Path, relpath: str, base: str,
                    real_dirs: dict[str, str]) -> str:
    """The real path of ``root/relpath``, after rejecting it unless it is a
    regular file under ``base`` (the real corpus root plus a separator).
    The path is checked as written, so the kernel walks each component and
    one that goes on past a file or through a missing directory fails as
    ``open`` would. This runs before any open, since a FIFO or a device
    could block or never end. ``real_dirs`` caches each directory's real
    path, with a trailing separator, across one load, since resolving a
    path in full stats every one of its components. Messages start with
    ``where`` and show the path as written, ``os.path.join(root, relpath)``."""
    if "\0" in relpath:
        raise CorpusFormatError(f"{where}document path {relpath!r} holds a NUL character")
    path = os.path.join(root, relpath)
    head, name = os.path.split(path)
    if head not in real_dirs:
        real_dirs[head] = os.path.join(os.path.realpath(head), "")
    # realpath(head/name) is realpath(head)/name unless name is a symlink,
    # once the lstat below has walked every component of head as a directory
    real = real_dirs[head] + name
    # one lstat answers "symlink?" and, for anything else, "regular file?"
    try:
        st = os.lstat(path)
    except OSError as exc:
        st, error = None, exc
    if st is not None and stat.S_ISLNK(st.st_mode):
        real = os.path.realpath(real)
        try:
            st = os.stat(real)
        except OSError as exc:
            st, error = None, exc
    if not real.startswith(base):
        raise CorpusFormatError(f"{where}{path} is outside the corpus root {base}")
    if st is None:
        raise OSError(f"{where}cannot read document file {path}: {error}") from error
    if not stat.S_ISREG(st.st_mode):
        raise CorpusFormatError(f"{where}{path} is not a regular file")
    return real


def load_corpus(root_path: str | Path, layout: str = "flat") -> tuple[Document, ...]:
    """List and check every document under ``root_path`` per the given layout.

    Ordering is lexicographic by doc_id, so repeated loads of the same
    directory list identical documents. No document is opened.
    """
    root = Path(root_path)
    if layout not in LAYOUTS:
        raise ValueError(f"unknown corpus layout {layout!r}; expected one of {LAYOUTS}")
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root is not a directory: {root}")

    if layout == "flat":
        entries = _scan_flat(root)
    elif layout == "class-subdirectories":
        entries = _scan_class_subdirs(root)
    else:
        entries = _scan_manifest(root)
    base = os.path.join(os.path.realpath(root), "")
    real_dirs: dict[str, str] = {}
    manifest = root / MANIFEST_NAME
    docs = [Document(doc_id, label, _check_document(f"{manifest}:{line}: " if line else "",
                                                    root, relpath, base, real_dirs),
                     root, relpath, line)
            for doc_id, label, relpath, line in entries]

    if not docs:
        raise EmptyCorpusError(f"no documents found under {root} (layout={layout})")

    docs.sort(key=lambda d: d.doc_id)
    seen: set[str] = set()
    for d in docs:
        if d.doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {d.doc_id!r} in corpus {root}")
        seen.add(d.doc_id)
    return tuple(docs)


def load_stopwords(path: str | Path) -> StopwordList:
    """Read a one-word-per-line UTF-8 stopword file (``#`` comments, blanks
    skipped); a byte that is not UTF-8 raises naming its line."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"stopword file not found: {p}")
    raw = p.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line: the sentinel joins a partial last line or starts the next one
        lineno = len((raw[:exc.start] + b"x").splitlines())
        raise ValueError(f"{p}:{lineno}: not valid UTF-8") from exc
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if not word or word.startswith("#"):
            continue
        words.add(word)
    return StopwordList(words=frozenset(words), sha256=hashlib.sha256(raw).hexdigest())


def default_stopwords() -> StopwordList:
    """The stopword list shipped with the package (~570 common English words)."""
    ref = resources.files("termsift").joinpath("data/stopwords.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


def corpus_summary(name: str, documents: tuple[Document, ...], token_counts: list[int]
                   ) -> DatasetStats:
    """Document/class counts, largest class size and mean token length.

    ``token_counts`` holds each document's token count before stopword
    removal (pipeline step 1); their mean is rounded half up to the
    nearest integer.
    """
    n = len(documents)
    by_class: dict[str, int] = {}
    for d in documents:
        if d.class_label is not None:
            by_class[d.class_label] = by_class.get(d.class_label, 0) + 1
    return DatasetStats(
        name=name,
        documents=n,
        classes=len(by_class),
        largest_class=max(by_class.values(), default=0),
        avg_doc_length=(2 * sum(token_counts) + n) // (2 * n) if n else 0,
    )
