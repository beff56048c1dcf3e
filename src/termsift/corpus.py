"""Corpus loading: directory layouts, manifests and stopword lists.

Documents are decoded permissively (invalid bytes become replacement
characters) because real corpora such as 20 Newsgroups contain malformed
byte sequences and a load must never abort mid-corpus.
"""

from __future__ import annotations

import hashlib
import os
import stat
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from termsift.errors import CorpusFormatError, EmptyCorpusError

LAYOUTS = ("flat", "class-subdirectories", "manifest-file")
MANIFEST_NAME = "manifest.tsv"


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    text: str
    class_label: str | None = None


@dataclass(frozen=True)
class DocumentSet:
    """An immutable, deterministically ordered document collection."""

    name: str
    documents: tuple[RawDocument, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def class_labels(self) -> set[str]:
        return {d.class_label for d in self.documents if d.class_label is not None}


@dataclass(frozen=True)
class StopwordList:
    words: frozenset[str]
    sha256: str = ""

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class DatasetStats:
    name: str
    documents: int
    classes: int
    largest_class: int
    avg_doc_length: int


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8", errors="replace")
    except OSError as exc:
        raise OSError(f"cannot read document file {path}: {exc}") from exc


def _scan_flat(root: Path) -> list[RawDocument]:
    return [
        RawDocument(doc_id=p.name, text=_read_text(p))
        for p in root.iterdir()
        if p.is_file()
    ]


def _scan_class_subdirs(root: Path) -> list[RawDocument]:
    docs = []
    for sub in root.iterdir():
        if not sub.is_dir():
            continue
        for p in sub.iterdir():
            if p.is_file():
                docs.append(
                    RawDocument(doc_id=f"{sub.name}/{p.name}", text=_read_text(p), class_label=sub.name)
                )
    return docs


def _scan_manifest(root: Path) -> list[RawDocument]:
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"manifest file not found: {manifest}")
    base = os.path.join(os.path.realpath(root), "")
    real_dirs: dict[str, str] = {}
    docs = []
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
        path = root / relpath
        _check_document(f"{manifest}:{lineno}", path, base, real_dirs)
        docs.append(RawDocument(doc_id=doc_id, text=_read_text(path), class_label=label or None))
    return docs


def _check_document(where: str, path: Path, base: str, real_dirs: dict[str, str]) -> None:
    """Reject ``path`` unless it is a regular file whose real path lies under
    ``base`` (the real corpus root plus a separator). This runs before any
    open, since a FIFO or a device could block or never end. ``real_dirs``
    caches each directory's real path across one manifest's lines, since
    resolving a path in full stats every one of its components."""
    head, name = os.path.split(path)
    if name in ("", ".", ".."):
        real = os.path.realpath(path)
    else:
        if head not in real_dirs:
            real_dirs[head] = os.path.realpath(head)
        # realpath(head/name) is realpath(head)/name unless name is a symlink
        real = os.path.join(real_dirs[head], name)
        if os.path.islink(real):
            real = os.path.realpath(real)
    if not real.startswith(base):
        raise CorpusFormatError(f"{where}: {path} is outside the corpus root {base}")
    try:
        mode = os.stat(real).st_mode
    except OSError as exc:
        raise OSError(f"{where}: cannot read document file {path}: {exc}") from exc
    if not stat.S_ISREG(mode):
        raise CorpusFormatError(f"{where}: {path} is not a regular file")


def load_corpus(root_path: str | Path, layout: str = "flat", name: str | None = None) -> DocumentSet:
    """Load every document under ``root_path`` per the given layout.

    Ordering is lexicographic by doc_id, so repeated loads of the same
    directory yield identical DocumentSets.
    """
    root = Path(root_path)
    if layout not in LAYOUTS:
        raise ValueError(f"unknown corpus layout {layout!r}; expected one of {LAYOUTS}")
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root is not a directory: {root}")

    if layout == "flat":
        docs = _scan_flat(root)
    elif layout == "class-subdirectories":
        docs = _scan_class_subdirs(root)
    else:
        docs = _scan_manifest(root)

    if not docs:
        raise EmptyCorpusError(f"no documents found under {root} (layout={layout})")

    docs.sort(key=lambda d: d.doc_id)
    seen: set[str] = set()
    for d in docs:
        if d.doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {d.doc_id!r} in corpus {root}")
        seen.add(d.doc_id)
    return DocumentSet(name=name or root.name, documents=tuple(docs))


def load_stopwords(path: str | Path) -> StopwordList:
    """Read a one-word-per-line stopword file (``#`` comments, blanks skipped)."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"stopword file not found: {p}")
    raw = p.read_bytes()
    words = set()
    for line in raw.decode("utf-8", errors="replace").splitlines():
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


def corpus_summary(corpus: DocumentSet, token_counts: list[int]) -> DatasetStats:
    """Document/class counts, largest class size and mean token length.

    ``token_counts`` holds each document's token count before stopword
    removal (pipeline step 1); their mean is rounded half up to the
    nearest integer.
    """
    n = len(corpus)
    by_class: dict[str, int] = {}
    for d in corpus:
        if d.class_label is not None:
            by_class[d.class_label] = by_class.get(d.class_label, 0) + 1
    return DatasetStats(
        name=corpus.name,
        documents=n,
        classes=len(by_class),
        largest_class=max(by_class.values(), default=0),
        avg_doc_length=(2 * sum(token_counts) + n) // (2 * n) if n else 0,
    )
