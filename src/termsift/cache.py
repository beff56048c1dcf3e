"""Content-keyed cache files, shared by the WordNet load and pipeline steps 1-3.

Entries live in ``$XDG_CACHE_HOME/termsift/`` (default ``~/.cache/termsift/``),
one file per kind and source directory: ``<kind>-<hash of the resolved
directory>.marshal``, each write replacing that directory's last entry.
An entry is the caller's key, the SHA-256 of the rest, then the rest:
the resolved source directory, a NUL byte and the payload,
``marshal.dumps(value)``. ``keyed_entry`` starts every key: the kind,
the marshal format and Python version, and the source of this module and
of the caller's modules that write and read the payload; the caller then
adds everything the value was computed from. So a changed input, layout,
payload shape or interpreter misses, and a hit holds the shape its
reader expects.

The cache never fails a run: an unreadable, stale or corrupt entry reads
as a miss, and a failed write or removal is logged and ignored. Every
write also removes the entries of either kind whose recorded directory
no longer exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import marshal
import os
import sys
import tempfile
from pathlib import Path
from typing import Any

log = logging.getLogger("termsift.cache")

_DIGEST_SIZE = hashlib.sha256().digest_size
_HASH_CHUNK = 1 << 20
_PATH_MAX = 4096  # bytes of an entry's recorded directory read when pruning


def keyed_entry(kind: str, directory: Path, sources: tuple[Path, ...]):
    """The entry of ``kind`` for ``directory`` and a SHA-256 object over what
    every ``kind`` key starts with: the kind, the marshal format and Python
    version, and the SHA-256 of this module and of each of ``sources``, the
    code that writes and reads the payload. None, logged, when there is no
    cache directory or a source cannot be read: the caller runs uncached."""
    path = entry_path(kind, directory)
    if path is None:
        log.info("%s not cached: no absolute cache directory", kind)
        return None
    key = hashlib.sha256(f"termsift {kind} cache, marshal {marshal.version}, python "
                         f"{sys.version_info[0]}.{sys.version_info[1]}".encode())
    try:
        for source in (Path(__file__), *sources):
            key.update(file_digest(source))
    except OSError as exc:
        log.info("%s not cached: %s", kind, exc)
        return None
    return path, key


def file_digest(path: str | Path) -> bytes:
    """SHA-256 of a file's contents, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.digest()


def entry_path(kind: str, directory: Path) -> Path | None:
    """The entry of ``kind`` for ``directory``: one per resolved directory,
    named by its hash. None when neither $XDG_CACHE_HOME nor the home
    directory gives an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative value
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    name = hashlib.sha256(os.fsencode(directory.resolve())).hexdigest()[:32]
    return Path(base) / "termsift" / f"{kind}-{name}.marshal"


def load(path: Path, key: bytes) -> Any:
    """The value ``path`` holds under ``key`` if it is intact, else None."""
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
    try:
        return marshal.loads(rest[end + 1 - head:])
    except (EOFError, ValueError, TypeError):
        return None


def save(path: Path, key: bytes, directory: Path, payload: bytes) -> None:
    """Write ``payload``, the ``marshal.dumps`` of a value, as the entry of
    ``directory`` under ``key``, then prune; a failed write is logged and
    ignored. The caller marshals the value, since marshal flags an object
    that has other references, so the bytes depend on who holds it."""
    try:
        _write(path, key, directory.resolve(), payload)
    except OSError as exc:
        log.info("cache not written to %s: %s", path, exc)
    else:
        log.info("wrote the cache entry %s", path)
    prune(path.parent)


def _write(path: Path, key: bytes, directory: Path, payload: bytes) -> None:
    """Write the entry to a temporary file beside ``path`` and rename it into
    place, so a reader sees the old entry or the whole new one."""
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            recorded = os.fsencode(directory) + b"\0"
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


def prune(cache_dir: Path) -> None:
    """Remove the entries whose recorded directory no longer exists; an entry
    that cannot be read or removed is logged and left."""
    try:
        entries = sorted(cache_dir.glob("*.marshal"))
    except OSError as exc:
        log.info("cache %s not pruned: %s", cache_dir, exc)
        return
    for entry in entries:
        try:
            with entry.open("rb") as f:
                head = f.read(2 * _DIGEST_SIZE + _PATH_MAX)
            source, nul, _ = head[2 * _DIGEST_SIZE:].partition(b"\0")
            # an entry of an older layout records no directory, so it is left
            if nul and os.path.isabs(source) and not os.path.isdir(source):
                entry.unlink()
                log.info("removed the cache entry %s of the deleted directory %s",
                         entry, os.fsdecode(source))
        except OSError as exc:
            log.info("cache entry %s not pruned: %s", entry, exc)
