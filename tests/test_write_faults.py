"""Every file ``select`` writes goes through ``weighting.replacing``: a fault
in any one of its file operations leaves no temporary file, no foreign file
touched, and either a clean run's artifacts (a cache fault, which a run
ignores) or a stage error with no ``metadata.json`` that describes other
files."""

import errno
import json
import os
import re
import shutil
from contextlib import contextmanager
from pathlib import Path

import pytest

from termsift import weighting
from termsift.cli import EXIT_DATA, EXIT_OK, main

OPERATIONS = ("open", "replace", "unlink", "mkdir")  # the os functions counted


class Faults:
    """Counts the file operations made under ``root`` and makes the
    ``fail_at``-th raise EIO instead. Each is recorded as its name and its
    path relative to ``root``, a temporary file's random part masked."""

    def __init__(self, root: Path, fail_at: int | None = None):
        self.root = os.path.join(root, "")
        self.fail_at = fail_at
        self.made: list[tuple[str, str]] = []

    def step(self, name: str, path) -> None:
        path = os.path.abspath(os.fspath(path))
        if not path.startswith(self.root):
            return
        self.made.append((name, re.sub(r"\.[0-9a-f]{8}\.tmp$", ".*.tmp",
                                       path[len(self.root):])))
        if len(self.made) == self.fail_at:
            raise OSError(errno.EIO, os.strerror(errno.EIO), path)

    def install(self, monkeypatch) -> None:
        for name in OPERATIONS:
            def op(path, *args, _real=getattr(os, name), _name=name, **kwargs):
                self.step(_name, path)
                return _real(path, *args, **kwargs)
            monkeypatch.setattr(os, name, op)
        replacing = weighting.replacing

        @contextmanager
        def counted(out, *args, **kwargs):
            with replacing(out, *args, **kwargs) as f:
                yield _CountedWrites(f, out, self)
        monkeypatch.setattr(weighting, "replacing", counted)


class _CountedWrites:
    def __init__(self, f, out, faults: Faults):
        self._f, self._out, self._faults = f, out, faults

    def write(self, data):
        self._faults.step("write", self._out)
        return self._f.write(data)


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def without_timestamp(files: dict[str, bytes]) -> dict[str, object]:
    """``files`` with the one field that differs between equal runs dropped."""
    found: dict[str, object] = dict(files)
    if "metadata.json" in found:
        meta = json.loads(found["metadata.json"])
        del meta["timestamp"]
        found["metadata.json"] = meta
    return found


@pytest.fixture()
def select(minicorpus_dir, wordnet_dir, monkeypatch):
    """Run one select of the minicorpus with WordNet into ``out``, its cache
    under ``cache_home``; returns (exit code, standard error)."""
    monkeypatch.delenv("WNSEARCHDIR", raising=False)

    def run(capsys, out: Path, cache_home: Path, *extra: str) -> tuple[int, str]:
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
        code = main(["select", str(minicorpus_dir), "--layout", "class-subdirectories",
                     "--wordnet-dir", str(wordnet_dir), "--out", str(out), *extra])
        return code, capsys.readouterr().err
    return run


def test_a_fault_in_any_file_operation_of_a_select(capsys, tmp_path, monkeypatch, select):
    # the previous run differs in every artifact it shares with the new one
    previous = tmp_path / "previous"
    assert select(capsys, previous, tmp_path / "previous-cache", "--format", "csv",
                  "--wordnet-policy", "off", "--alpha", "0.05")[0] == EXIT_OK
    (previous / "notes.txt").write_text("kept\n")
    before = snapshot(previous)

    def run(k: int | None) -> tuple[int, str, Faults, Path, Path]:
        work = tmp_path / f"run-{k}"
        out = shutil.copytree(previous, work / "out")
        faults = Faults(work, k)
        with monkeypatch.context() as mp:
            faults.install(mp)
            code, err = select(capsys, out, work / "cache")
        return code, err, faults, out, work / "cache"

    code, _, clean, clean_out, clean_cache = run(None)
    assert code == EXIT_OK
    expected = without_timestamp(snapshot(clean_out))
    assert expected["notes.txt"] == b"kept\n"
    assert sorted(p.name.split("-")[0] for p in (clean_cache / "termsift").iterdir()) == [
        "corpus", "wordnet"]
    # the sweep reaches each kind of operation under --out, and each but unlink
    # (a fresh cache has nothing to prune) under the cache
    kinds = {(name, path.startswith("cache/")) for name, path in clean.made}
    assert kinds == {(name, under_cache) for name in (*OPERATIONS, "write")
                     for under_cache in (False, True)} - {("unlink", True)}

    outcomes = {EXIT_OK: 0, EXIT_DATA: 0}
    for k in range(1, len(clean.made) + 1):
        code, err, faults, out, cache = run(k)
        name, path = clean.made[k - 1]
        where = f"fault {k}/{len(clean.made)}: {name} {path}"
        assert faults.made[:k] == clean.made[:k], where
        assert not [p for d in (out, cache) for p in d.rglob("*.tmp")], where
        files = snapshot(out)
        assert files["notes.txt"] == b"kept\n", where
        if code == EXIT_OK:
            assert without_timestamp(files) == expected, where
        else:
            assert code == EXIT_DATA, where
            assert err.startswith("termsift: error: stage write_outputs: [Errno 5] "), where
            assert "metadata.json" not in files or files == before, where
        outcomes[code] += 1
    assert outcomes[EXIT_OK] and outcomes[EXIT_DATA]  # cache faults, and --out faults


def test_file_modes(capsys, tmp_path, select):
    umask = os.umask(0o027)
    try:
        code, _ = select(capsys, tmp_path / "out", tmp_path / "cache")
    finally:
        os.umask(umask)
    assert code == EXIT_OK
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "out").iterdir()}
    assert len(modes) == 12 and set(modes.values()) == {0o640}
    cache = tmp_path / "cache" / "termsift"
    assert (cache.stat().st_mode & 0o777) == 0o700
    modes = {p.name.split("-")[0]: p.stat().st_mode & 0o777 for p in cache.iterdir()}
    assert modes == {"corpus": 0o600, "wordnet": 0o600}
