"""Check that ``termsift select``, ``weigh``, ``stats``, ``preprocess``, ``lex`` and
``stem`` write byte-identical artifacts and output in two trees.

    python3 tools/same_artifacts.py OLD_TREE

Runs the CLI with the ``src`` of OLD_TREE (another checkout, e.g. an
exported parent commit) and with this checkout's ``src`` on each case,
and compares the exit codes, the standard output and error, and every
file the two runs write except ``metadata.json``, whose timestamp
always differs. The cases:

- ``select`` on the bundled minicorpus with WordNet off
- the same with ``--format csv --aggregation mean --gamma 0.001``
- the same with ``--log-base 2 --aggregation mean``
- the same with ``--alpha 1e9 --beta 1e9 --gamma 1e9``, so no scheme
  keeps a term, once with ``--format csv`` and once with
  ``--format coordinate-triplet`` (CSVs of bare document ids under a
  ``doc_id`` header, and empty triplet files)
- the same corpus with the ``tests/wn_fixture.py`` database under
  ``annotate-only``
- the same database under ``filter-nonwordnet --min-count 2``
- ``lex`` on the same database for every fixture lemma (collocations
  included), a few inflected forms and a few unknown words
- ``weigh`` on the minicorpus, WordNet off, for each scheme in each
  export format (the export not restricted to key terms), and for
  ``--scheme tf2 --log-base 10``
- ``stats`` and ``preprocess`` on the minicorpus, and on its
  ``grainfarm`` class directory read as ``--layout flat``
- seed 301 of each ``perfbench`` workload, with the workload's own
  ``select`` arguments (its inputs are generated into
  ``.perfbench-cache/`` on first use), and ``stats`` and ``preprocess``
  with the same arguments but WordNet off (neither reads it)
- ``lex`` on the seed-301 ``wordnet-short`` database for 12 token-shaped
  lemmas from its ``lemmas.tsv`` (which lists only those), 12 ``_``
  collocation fillers from each of its two index files, and two words it
  does not hold
- ``select`` on the minicorpus through a symlink whose name holds a comma
  and a double quote, so the reports quote the dataset name
- ``stem`` on a few words, and ``stem`` on a word that is not alphabetic
  (a usage error, exit 1)
- ``stem`` on 3,000 seeded generated words that the stemmer fixture does
  not hold, ``y``-heavy and each ending in a Porter suffix (``-ational``,
  ``-ies``, ``-ing``, ``-ed``, ``-ness``, ``-ion``, ``-e`` or ``-ll``)
- ``select`` on corpora that must fail: a manifest line with two fields,
  a manifest naming a missing document, a duplicate doc id, an empty
  corpus, and a document that is a symlink out of the corpus root
- invalid thresholds, which must fail with the same message: ``select``
  on the minicorpus with ``--alpha -1``, and ``weigh`` with a config file
  that holds ``gamma = nan``

Both trees read the same inputs, taken from this checkout, and each
runs with a fresh temporary ``XDG_CACHE_HOME``, so the cache of the user
is neither read nor written. Each case that reads a corpus's terms
(``select``, ``weigh``, ``preprocess``) or a WordNet database runs twice
in this checkout, first with an empty cache (steps 1-3 run, the database
is parsed, and each writes its cache entry) and then with the cache
warm, and both runs are compared with the old tree's. A cold run that
exits 0 without writing the corpus entry, or the WordNet entry of a
case that names a database, differs, and so does any run in this
checkout, failed or not, that leaves a ``*.tmp`` file under its working
directory or its cache directory.

Prints one line per comparison, naming for each case that differs the
first file (or the exit code, output or error) that does. Runs every
case, then exits 1 with the count of differing comparisons, or 0 when
every one is identical.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402
from wn_fixture import SYNSETS, build_wordnet_dir  # noqa: E402

SEED = 301
EXEMPT = {"metadata.json"}
CORPUS_COMMANDS = ("select", "weigh", "preprocess")  # the commands that run steps 1-3
LEX_SAMPLE = 12  # lemmas of each kind taken from the wordnet-short database
STEM_WORDS = 3000  # generated words the seeded ``stem`` case stems


def spread(items: list[str], n: int) -> list[str]:
    """``n`` items taken evenly from ``items``, first one included."""
    return items[:: max(1, len(items) // n)][:n]


def generated_lex_words(wordnet_dir: Path) -> list[str]:
    """Token-shaped lemmas and collocation fillers of a generated database."""
    lemmas = [line.split("\t")[0] for line in
              (wordnet_dir / "lemmas.tsv").read_text(encoding="utf-8").splitlines()]
    words = spread(lemmas, LEX_SAMPLE)
    for name in ("index.noun", "index.verb"):
        with (wordnet_dir / name).open(encoding="utf-8") as f:
            fillers = [line.split(" ", 1)[0] for line in f
                       if not line.startswith(" ") and "_" in line.split(" ", 1)[0]]
        words += spread(fillers, LEX_SAMPLE)
    return words + ["zzyzx", "zzyzx_qq"]


def generated_stem_words() -> list[str]:
    """Seeded words outside the stemmer fixture, every fixture word being
    pinned already by the acceptance gate. Many ``y``s and vowels make the
    ``y`` rule decide the stemmer's conditions often, and each word ends in
    a suffix that one of Porter's steps strips or rewrites."""
    with (ROOT / "tests" / "fixtures" / "porter" / "voc.txt").open(encoding="utf-8") as f:
        fixture = {line.strip() for line in f}
    rng = random.Random(SEED)
    letters = "abcdefghijklmnopqrstuvwxyz" + "y" * 8 + "aeiou" * 2
    suffixes = ("ational", "ies", "ing", "ed", "ness", "ion", "e", "ll")
    words: list[str] = []
    while len(words) < STEM_WORDS:
        word = "".join(rng.choices(letters, k=rng.randint(1, 8))) + rng.choice(suffixes)
        if word not in fixture:
            words.append(word)
    return words


def failing_corpora(work: Path) -> dict[str, tuple[Path, str]]:
    """Corpora that ``select`` must reject: name -> (root, layout)."""
    def manifest(name: str, lines: str) -> Path:
        root = work / "failing" / name
        root.mkdir(parents=True)
        (root / "a.txt").write_text("wheat barley", encoding="utf-8")
        (root / "manifest.tsv").write_text(lines, encoding="utf-8")
        return root

    empty = work / "failing" / "empty"
    empty.mkdir(parents=True)
    escape = work / "failing" / "escape"
    (escape / "cls").mkdir(parents=True)
    (escape / "cls" / "a.txt").write_text("wheat barley", encoding="utf-8")
    (work / "failing" / "outside.txt").write_text("outside text", encoding="utf-8")
    (escape / "cls" / "link.txt").symlink_to(work / "failing" / "outside.txt")
    return {
        "a manifest line with two fields": (manifest("fields", "a\ta.txt\n"), "manifest-file"),
        "a missing document": (manifest("missing", "a\tc\ta.txt\nb\tc\tmissing.txt\n"),
                               "manifest-file"),
        "a duplicate doc id": (manifest("duplicate", "a\tc\ta.txt\na\tc\ta.txt\n"),
                               "manifest-file"),
        "an empty corpus": (empty, "flat"),
        "a symlink out of the root": (escape, "class-subdirectories"),
    }


def cases(work: Path) -> list[tuple[str, list[str]]]:
    mini = ROOT / "src" / "termsift" / "data" / "minicorpus"
    base = ["select", str(mini), "--layout", "class-subdirectories", "--out", "out"]
    db = str(build_wordnet_dir(work / "wn-fixture"))
    found = [
        ("minicorpus, WordNet off", base + ["--wordnet-policy", "off"]),
        # under mean the default gamma keeps no tf2 term; 0.001 keeps 53 of 136,
        # so each scheme's csv has key-term columns
        ("minicorpus, WordNet off, csv, mean, gamma 0.001",
         base + ["--wordnet-policy", "off", "--format", "csv", "--aggregation", "mean",
                 "--gamma", "0.001"]),
        ("minicorpus, WordNet off, log base 2, mean",
         base + ["--wordnet-policy", "off", "--log-base", "2", "--aggregation", "mean"]),
        *((f"minicorpus, WordNet off, empty key sets, {fmt}",
           base + ["--wordnet-policy", "off", "--alpha", "1e9", "--beta", "1e9",
                   "--gamma", "1e9", "--format", fmt])
          for fmt in ("csv", "coordinate-triplet")),
        ("minicorpus, fixture WordNet, annotate-only",
         base + ["--wordnet-dir", db, "--wordnet-policy", "annotate-only"]),
        ("minicorpus, fixture WordNet, filter-nonwordnet --min-count 2",
         base + ["--wordnet-dir", db, "--wordnet-policy", "filter-nonwordnet",
                 "--min-count", "2"]),
        ("fixture WordNet, lex of every lemma, inflections and unknown words",
         ["lex", *sorted({w for _, _, words, *_ in SYNSETS.values() for w in words}),
          "dogs", "ponies", "agreed", "churches", "men", "harvesting", "zzyzx",
          "Adult_Male", "x-ray", "--wordnet-dir", db]),
    ]
    for scheme in ("tfidf", "tfdf", "tf2"):
        for fmt in ("csv", "coordinate-triplet"):
            found.append((f"minicorpus, weigh --scheme {scheme} --format {fmt}",
                          ["weigh", *base[1:], "--wordnet-policy", "off",
                           "--scheme", scheme, "--format", fmt]))
    found.append(("minicorpus, weigh --scheme tf2 --log-base 10",
                  ["weigh", *base[1:], "--wordnet-policy", "off", "--scheme", "tf2",
                   "--log-base", "10"]))
    for command in ("stats", "preprocess"):
        found.append((f"minicorpus, {command}", [command, *base[1:]]))
        found.append((f"minicorpus grainfarm, flat, {command}",
                      [command, str(mini / "grainfarm"), "--layout", "flat"]))
    for name, workload in perfbench.WORKLOADS.items():
        data = perfbench.inputs(name, SEED)
        wordnet_dir = data / "wordnet" if workload.wordnet else None
        found.append((f"{name} seed {SEED}", perfbench.termsift_args(
            "select", data / "corpus", workload, Path("out"), wordnet_dir)))
        for command in ("stats", "preprocess"):
            found.append((f"{name} seed {SEED}, {command}", perfbench.termsift_args(
                command, data / "corpus", workload, Path("out"), None)))
        if wordnet_dir is not None:
            found.append((f"{name} seed {SEED}, lex of lemmas and collocations",
                          ["lex", *generated_lex_words(wordnet_dir),
                           "--wordnet-dir", str(wordnet_dir)]))
    quoted = work / 'mini,"corpus"'
    quoted.symlink_to(mini, target_is_directory=True)
    found.append(("minicorpus through a symlink named with a comma and a quote",
                  ["select", str(quoted), *base[2:], "--wordnet-policy", "off"]))
    found.append(("stem", ["stem", "running", "ponies", "Caresses", "generalizations"]))
    found.append(("stem of a word that is not alphabetic", ["stem", "running", "x-ray"]))
    found.append((f"stem of {STEM_WORDS} generated y-heavy words with Porter suffixes",
                  ["stem", *generated_stem_words()]))
    for name, (root, layout) in failing_corpora(work).items():
        found.append((f"select fails on {name}",
                      ["select", str(root), "--layout", layout, "--wordnet-policy", "off",
                       "--out", "out"]))
    found.append(("select fails on --alpha -1",
                  base + ["--wordnet-policy", "off", "--alpha", "-1"]))
    nan_config = work / "gamma-nan.cfg"
    nan_config.write_text("gamma = nan\n", encoding="utf-8")
    found.append(("weigh fails on a config file with gamma = nan",
                  ["weigh", *base[1:], "--wordnet-policy", "off", "--config", str(nan_config)]))
    return found


def run_cli(tree: Path, args: list[str], cwd: Path, cache_home: Path
            ) -> subprocess.CompletedProcess:
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), XDG_CACHE_HOME=str(cache_home))
    env.pop("WNSEARCHDIR", None)
    return subprocess.run([sys.executable, "-m", "termsift.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def first_difference(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess,
                     old_out: Path, new_out: Path) -> str | None:
    if old.returncode != new.returncode:
        return f"exit code {old.returncode} -> {new.returncode}"
    if old.stdout != new.stdout:
        return "standard output"
    if old.stderr != new.stderr:
        return "standard error"
    names = {p.name for out in (old_out, new_out) if out.is_dir() for p in out.iterdir()}
    for name in sorted(names - EXEMPT):
        a, b = old_out / name, new_out / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            return name
    return None


def cached_kinds(args: list[str]) -> list[str]:
    """The kinds of cache entry a run of ``args`` that exits 0 writes when cold."""
    kinds = ["corpus"] if args[0] in CORPUS_COMMANDS else []
    return kinds + ["wordnet"] if "--wordnet-dir" in args else kinds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="checkout to compare this one against")
    old_tree = parser.parse_args().old_tree.resolve()
    if not (old_tree / "src" / "termsift" / "cli.py").is_file():
        print(f"same_artifacts: not a termsift checkout: {old_tree}", file=sys.stderr)
        return 2
    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        work = Path(tmp)
        for i, (name, args) in enumerate(cases(work)):
            old_cwd = work / f"{i}-old"
            old = run_cli(old_tree, args, old_cwd, work / f"{i}-old-cache")
            # a fresh cache per case, so the first run here is always cold
            new_cache = work / f"{i}-new-cache"
            kinds = cached_kinds(args)
            passes = ("cold cache", "warm cache") if kinds else (None,)
            for n, cache_state in enumerate(passes):
                new_cwd = work / f"{i}-new-{n}"
                new = run_cli(ROOT, args, new_cwd, new_cache)
                label = name if cache_state is None else f"{name}, {cache_state}"
                diff = first_difference(old, new, old_cwd / "out", new_cwd / "out")
                missing = [kind for kind in kinds
                           if not any(new_cache.glob(f"termsift/{kind}-*.marshal"))]
                if (diff is None and cache_state == "cold cache" and new.returncode == 0
                        and missing):
                    diff = f"no {' or '.join(missing)} cache entry written"
                left = [p for d in (new_cwd, new_cache) for p in sorted(d.rglob("*.tmp"))]
                if diff is None and left:
                    diff = f"temporary file {left[0]} left behind"
                compared += 1
                if diff is None:
                    print(f"same: {label} (exit {new.returncode})")
                else:
                    print(f"differs: {label}: {diff}")
                    differing += 1
    if differing:
        print(f"{differing} of {compared} comparisons differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
