"""Command-line interface.

Subcommands:
    stats       dataset statistics only
    preprocess  per-document term vectors as doc_id,term,count triplets
    weigh       one weight matrix export (stages 1-6)
    select      the full pipeline (stages 1-7) with reports
    stem        Porter stems for words given on the command line
    lex         WordNet lexical categories for words

Options can come from a flat key=value config file (``--config``); flags
win over the file. The WordNet directory falls back to $WNSEARCHDIR when
no flag or config key names it. An empty path (corpus, stop words, out,
WordNet directory or $WNSEARCHDIR) counts as none.

Exit codes: 0 success, 1 usage error, 2 input data error, 3 internal error,
141 (128 + SIGPIPE, as a shell reports for ``cat``) when standard output is
closed before the output is written, e.g. by ``| head -1``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from termsift import __version__
from termsift import corpus as corpus_io
from termsift import weighting, wordnet
from termsift.errors import TermsiftError
from termsift.pipeline import (
    LOG_BASES, WORDNET_POLICIES, PipelineConfig, run_chain, run_pipeline, run_weigh,
)
from termsift.porter import stem as porter_stem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

WORDNET_ENV = "WNSEARCHDIR"

# an earlier spelling kept for flags and config files: under a >= threshold,
# "some document's weight clears it" is "the max clears it"
_AGGREGATION_ALIASES = {"any-doc": "max"}

log = logging.getLogger("termsift.cli")


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageExit(message)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus_pos", nargs="?", metavar="corpus", help="corpus root directory")
    p.add_argument("--corpus", help="corpus root directory (alternative to the positional)")
    p.add_argument("--layout", choices=corpus_io.LAYOUTS)
    p.add_argument("--stopwords", help="stopword file (default: bundled list)")
    p.add_argument("--wordnet-dir", help=f"WordNet database directory (default: ${WORDNET_ENV})")
    p.add_argument("--wordnet-policy", choices=WORDNET_POLICIES)
    p.add_argument("--alpha", type=float, help="minimum tf-idf threshold")
    p.add_argument("--beta", type=float, help="minimum tf-df threshold")
    p.add_argument("--gamma", type=float, help="minimum tf2 threshold")
    p.add_argument("--aggregation", choices=(*weighting.AGGREGATIONS, *_AGGREGATION_ALIASES),
                   help="per-term aggregation over documents (any-doc is max)")
    p.add_argument("--log-base", choices=sorted(LOG_BASES))
    p.add_argument("--min-count", type=int, help="corpus frequency floor for terms")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=weighting.EXPORT_FORMATS,
                   help="matrix export format")
    p.add_argument("--config", help="flat key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="termsift", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"termsift {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("stats", "dataset statistics (documents, classes, average length)"),
        ("preprocess", "dump per-document term vectors (stages 1-3)"),
        ("weigh", "export one weight matrix (stages 1-6)"),
        ("select", "full key-term selection pipeline (stages 1-7)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(p)
        if name == "weigh":
            p.add_argument("--scheme", choices=weighting.SCHEMES, default="tfidf")

    p = sub.add_parser("stem", help="print Porter stems, one per line")
    p.add_argument("words", nargs="+")

    p = sub.add_parser("lex", help="print WordNet lexical categories per word")
    p.add_argument("words", nargs="+")
    p.add_argument("--wordnet-dir", help=f"WordNet database directory (default: ${WORDNET_ENV})")
    return parser


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Each key -> where its value was set (``<file>:<line>``) and the value."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(p.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{p}:{lineno}: not valid UTF-8") from exc
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"{p}:{lineno}: config key {key!r} is already set "
                             f"at {values[key][0]}")
        values[key] = (f"{p}:{lineno}", value.strip())
    return values


# config-file key (also the flag's dest) -> PipelineConfig field, value type
_CONFIG_KEYS = {
    "corpus": ("corpus_path", str), "layout": ("layout", str),
    "stopwords": ("stopword_path", str), "wordnet_dir": ("wordnet_dir", str),
    "wordnet_policy": ("wordnet_policy", str), "alpha": ("alpha", float),
    "beta": ("beta", float), "gamma": ("gamma", float), "aggregation": ("aggregation", str),
    "log_base": ("log_base", str), "min_count": ("min_count", int),
    "out": ("out_dir", str), "format": ("matrix_format", str),
}


def _wordnet_dir(given: str | None) -> str | None:
    """``given`` (a flag or config value), else $WNSEARCHDIR; empty counts as unset."""
    return given or os.environ.get(WORDNET_ENV) or None


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Flags win over the config file; unset fields keep PipelineConfig's defaults."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        for key, (where, raw) in _read_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{where}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key][1](raw)
            except ValueError as exc:
                raise ValueError(f"{where}: invalid value for {key!r}: {exc}") from exc
    values.update({key: getattr(args, key) for key in _CONFIG_KEYS
                   if getattr(args, key, None) is not None})
    values = {key: value for key, value in values.items()  # an empty path counts as unset
              if value != "" or key not in ("corpus", "stopwords", "out")}
    if args.corpus_pos:
        if args.corpus is not None:
            raise _UsageExit("give the corpus directory once, as the positional or --corpus")
        values["corpus"] = args.corpus_pos
    if "corpus" not in values:
        raise _UsageExit("a corpus directory is required (positional or --corpus)")
    values["wordnet_dir"] = _wordnet_dir(values.get("wordnet_dir"))
    if values.get("aggregation") in _AGGREGATION_ALIASES:
        values["aggregation"] = _AGGREGATION_ALIASES[values["aggregation"]]
    return PipelineConfig(**{_CONFIG_KEYS[key][0]: value for key, value in values.items()})


def _cmd_stats(args) -> int:
    s = run_chain(_resolve_config(args), last_step=1).stats
    print(f"dataset\t{s.name}")
    print(f"documents\t{s.documents}")
    print(f"classes\t{s.classes}")
    print(f"largest_class\t{s.largest_class}")
    print(f"avg_doc_length\t{s.avg_doc_length}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    for v in run_chain(_resolve_config(args), last_step=3).terms.vectors:
        doc_id = weighting.csv_field(v.doc_id)
        for term in sorted(v.counts):
            print(f"{doc_id},{term},{v.counts[term]}")
    return EXIT_OK


def _cmd_weigh(args) -> int:
    print(run_weigh(_resolve_config(args), args.scheme))
    return EXIT_OK


def _cmd_select(args) -> int:
    config = _resolve_config(args)
    result = run_pipeline(config)
    for row in result.rows:
        threshold = "-" if row.threshold is None else f"{row.threshold:g}"
        print(f"{row.scheme}\tthreshold={threshold}\tterms={row.term_count}"
              f"\tkey_terms={row.key_term_count}\tremoved_pct={row.removed_pct}")
    print(f"artifacts written to {config.out_dir}")
    return EXIT_OK


def _cmd_stem(args) -> int:
    for word in args.words:
        lowered = word.lower()
        if not lowered.isascii() or not lowered.isalpha():
            raise _UsageExit(f"not an alphabetic word: {word!r}")
        print(porter_stem(lowered))
    return EXIT_OK


def _cmd_lex(args) -> int:
    wordnet_dir = _wordnet_dir(args.wordnet_dir)
    if wordnet_dir is None:
        raise _UsageExit(f"--wordnet-dir or ${WORDNET_ENV} is required for 'lex'")
    db = wordnet.load_wordnet(wordnet_dir)
    for word in args.words:
        entry = wordnet.lexical_categories(db, word.lower())
        cats = ",".join(sorted(entry.categories)) if entry.in_wordnet else "-"
        print(f"{word}\t{cats}")
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "preprocess": _cmd_preprocess,
    "weigh": _cmd_weigh,
    "select": _cmd_select,
    "stem": _cmd_stem,
    "lex": _cmd_lex,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"termsift: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; as the signal module's docs advise, point stdout
        # at devnull, so the flush at exit neither fails nor prints
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _UsageExit as exc:
        print(f"termsift: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, OSError, ValueError, TermsiftError) as exc:
        print(f"termsift: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # invariant violations and genuine bugs
        print(f"termsift: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
