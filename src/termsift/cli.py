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
no flag or config key names it.

Exit codes: 0 success, 1 usage error, 2 input data error, 3 internal error.
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
    LOG_BASES, WORDNET_POLICIES, PipelineConfig, export_weights, run_chain, run_pipeline,
)
from termsift.porter import stem as porter_stem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

WORDNET_ENV = "WNSEARCHDIR"

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
    p.add_argument("--aggregation", choices=weighting.AGGREGATIONS)
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


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    values: dict[str, str] = {}
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
        values[key.strip().replace("-", "_")] = value.strip()
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


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Flags win over the config file; unset fields keep PipelineConfig's defaults."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
            values[key] = _CONFIG_KEYS[key][1](raw)
    values.update({key: getattr(args, key) for key in _CONFIG_KEYS
                   if getattr(args, key, None) is not None})
    if args.corpus_pos:
        values["corpus"] = args.corpus_pos
    if "corpus" not in values:
        raise _UsageExit("a corpus directory is required (positional or --corpus)")
    values.setdefault("wordnet_dir", os.environ.get(WORDNET_ENV))
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
        for term in sorted(v.counts):
            print(f"{v.doc_id},{term},{v.counts[term]}")
    return EXIT_OK


def _cmd_weigh(args) -> int:
    config = _resolve_config(args)
    result = run_chain(config, last_step=6, schemes=(args.scheme,))
    paths = export_weights(Path(config.out_dir), result.matrices, config.matrix_format)
    print(paths[f"matrix_{args.scheme}"])
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
    wordnet_dir = args.wordnet_dir or os.environ.get(WORDNET_ENV)
    if not wordnet_dir:
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
        return _COMMANDS[args.command](args)
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
