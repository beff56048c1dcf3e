"""The per-document text steps: tokenization, stopword removal and Porter
stemming, plus ``TermVector``, the per-document term counts they yield.

They work on one document; ``pipeline.extract_terms`` applies them to a
whole corpus as steps 1-3 of the pipeline.

``porter_stem`` resolves to the compiled extension when it was built, and
to the pure-Python module otherwise; both implement the identical
algorithm (see ``benchmarks/bench_stemmer.py`` for the speed difference).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from termsift.corpus import StopwordList

try:
    from termsift._porter import stem as porter_stem

    USING_COMPILED_STEMMER = True
except ImportError:  # pragma: no cover - depends on the build
    from termsift.porter import stem as porter_stem

    USING_COMPILED_STEMMER = False

_TOKEN_RE = re.compile(r"[a-z]+")


@dataclass(frozen=True)
class TermVector:
    """Term -> occurrence count for one document; total is the count sum."""

    doc_id: str
    counts: Mapping[str, int]
    total: int


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-letters, drop tokens shorter than 2 chars."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def remove_stopwords(tokens: Iterable[str], stopwords: StopwordList) -> list[str]:
    return [t for t in tokens if t not in stopwords]
