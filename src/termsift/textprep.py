"""The per-document text steps before stemming: tokenization and stopword
removal, plus ``TermVector``, the per-document term counts steps 1-3 yield.

They work on one document; ``pipeline.extract_terms`` applies them, and the
stemmer ``termsift.porter.stem``, to a whole corpus as steps 1-3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from termsift.corpus import StopwordList

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
