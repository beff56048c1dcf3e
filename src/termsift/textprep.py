"""The per-document text steps before stemming: tokenization and stopword
removal, plus ``TermVector``, the per-document term counts steps 1-3 yield.

They work on one document; ``pipeline.extract_terms`` applies them, and the
stemmer ``termsift.porter.stem``, to a whole corpus as steps 1-3.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple

from termsift.corpus import StopwordList

# letter runs are maximal, so a run the regex skips is exactly a one-letter token
_TOKEN_RE = re.compile(r"[a-z]{2,}")


class TermVector(NamedTuple):
    """Term -> occurrence count for one document."""

    doc_id: str
    counts: Mapping[str, int]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-letters, drop tokens shorter than 2 chars."""
    return _TOKEN_RE.findall(text.lower())


def is_token(word: str) -> bool:
    """Whether ``word`` has the shape of a token ``tokenize`` yields."""
    return _TOKEN_RE.fullmatch(word) is not None


def remove_stopwords(tokens: Iterable[str], stopwords: StopwordList) -> list[str]:
    words = stopwords.words  # the frozenset itself: one C-level test per token
    return [t for t in tokens if t not in words]
