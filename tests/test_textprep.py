import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termsift.corpus import StopwordList
from termsift.textprep import remove_stopwords, tokenize

SW = StopwordList(words=frozenset({"the", "of", "and", "a", "is"}))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The Quick-Brown fox!") == ["the", "quick", "brown", "fox"]

    def test_digits_and_punctuation_split(self):
        assert tokenize("abc123def, ghi.jkl") == ["abc", "def", "ghi", "jkl"]

    def test_single_letters_dropped(self):
        assert tokenize("a b cd e fg") == ["cd", "fg"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("123 !!! 7") == []

    def test_unicode_letters_ignored(self):
        # tokens are ascii a-z runs; accented letters act as separators
        assert tokenize("café naïve") == ["caf", "na", "ve"]

    @given(st.one_of(st.text(), st.text(alphabet="abZ xY1-\u00e9\u0130\u212a\u00df\u0131.")))
    def test_same_tokens_as_filtering_every_letter_run(self, text):
        # the earlier definition: every maximal a-z run, then a length filter;
        # U+0130 and U+212A lowercase to text holding ASCII letters; U+00E9,
        # U+00DF and U+0131 stay non-ASCII and split runs
        reference = [t for t in re.findall(r"[a-z]+", text.lower()) if len(t) >= 2]
        assert tokenize(text) == reference

    @given(st.text())
    def test_tokens_always_lowercase_alpha(self, text):
        for t in tokenize(text):
            assert len(t) >= 2
            assert t.isascii() and t.isalpha() and t == t.lower()


class TestStopwords:
    def test_removal(self):
        assert remove_stopwords(["the", "cat", "is", "fast"], SW) == ["cat", "fast"]

    def test_preserves_order_and_duplicates(self):
        toks = ["cat", "dog", "cat", "the", "cat"]
        assert remove_stopwords(toks, SW) == ["cat", "dog", "cat", "cat"]

