"""Stemmer tests: reference fixture agreement and properties of ``porter.stem``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termsift import porter

# The stemmer under test, passed as a parameter so that every case keeps its
# "pure" test id.
STEMMER = pytest.mark.parametrize("stem", [porter.stem], ids=["pure"])


@pytest.mark.parametrize(
    "word,expected",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("hopping", "hop"),
        ("falling", "fall"),
        ("sized", "size"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("vietnamization", "vietnam"),
        ("triplicate", "triplic"),
        ("hopefulness", "hope"),
        ("probate", "probat"),
        ("rate", "rate"),
        ("controll", "control"),
        ("roll", "roll"),
        ("running", "run"),
    ],
)
@STEMMER
def test_known_words(stem, word, expected):
    assert stem(word) == expected


@STEMMER
def test_short_words_unchanged(stem):
    for w in ("a", "is", "by", "ox"):
        assert stem(w) == w


@STEMMER
def test_empty_word_rejected(stem):
    with pytest.raises(ValueError):
        stem("")


@STEMMER
def test_full_reference_fixture(stem, porter_fixture):
    mismatches = [(w, stem(w), exp) for w, exp in porter_fixture if stem(w) != exp]
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30)


@given(words)
def test_output_nonempty_and_bounded(word):
    out = porter.stem(word)
    assert out
    # step 1b can append an "e" after stripping, never more
    assert len(out) <= len(word) + 1

