"""Stemmer tests: reference fixture agreement and properties of ``porter.stem``."""

import itertools

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


def reference_conditions(word):
    """Porter's conditions on ``word``, from his definitions: a, e, i, o
    and u are vowels, and so is a y that follows a consonant; every other
    letter is a consonant. m counts the vowel runs that a consonant follows;
    *v* asks for a vowel; *o for consonant, vowel, consonant at the end, the
    last not w, x or y; *d for two equal letters at the end, the last a
    consonant."""
    vowel = []
    for i, ch in enumerate(word):
        vowel.append(ch in "aeiou" or (ch == "y" and i > 0 and not vowel[i - 1]))
    runs = [is_vowel for is_vowel, _ in itertools.groupby(vowel)]
    m = sum(runs[i] and not runs[i + 1] for i in range(len(runs) - 1))
    return (m, any(vowel),
            vowel[-3:] == [False, True, False] and word[-1] not in "wxy",
            len(word) >= 2 and word[-1] == word[-2] and not vowel[-1])


def conditions(word):
    return (porter._measure(word), porter._has_vowel(word), porter._ends_cvc(word),
            porter._ends_double_consonant(word))


@pytest.mark.parametrize(
    "word,expected",
    [
        ("y", (0, False, False, False)),  # a leading y is a consonant
        ("yes", (1, True, True, False)),
        ("yy", (0, True, False, False)),  # the second y follows a consonant
        ("byy", (1, True, False, True)),  # *d looks at the class of the last y only
        ("ayy", (1, True, False, False)),
        ("toy", (1, True, False, False)),  # a y after a vowel is a consonant
        ("boyish", (2, True, False, False)),
        ("syzygy", (2, True, False, False)),
    ],
)
def test_conditions_on_y(word, expected):
    assert conditions(word) == reference_conditions(word) == expected


# many y's and vowels, so that y follows both classes often
y_heavy_words = st.text(
    alphabet=st.one_of(st.just("y"), st.sampled_from("aeiou"),
                       st.sampled_from("abcdefghijklmnopqrstuvwxyz")),
    min_size=1, max_size=12)


@given(y_heavy_words)
def test_conditions_match_porters_definitions(word):
    assert conditions(word) == reference_conditions(word)
    # the helpers measure a prefix by its own form
    form = porter._form(word)
    assert all(porter._form(word[:k]) == form[:k] for k in range(len(word)))
