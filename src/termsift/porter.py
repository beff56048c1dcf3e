"""Porter suffix-stripping stemmer, the one stemmer of step 3.

Implements the classic 1980 algorithm (steps 1a, 1b + continuation, 1c,
2, 3, 4, 5a, 5b) including the two conventional amendments carried by the
author's own later implementations (-bli/-logi handling in step 2), which
is the behaviour the widely circulated reference vocabulary/output pair
was generated with.

``stem`` is a pure function of the word, so ``pipeline.extract_terms``
calls it once per distinct token of a run and reuses the result.
"""

from __future__ import annotations

__all__ = ["stem"]

_VOWELS = "aeiou"


def _is_consonant(b: str, i: int) -> bool:
    ch = b[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(b, i - 1)
    return True


def _measure(b: str, j: int) -> int:
    """Number of vowel->consonant transitions in b[0..j] (the "m" value)."""
    i = 0
    while True:
        if i > j:
            return 0
        if not _is_consonant(b, i):
            break
        i += 1
    i += 1
    n = 0
    while True:
        while True:
            if i > j:
                return n
            if _is_consonant(b, i):
                break
            i += 1
        i += 1
        n += 1
        while True:
            if i > j:
                return n
            if not _is_consonant(b, i):
                break
            i += 1
        i += 1


def _has_vowel(b: str, j: int) -> bool:
    return any(not _is_consonant(b, i) for i in range(j + 1))


def _double_consonant(b: str, k: int) -> bool:
    return k > 0 and b[k] == b[k - 1] and _is_consonant(b, k)


def _cvc(b: str, i: int) -> bool:
    """consonant-vowel-consonant ending at i, last consonant not w, x or y."""
    if i < 2 or not _is_consonant(b, i) or _is_consonant(b, i - 1) or not _is_consonant(b, i - 2):
        return False
    return b[i] not in "wxy"


def _step1ab(b: str) -> str:
    if b.endswith("s"):
        if b.endswith("sses"):
            b = b[:-2]
        elif b.endswith("ies"):
            b = b[:-3] + "i"
        elif len(b) >= 2 and b[-2] != "s":
            b = b[:-1]
    if b.endswith("eed"):
        if _measure(b, len(b) - 4) > 0:
            b = b[:-1]
    elif (b.endswith("ed") and _has_vowel(b, len(b) - 3)) or (
        b.endswith("ing") and _has_vowel(b, len(b) - 4)
    ):
        b = b[:-2] if b.endswith("ed") else b[:-3]
        if b.endswith("at") or b.endswith("bl") or b.endswith("iz"):
            b += "e"
        elif _double_consonant(b, len(b) - 1):
            if b[-1] not in "lsz":
                b = b[:-1]
        elif _measure(b, len(b) - 1) == 1 and _cvc(b, len(b) - 1):
            b += "e"
    return b


def _step1c(b: str) -> str:
    if b.endswith("y") and _has_vowel(b, len(b) - 2):
        b = b[:-1] + "i"
    return b


# Rule tables for steps 2-4, keyed by the character the original algorithm
# switches on. Within a group the first suffix match wins, whether or not
# the measure condition then allows the rewrite.
_STEP2_RULES = {
    "a": (("ational", "ate"), ("tional", "tion")),
    "c": (("enci", "ence"), ("anci", "ance")),
    "e": (("izer", "ize"),),
    "l": (("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous")),
    "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
    "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous")),
    "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    "g": (("logi", "log"),),
}

_STEP3_RULES = {
    "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
    "i": (("iciti", "ic"),),
    "l": (("ical", "ic"), ("ful", "")),
    "s": (("ness", ""),),
}

_STEP4_SUFFIXES = {
    "a": ("al",),
    "c": ("ance", "ence"),
    "e": ("er",),
    "i": ("ic",),
    "l": ("able", "ible"),
    "n": ("ant", "ement", "ment", "ent"),
    "o": ("ion", "ou"),
    "s": ("ism",),
    "t": ("ate", "iti"),
    "u": ("ous",),
    "v": ("ive",),
    "z": ("ize",),
}


def _apply_rules(b: str, rules, min_measure: int) -> str:
    # The first matching suffix always ends the chain, even when the
    # measure condition then blocks the rewrite (a whole-buffer match has
    # measure 0 and is left alone).
    for suffix, replacement in rules:
        if b.endswith(suffix):
            stem_len = len(b) - len(suffix)
            if _measure(b, stem_len - 1) > min_measure:
                b = b[:stem_len] + replacement
            break
    return b


def _step2(b: str) -> str:
    rules = _STEP2_RULES.get(b[len(b) - 2])
    if rules:
        b = _apply_rules(b, rules, 0)
    return b


def _step3(b: str) -> str:
    rules = _STEP3_RULES.get(b[-1])
    if rules:
        b = _apply_rules(b, rules, 0)
    return b


def _step4(b: str) -> str:
    suffixes = _STEP4_SUFFIXES.get(b[len(b) - 2])
    if not suffixes:
        return b
    for suffix in suffixes:
        if b.endswith(suffix):
            stem_len = len(b) - len(suffix)
            if suffix == "ion" and b[stem_len - 1] not in "st":
                continue
            if _measure(b, stem_len - 1) > 1:
                b = b[:stem_len]
            break
    return b


def _step5(b: str) -> str:
    k = len(b) - 1
    j = k
    if b[k] == "e":
        m = _measure(b, j)
        if m > 1 or (m == 1 and not _cvc(b, k - 1)):
            k -= 1
    if b[k] == "l" and _double_consonant(b, k) and _measure(b, j) > 1:
        k -= 1
    return b[: k + 1]


def stem(word: str) -> str:
    """Return the Porter stem of a lowercase word.

    Words of length <= 2 are returned unchanged. Raises ``ValueError``
    for the empty string.
    """
    if not word:
        raise ValueError("cannot stem an empty string")
    if len(word) <= 2:
        return word
    b = _step1ab(word)
    b = _step1c(b)
    b = _step2(b)
    b = _step3(b)
    b = _step4(b)
    return _step5(b)
