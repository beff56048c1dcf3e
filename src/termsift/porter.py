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

# "v" for a, e, i, o and u, "c" for the other letters; _form settles each "y"
_CLASSES = str.maketrans("abcdefghijklmnopqrstuvwxyz", "vcccvcccvcccccvcccccvcccyc")


def _form(s: str) -> str:
    """The consonant/vowel form of ``s``: "c" or "v" per letter, where "y" is
    a vowel after a consonant and a consonant anywhere else. A letter's class
    depends only on the letters before it: a prefix's form is a prefix."""
    form = s.translate(_CLASSES)
    i = form.find("y")
    while i >= 0:
        form = form[:i] + ("v" if i and form[i - 1] == "c" else "c") + form[i + 1:]
        i = form.find("y", i + 1)
    return form


def _measure(s: str) -> int:
    """m, the number of VC sequences when ``s`` is read as [C](VC)^m[V]."""
    return _form(s).count("vc")


def _has_vowel(s: str) -> bool:
    """*v*: ``s`` holds a vowel."""
    return "v" in _form(s)


def _ends_double_consonant(s: str) -> bool:
    """*d: ``s`` ends in a doubled letter, the last one a consonant."""
    return len(s) > 1 and s[-1] == s[-2] and _form(s)[-1] == "c"


def _ends_cvc(s: str) -> bool:
    """*o: ``s`` ends consonant-vowel-consonant, the last not w, x or y."""
    return _form(s)[-3:] == "cvc" and s[-1] not in "wxy"


def _step1ab(b: str) -> str:
    if b.endswith("s"):
        if b.endswith("sses"):
            b = b[:-2]
        elif b.endswith("ies"):
            b = b[:-3] + "i"
        elif len(b) >= 2 and b[-2] != "s":
            b = b[:-1]
    if b.endswith("eed"):
        if _measure(b[:-3]) > 0:
            b = b[:-1]
    elif (b.endswith("ed") and _has_vowel(b[:-2])) or (
        b.endswith("ing") and _has_vowel(b[:-3])
    ):
        b = b[:-2] if b.endswith("ed") else b[:-3]
        if b.endswith("at") or b.endswith("bl") or b.endswith("iz"):
            b += "e"
        elif _ends_double_consonant(b):
            if b[-1] not in "lsz":
                b = b[:-1]
        elif _measure(b) == 1 and _ends_cvc(b):
            b += "e"
    return b


def _step1c(b: str) -> str:
    if b.endswith("y") and _has_vowel(b[:-1]):
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
            base = b[:-len(suffix)]
            if _measure(base) > min_measure:
                b = base + replacement
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
            base = b[:-len(suffix)]
            if suffix == "ion" and not base.endswith(("s", "t")):
                continue
            if _measure(base) > 1:
                b = base
            break
    return b


def _step5(b: str) -> str:
    if b.endswith("e"):
        m = _measure(b)
        if m > 1 or (m == 1 and not _ends_cvc(b[:-1])):
            b = b[:-1]
    # a dropped final "e" was a vowel, which ends no VC, so m is unchanged
    if b.endswith("ll") and _measure(b) > 1:
        b = b[:-1]
    return b


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
