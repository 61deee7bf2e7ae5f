"""Porter stemmer for English, after M. F. Porter's 1980 algorithm.

Implements steps 1a through 5b exactly as published, including the
ABLI -> ABLE rule of step 2 (no LOGI rule, which later revisions added)
and no special-casing of very short words. Input is expected to be a
lowercase token; the function is total and never raises.

Every condition reads a word's letter classes, one `c` or `v` per
letter: a, e, i, o, u and a y after a consonant are vowels, all else
consonants. The measure m of [C](VC)^m[V] counts the `vc` pairs, *v* is
any `v`, and *d and *o read the last classes and letters. Steps 1a, 2, 3
and 4 list their rules longest suffix first: the first suffix a word
ends with is the one the step considers, and if its condition fails no
shorter suffix is tried. Each table also holds its suffixes as one
tuple, built at import, so a word that ends with none of them leaves
the step after a single `endswith` call.
"""

from __future__ import annotations


def _classes(word: str) -> str:
    """`c` or `v` per letter of `word`."""
    classes = ""
    for ch in word:
        classes += "v" if ch in "aeiou" or (ch == "y" and classes[-1:] == "c") else "c"
    return classes


def _ends_cvc(word: str, classes: str) -> bool:
    """*o: consonant-vowel-consonant, the last consonant not w, x or y."""
    return classes.endswith("cvc") and word[-1] not in "wxy"


_Rules = tuple[tuple[str, str], ...]


def _table(*rules: tuple[str, str]) -> tuple[tuple[str, ...], _Rules]:
    """A step's suffixes, for one `endswith` test, and its rules."""
    return tuple(suffix for suffix, _ in rules), rules


_STEP1A = _table(
    ("sses", "ss"),
    ("ies", "i"),
    ("ss", "ss"),
    ("s", ""),
)

_STEP2 = _table(
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP3 = _table(
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4 = _table(
    ("ement", ""),
    ("ance", ""),
    ("ence", ""),
    ("able", ""),
    ("ible", ""),
    ("ment", ""),
    ("ant", ""),
    ("ent", ""),
    ("ion", ""),
    ("ism", ""),
    ("ate", ""),
    ("iti", ""),
    ("ous", ""),
    ("ive", ""),
    ("ize", ""),
    ("al", ""),
    ("er", ""),
    ("ic", ""),
    ("ou", ""),
)


def _replace_suffix(word: str, table: tuple[tuple[str, ...], _Rules], min_measure: int) -> str:
    """Replace the first suffix of the table's rules that `word` ends
    with, if the stem left has a measure of at least `min_measure` (and,
    for ION, ends in S or T); else `word` unchanged."""
    suffixes, rules = table
    if not word.endswith(suffixes):
        return word
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if min_measure and _classes(stem).count("vc") < min_measure:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem + replacement
    return word


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if "vc" in _classes(w[:-3]) else w
    if w.endswith("ed"):
        stem = w[:-2]
    elif w.endswith("ing"):
        stem = w[:-3]
    else:
        return w
    classes = _classes(stem)
    if "v" not in classes:
        return w
    # ED or ING was removed; tidy up the stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] == stem[-2:-1] and classes[-1] == "c" and stem[-1] not in "lsz":
        return stem[:-1]
    if classes.count("vc") == 1 and _ends_cvc(stem, classes):
        return stem + "e"
    return stem


def _step1c(w: str) -> str:
    if w.endswith("y") and "v" in _classes(w[:-1]):
        return w[:-1] + "i"
    return w


def _step5a(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        classes = _classes(stem)
        m = classes.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, classes)):
            return stem
    return w


def _step5b(w: str) -> str:
    # *d and L: the word ends in LL, and L is always a consonant
    if w.endswith("ll") and _classes(w).count("vc") > 1:
        return w[:-1]
    return w


def porter_stem(term: str) -> str:
    """Stem one lowercase English token."""
    w = _replace_suffix(term, _STEP1A, 0)
    w = _step1c(_step1b(w))
    w = _replace_suffix(w, _STEP2, 1)
    w = _replace_suffix(w, _STEP3, 1)
    w = _replace_suffix(w, _STEP4, 2)
    return _step5b(_step5a(w))
