"""Text normalisation and string-distance helpers.

These are the string-level building blocks used by the embedding simulators
(character n-grams), the lexical distance functions in ``matching.distance``,
and the corruption generators in ``datasets.corruptions``.
"""

from __future__ import annotations

import re
import unicodedata
from typing import List, Sequence, Set

_WHITESPACE_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def normalize_value(value: object) -> str:
    """Normalise a cell value for comparison.

    Lower-cases, strips accents, collapses internal whitespace and trims the
    ends.  ``None`` maps to the empty string so callers can treat nulls
    uniformly.

    >>> normalize_value("  Berlín ")
    'berlin'
    """
    if value is None:
        return ""
    text = str(value)
    # Accent stripping only matters for non-ASCII text; ``str.isascii`` is a
    # C-speed scan, and data-lake values are overwhelmingly ASCII — skipping
    # the NFKD decomposition + combining-mark filter here roughly halves the
    # cost of the blocking hot path.
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower()
    text = _WHITESPACE_RE.sub(" ", text)
    return text.strip()


def tokenize(value: object, *, normalized: bool = False) -> List[str]:
    """Split a value into lower-case alphanumeric tokens.

    Pass ``normalized=True`` when ``value`` already went through
    :func:`normalize_value` — hot loops (the blocker computes keys for every
    value of every column pair) normalise once and reuse the result.

    >>> tokenize("New Delhi (IN)")
    ['new', 'delhi', 'in']
    """
    text = value if normalized and isinstance(value, str) else normalize_value(value)
    return _TOKEN_RE.findall(text)


def character_ngrams(value: object, n: int = 3, pad: bool = True, *, normalized: bool = False) -> List[str]:
    """Return the character ``n``-grams of a normalised value.

    With ``pad=True`` the string is wrapped in boundary markers the way
    fastText does, so prefixes and suffixes produce distinctive grams.
    ``normalized=True`` skips the re-normalisation (see :func:`tokenize`).

    >>> character_ngrams("ab", n=3)
    ['<ab', 'ab>']
    """
    text = value if normalized and isinstance(value, str) else normalize_value(value)
    if not text:
        return []
    if pad:
        text = f"<{text}>"
    if len(text) <= n:
        return [text]
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def levenshtein(left: object, right: object) -> int:
    """Classic Levenshtein edit distance between two (normalised) values."""
    a = normalize_value(left)
    b = normalize_value(right)
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_edit_similarity(left: object, right: object) -> float:
    """Edit-distance similarity scaled to [0, 1] (1 means identical)."""
    a = normalize_value(left)
    b = normalize_value(right)
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaccard_similarity(left: Sequence[str] | Set[str], right: Sequence[str] | Set[str]) -> float:
    """Jaccard similarity of two token collections (1 when both are empty)."""
    set_left = set(left)
    set_right = set(right)
    if not set_left and not set_right:
        return 1.0
    union = set_left | set_right
    if not union:
        return 1.0
    return len(set_left & set_right) / len(union)

