"""Damerau-Levenshtein distance over token sequences.

Implements the restricted (optimal-string-alignment) Damerau-
Levenshtein distance with each *token* treated as one symbol, as the
paper specifies: "mkdir /tmp" vs "cd /tmp" has distance 1.

The distance is computed with Hyyrö's exact bit-vector algorithm
(H. Hyyrö, "A bit-vector algorithm for computing Levenshtein and
Damerau edit distances", Nordic Journal of Computing 10(1), 2003):
one column of the DP matrix is held as vertical-delta bit vectors over
the longer sequence, so a pair costs O(len(shorter)) operations on
Python's unbounded ints instead of O(len(a)·len(b)) interpreted DP
cells.  The integer result is the DP's, exactly (tests/test_properties.py
pins it against a DP oracle).
"""

from __future__ import annotations

from typing import Sequence


def dld_bounds(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Cheap ``(lower, upper)`` bounds on the token-level DLD.

    Every edit changes the length by at most one and no alignment needs
    more edits than replacing the shorter sequence wholesale, so

        ``|len(a) - len(b)|  <=  DLD(a, b)  <=  max(len(a), len(b))``.

    When the bounds coincide (one sequence is empty) the distance is
    pinned — the sketch prefilter measures such pairs without a
    signature match.
    """
    len_a, len_b = len(a), len(b)
    return abs(len_a - len_b), max(len_a, len_b)


def damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Token-level DLD (substitution, insertion, deletion, transposition)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # Bit i of masks[token] is set where a[i] == token.
    masks: dict[str, int] = {}
    bit = 1
    for token in a:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    # Vertical deltas of the current DP column (+1 / -1 bits), the
    # diagonal zero-delta bits and the previous token's match mask.
    plus, minus, zero, previous = full, 0, 0, 0
    distance = len(a)
    for token in b:
        match = masks.get(token, 0)
        transposed = ((~zero & match) << 1) & previous
        zero = (
            (((match & plus) + plus) ^ plus) | match | minus | transposed
        ) & full
        h_plus = minus | ~(zero | plus)
        h_minus = zero & plus
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = (h_plus << 1) | 1
        minus = h_plus & zero
        plus = ((h_minus << 1) | ~(h_plus | zero)) & full
        previous = match
    return distance


def normalized_dld(a: Sequence[str], b: Sequence[str]) -> float:
    """DLD divided by the longer sequence length (0 = identical)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return damerau_levenshtein(a, b) / longest
