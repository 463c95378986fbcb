"""Deeper property-based tests on core data structures.

Includes a brute-force reference implementation and a copy of the
dynamic program for the restricted Damerau-Levenshtein distance, both
cross-checking the bit-vector kernel, invariant checks for K-medoids
outputs, and a stateful model test of the fake filesystem.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis.distance import clear_distance_caches, distance_matrix
from repro.analysis.dld import damerau_levenshtein, dld_bounds, normalized_dld
from repro.analysis.kmedoids import kmedoids, silhouette_score
from repro.honeypot.fs import FakeFilesystem


def reference_dld(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Naive memoized restricted-DLD (optimal string alignment)."""

    @lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        best = min(
            solve(i - 1, j) + 1,
            solve(i, j - 1) + 1,
            solve(i - 1, j - 1) + cost,
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, solve(i - 2, j - 2) + cost)
        return best

    return solve(len(a), len(b))


def dp_dld(a, b) -> int:
    """Restricted DLD by the O(len_a·len_b) dynamic program, with
    two/three rolling rows of the DP matrix — the kernel's oracle."""
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    previous2: list[int] = [0] * (len_b + 1)
    previous = list(range(len_b + 1))
    current = [0] * (len_b + 1)
    for i in range(1, len_a + 1):
        current[0] = i
        for j in range(1, len_b + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost, # substitution
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + cost)
        previous2, previous, current = previous, current, previous2
    return previous[len_b]


_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


class TestDldAgainstReference:
    @given(_tokens, _tokens)
    @settings(max_examples=250)
    def test_matches_reference(self, a, b):
        assert damerau_levenshtein(a, b) == reference_dld(tuple(a), tuple(b))

    def test_transposition_cases(self):
        # classic OSA cases
        assert damerau_levenshtein(list("ca"), list("abc")) == 3
        assert damerau_levenshtein(list("ab"), list("ba")) == 1
        assert damerau_levenshtein(list("abcd"), list("badc")) == 2


class TestDldMetricProperties:
    """Invariants the clustering pipeline relies on (ISSUE 2)."""

    @given(_tokens, _tokens)
    @settings(max_examples=200)
    def test_symmetry(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)
        assert normalized_dld(a, b) == normalized_dld(b, a)

    @given(_tokens)
    @settings(max_examples=100)
    def test_identity(self, a):
        assert damerau_levenshtein(a, a) == 0
        assert normalized_dld(a, a) == 0.0

    @given(_tokens, _tokens)
    @settings(max_examples=200)
    def test_length_difference_and_max_length_bounds(self, a, b):
        # |len(a)-len(b)| <= DLD <= max(len(a), len(b)) — the bounds the
        # sketch prefilter pins pairs with must actually bound.
        lower, upper = dld_bounds(a, b)
        assert lower == abs(len(a) - len(b))
        assert upper == max(len(a), len(b))
        assert lower <= damerau_levenshtein(a, b) <= upper

    @given(_tokens, _tokens)
    @settings(max_examples=200)
    def test_normalized_in_unit_interval(self, a, b):
        value = normalized_dld(a, b)
        assert 0.0 <= value <= 1.0
        if not a and not b:
            assert value == 0.0
        elif bool(a) != bool(b):
            # one side empty: the bounds coincide
            assert value == 1.0

    @given(_tokens.filter(lambda t: len(t) >= 2), st.data())
    @settings(max_examples=150)
    def test_single_adjacent_transposition_costs_one(self, a, data):
        index = data.draw(st.integers(min_value=0, max_value=len(a) - 2))
        assume(a[index] != a[index + 1])
        swapped = a[:index] + [a[index + 1], a[index]] + a[index + 2 :]
        assert damerau_levenshtein(a, swapped) == 1

    @given(_tokens, _tokens, _tokens)
    @settings(max_examples=150)
    def test_relaxed_triangle_bound(self, a, b, c):
        # Restricted DLD (optimal string alignment) is NOT a metric — it
        # can violate the triangle inequality — but it is sandwiched by
        # plain Levenshtein (a transposition is two Levenshtein edits),
        # which gives the provable 2x relaxation used to reason about
        # cluster separations.
        direct = damerau_levenshtein(a, c)
        detour = damerau_levenshtein(a, b) + damerau_levenshtein(b, c)
        assert direct <= 2 * detour or direct == 0

    def test_triangle_inequality_violation_documented(self):
        # The classic OSA counterexample: d(ca, abc) = 3 but the detour
        # through "ac" costs only 1 + 1.  Downstream code treats DLD as
        # a dissimilarity, never as a true metric.
        a, b, c = list("ca"), list("ac"), list("abc")
        assert damerau_levenshtein(a, c) > (
            damerau_levenshtein(a, b) + damerau_levenshtein(b, c)
        )


@st.composite
def kernel_pairs(draw, min_size: int, max_size: int):
    """Token-sequence pairs over an alphabet of 1–5 tokens: independent
    draws, transposition-heavy rewrites of one side, or an empty side."""
    alphabet = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    a = draw(
        st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size)
    )
    shape = draw(st.sampled_from(("independent", "transposed", "empty")))
    if shape == "independent":
        b = draw(
            st.lists(
                st.sampled_from(alphabet), min_size=min_size, max_size=max_size
            )
        )
    elif shape == "transposed":
        b = list(a)
        if len(b) >= 2:
            swaps = st.integers(min_value=0, max_value=len(b) - 2)
            for index in draw(st.lists(swaps, max_size=len(b))):
                b[index], b[index + 1] = b[index + 1], b[index]
    else:
        b = []
    return (b, a) if draw(st.booleans()) else (a, b)


@pytest.mark.cluster
class TestBitVectorKernel:
    """The bit-vector kernel equals the DP oracle, inside and past one
    64-bit machine word and past 256 tokens, and the matrix builder
    equals a pair-by-pair loop over the kernel."""

    @given(kernel_pairs(0, 12))
    @settings(max_examples=400)
    def test_matches_dp_on_short_sequences(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == dp_dld(a, b)

    @given(st.one_of(kernel_pairs(65, 100), kernel_pairs(257, 300)))
    @settings(max_examples=40, deadline=None)
    def test_matches_dp_on_long_sequences(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == dp_dld(a, b)

    @given(st.lists(_tokens, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_distance_matrix_matches_naive_double_loop(self, sequences):
        clear_distance_caches()
        matrix = distance_matrix(sequences)
        for i, a in enumerate(sequences):
            for j, b in enumerate(sequences):
                assert matrix[i, j] == normalized_dld(a, b)
        assert np.array_equal(matrix, matrix.T)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = np.zeros((n, n))
    index = 0
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = values[index]
            index += 1
    return matrix


class TestKMedoidsInvariants:
    @given(distance_matrices(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_output_invariants(self, matrix, k):
        n = matrix.shape[0]
        k = min(k, n)
        result = kmedoids(matrix, k, seed=1)
        assert len(result.labels) == n
        assert result.inertia >= 0.0
        assert len(result.medoids) == k
        # labels reference valid clusters; every medoid belongs to its
        # own cluster
        assert set(result.labels.tolist()) <= set(range(k))
        for cluster, medoid in enumerate(result.medoids):
            members = result.members(cluster)
            if members.size:
                assert result.labels[medoid] == cluster

    @given(distance_matrices())
    @settings(max_examples=40, deadline=None)
    def test_silhouette_bounds(self, matrix):
        n = matrix.shape[0]
        result = kmedoids(matrix, min(3, n), seed=0)
        score = silhouette_score(matrix, result.labels)
        assert -1.0 <= score <= 1.0


class FilesystemMachine(RuleBasedStateMachine):
    """Model-based test: FakeFilesystem vs a dict model."""

    def __init__(self):
        super().__init__()
        self.fs = FakeFilesystem()
        self.model: dict[str, bytes] = {}

    names = st.sampled_from(["a", "b", "c", "deep/x", "deep/y"])
    payloads = st.binary(max_size=16)

    @rule(name=names, payload=payloads)
    def write(self, name, payload):
        path = f"/tmp/{name}"
        self.fs.write(path, payload)
        self.model[path] = payload

    @rule(name=names, payload=payloads)
    def append(self, name, payload):
        path = f"/tmp/{name}"
        self.fs.write(path, payload, append=True)
        self.model[path] = self.model.get(path, b"") + payload

    @rule(name=names)
    def delete(self, name):
        path = f"/tmp/{name}"
        existed_model = path in self.model
        existed_fs = self.fs.delete(path)
        assert existed_fs == existed_model
        self.model.pop(path, None)

    @rule()
    def delete_tree(self):
        doomed = self.fs.delete_tree("/tmp/deep")
        expected = {p for p in self.model if p.startswith("/tmp/deep/")}
        assert set(doomed) == expected
        for path in expected:
            del self.model[path]

    @invariant()
    def contents_agree(self):
        for path, payload in self.model.items():
            assert self.fs.read(path) == payload
        for name in ("a", "b", "c"):
            path = f"/tmp/{name}"
            if path not in self.model:
                assert self.fs.read(path) is None

    @invariant()
    def baseline_untouched(self):
        assert self.fs.is_file("/etc/passwd")


TestFilesystemMachine = FilesystemMachine.TestCase
