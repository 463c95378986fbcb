"""Differential oracle suite: matrices vs the DP oracle, online vs batch.

The exact pipeline is the oracle; every fast or incremental path is
pinned against it:

* The paper-scale distance matrix sits below the sketch activation
  floor, so every pair is measured: the clustering reports one
  below-floor build, and the matrix equals one built pair by pair
  from the DP oracle (``tests/test_properties.py::dp_dld``)
  across the {none, paper, stress} fault profiles, both with every
  pair measured and with the floor forced to zero (pruned pairs hold
  the 1.0 upper bound).
* The online assign-or-spawn clusterer replays the batch sample as a
  stream; its divergence from the batch K-medoids labels is pinned
  with a committed golden (pair agreement ≥ the floor, exact golden
  values for the shared dataset).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import PROFILES, short_fault_config
from repro import telemetry
from repro.analysis.distance import distance_matrix
from repro.analysis.online import OnlineClusterer, pair_agreement
from repro.analysis.sketch import (
    DEFAULT_SKETCH_CONFIG,
    PRUNED_DISTANCE,
    SketchConfig,
    sketch_distance_matrix,
)
from repro.experiments.dataset import Dataset, build_dataset
from tests.test_properties import dp_dld

pytestmark = pytest.mark.cluster

#: Committed golden for the online replay over the shared paper-scale
#: dataset (seed 7): the incremental clusterer's divergence from the
#: batch oracle is allowed, but it must be exactly *this* divergence.
ONLINE_GOLDEN = {"clusters": 20, "agreement": 0.9579}

#: Floor on online-vs-batch pair agreement (Rand index) — applies to
#: every profile, not just the golden dataset.
ONLINE_AGREEMENT_FLOOR = 0.80


@pytest.fixture(scope="module")
def profile_datasets():
    """One dataset per fault profile (short window, shared cache)."""
    return {
        profile: build_dataset(short_fault_config(profile))
        for profile in PROFILES
    }


class TestExactVsLsh:
    """The input size picks the regime: paper scale is below the floor."""

    def test_lsh_clustering_reports_bypass_telemetry(self, dataset):
        fresh = Dataset(
            simulation=dataset.simulation,
            abuse=dataset.abuse,
            killnet_ips=dataset.killnet_ips,
            shadowserver=dataset.shadowserver,
        )
        with telemetry.collecting() as registry:
            fresh.clustering()
        assert registry.counters["sketch.bypassed"] == 1


#: The two matrix regimes: the default floor measures every pair at
#: these sizes; a zero floor forces the MinHash/LSH pruned path.
REGIMES = {
    "exact": DEFAULT_SKETCH_CONFIG,
    "lsh": SketchConfig(min_sequences=0),
}


def oracle_matrix(tokens: list[list[str]]) -> np.ndarray:
    """Normalized DLD pair by pair from the DP oracle (each distinct
    pair computed once)."""
    values: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    n = len(tokens)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((tuple(tokens[i]), tuple(tokens[j])))
            if (a, b) not in values:
                longest = max(len(a), len(b))
                values[a, b] = dp_dld(a, b) / longest if longest else 0.0
            matrix[i, j] = matrix[j, i] = values[a, b]
    return matrix


class TestMatrixVsOracle:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("regime", tuple(REGIMES))
    def test_matrix_matches_oracle(self, profile_datasets, profile, regime):
        tokens = profile_datasets[profile].clustering().tokens
        sketch = REGIMES[regime]
        matrix = distance_matrix(tokens, sketch=sketch)
        pruned = sketch_distance_matrix(tokens, sketch).pruned
        oracle = oracle_matrix(tokens)
        assert np.array_equal(matrix[~pruned], oracle[~pruned])
        assert np.all(matrix[pruned] == PRUNED_DISTANCE)
        assert pruned.any() == (regime == "lsh")

    def test_paper_scale_matrix_matches_oracle(self, dataset):
        tokens = dataset.clustering().tokens
        matrix = distance_matrix(tokens)
        assert np.array_equal(matrix, oracle_matrix(tokens))
        assert np.array_equal(matrix, dataset.clustering().matrix)


class TestOnlineReplay:
    def test_replay_matches_committed_golden(self, dataset):
        """The day-stream replay over the paper-scale sample diverges
        from the batch re-cluster only by the committed amount."""
        clustering = dataset.clustering()
        clusterer = OnlineClusterer()
        labels = clusterer.replay(clustering.tokens)
        agreement = pair_agreement(labels, clustering.result.labels)
        assert agreement >= ONLINE_AGREEMENT_FLOOR
        assert len(clusterer.clusters) == ONLINE_GOLDEN["clusters"]
        assert round(agreement, 4) == ONLINE_GOLDEN["agreement"]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_agreement_floor_across_profiles(self, profile_datasets, profile):
        clustering = profile_datasets[profile].clustering()
        clusterer = OnlineClusterer()
        labels = clusterer.replay(clustering.tokens)
        assert pair_agreement(
            labels, clustering.result.labels
        ) >= ONLINE_AGREEMENT_FLOOR

    def test_replay_is_deterministic(self, dataset):
        tokens = dataset.clustering().tokens
        first = OnlineClusterer().replay(tokens)
        second = OnlineClusterer().replay(tokens)
        assert first == second

    def test_exact_duplicates_join_one_cluster(self):
        clusterer = OnlineClusterer()
        stream = [["wget", "<url>", "sh"], ["uname", "-a"],
                  ["wget", "<url>", "sh"]]
        labels = clusterer.replay(stream)
        assert labels[0] == labels[2]
        assert labels[0] != labels[1]
        assert clusterer.clusters[labels[0]].size == 2

    def test_small_edit_assigns_spawn_on_distance(self):
        clusterer = OnlineClusterer(threshold=0.45)
        base = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "x", "./x"]
        near = list(base)
        near[6] = "y"  # one substitution: distance 2/8 = 0.25
        far = ["uname", "-a", "nproc"]
        labels = clusterer.replay([base, near, far])
        assert labels[0] == labels[1]
        assert labels[2] != labels[0]

    def test_telemetry_accounts_for_every_observation(self, dataset):
        tokens = dataset.clustering().tokens
        with telemetry.collecting() as registry:
            OnlineClusterer().replay(tokens)
        counters = registry.counters
        assert counters["online.observed"] == len(tokens)
        assert (
            counters.get("online.exact_duplicates", 0)
            + counters.get("online.assigned", 0)
            + counters.get("online.spawned", 0)
        ) == len(tokens)

    def test_pair_agreement_properties(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert pair_agreement(labels, labels) == 1.0
        # relabeling clusters does not change agreement
        relabeled = np.array([7, 7, 3, 3, 9])
        assert pair_agreement(labels, relabeled) == 1.0
        # all-singletons vs all-together agree on nothing
        apart = np.arange(4)
        together = np.zeros(4, dtype=int)
        assert pair_agreement(apart, together) == 0.0
        with pytest.raises(ValueError):
            pair_agreement(np.arange(3), np.arange(4))
