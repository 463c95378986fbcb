"""Hierarchical-clustering baseline and the flow graph."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.analysis.hierarchical import hierarchical_cluster, pair_agreement
from repro.analysis.kmedoids import kmedoids
from repro.analysis.storage import flow_graph


def two_group_matrix(n_per_group: int = 6, gap: float = 1.0) -> np.ndarray:
    n = 2 * n_per_group
    matrix = np.full((n, n), gap)
    for start in (0, n_per_group):
        block = slice(start, start + n_per_group)
        matrix[block, block] = 0.05
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestHierarchical:
    def test_separates_two_groups(self):
        matrix = two_group_matrix()
        result = hierarchical_cluster(matrix, 2)
        assert len(set(result.labels[:6].tolist())) == 1
        assert result.labels[0] != result.labels[6]

    def test_agrees_with_kmedoids_on_clean_data(self):
        matrix = two_group_matrix(8)
        hier = hierarchical_cluster(matrix, 2)
        medo = kmedoids(matrix, 2, seed=0)
        assert pair_agreement(hier.labels, medo.labels) == 1.0

    def test_methods(self):
        matrix = two_group_matrix()
        for method in ("average", "complete", "single"):
            result = hierarchical_cluster(matrix, 2, method=method)
            assert result.k == 2

    def test_k_one(self):
        matrix = two_group_matrix(3)
        result = hierarchical_cluster(matrix, 1)
        assert set(result.labels.tolist()) == {0}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            hierarchical_cluster(two_group_matrix(2), 0)

    def test_medoids_are_members(self):
        matrix = two_group_matrix()
        result = hierarchical_cluster(matrix, 2)
        for cluster, medoid in enumerate(result.medoids):
            assert result.labels[medoid] == cluster

    def test_single_point(self):
        result = hierarchical_cluster(np.zeros((1, 1)), 1)
        assert result.labels.tolist() == [0]


class TestPairAgreement:
    def test_identical(self):
        labels = np.array([0, 0, 1, 1])
        assert pair_agreement(labels, labels) == 1.0

    def test_label_permutation_is_equivalent(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert pair_agreement(a, b) == 1.0

    def test_disagreement(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert pair_agreement(a, b) < 0.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pair_agreement(np.array([0]), np.array([0, 1]))


class TestFlowGraph:
    def test_graph_structure(self):
        flows = Counter(
            {
                ("ISP/NSP", "Hosting", False): 10,
                ("ISP/NSP", "Hosting", True): 2,
                ("Hosting", "CDN", False): 3,
            }
        )
        graph = flow_graph(flows)
        assert graph["client:ISP/NSP"]["storage:Hosting"]["weight"] == 12
        assert graph["client:ISP/NSP"]["storage:Hosting"]["same_ip"] == 2
        assert sum(len(targets) for targets in graph.values()) == 2

    def test_bipartite(self):
        flows = Counter({("ISP/NSP", "Hosting", False): 1})
        graph = flow_graph(flows)
        assert all(source.startswith("client:") for source in graph)
        assert all(target.startswith("storage:")
                   for targets in graph.values() for target in targets)


class TestBaselineExperiment:
    def test_registered_and_runs(self, results):
        result = results["ext_baseline_clustering"]
        methods = [row[0] for row in result.rows]
        assert "k-medoids (paper)" in methods
        assert any(m.startswith("hierarchical/") for m in methods)
        agreement = float(
            " ".join(result.notes).split("hierarchical/average at k=")[1]
            .split(": ")[1].split(" ")[0]
        )
        assert agreement > 0.5
