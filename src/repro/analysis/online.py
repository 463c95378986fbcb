"""Incremental assign-or-spawn clustering over token sequences.

The batch pipeline (sample → full matrix → K-medoids) re-pays the whole
O(n²) DLD bill on every run, which rules it out for the streaming
service the ROADMAP targets.  This module is the O(candidates) core for
that service: sequences arrive one at a time, each is either *assigned*
to the nearest existing cluster medoid within a distance threshold or
*spawns* a new cluster with itself as medoid.

Cost per observation:

1. **Exact-duplicate fast path** — bot traffic is dominated by repeats;
   a dict lookup resolves them in O(1) with zero distance calls.
2. **Candidate medoids** — above :attr:`OnlineClusterer.index_floor`
   clusters, the medoid set is LSH-indexed (same banding as the batch
   prefilter, :mod:`repro.analysis.sketch`) and only bucket-colliding
   medoids are compared; below the floor an exhaustive scan is cheaper
   than maintaining the index.
3. **Bound-gated distance** — each candidate is first screened with
   :func:`repro.analysis.sketch.combined_bounds`; the DLD kernel runs
   only when the lower bound leaves the threshold reachable.

Determinism: the clusterer is a pure function of the observation order
(no RNG).  Ties — several medoids at exactly the same distance — break
to the lowest cluster id, i.e. the earliest-spawned cluster.

Medoids are pinned to each cluster's founding sequence.  That keeps
every decision O(candidates) and order-deterministic; the price is that
a cluster's medoid is not re-centred as members accrete, so online
labels can diverge from a batch re-cluster of the same data.  The
differential suite (tests/test_cluster_differential.py) pins that
divergence with a pair-agreement (Rand index) floor against the batch
oracle.

Telemetry: ``online.observed``, ``online.exact_duplicates``,
``online.assigned``, ``online.spawned``, ``online.candidates``,
``online.bound_skips`` (see docs/observability.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.analysis.distance import pair_distance
from repro.analysis.sketch import (
    DEFAULT_SKETCH_CONFIG,
    MinHashSketcher,
    SketchConfig,
    combined_bounds,
)

#: Default assignment threshold on normalized DLD: "same behaviour,
#: small edits" (a third to a half of the tokens changed) lands in one
#: cluster, while distinct campaigns spawn fresh ones.
DEFAULT_ASSIGN_THRESHOLD = 0.45


@dataclass
class OnlineCluster:
    """One cluster's state: founding medoid, signature, membership."""

    cluster_id: int
    medoid: tuple[str, ...]
    signature: np.ndarray = field(repr=False)
    size: int = 0


class OnlineClusterer:
    """Assign-or-spawn clusterer with an LSH medoid index.

    Args:
        threshold: maximum normalized DLD to an existing medoid for
            assignment; beyond it the sequence spawns a new cluster.
        config: MinHash/LSH parameters for the medoid index (shared
            with the batch prefilter so the two paths agree on what
            "similar" means).
        index_floor: cluster count below which candidate selection is
            an exhaustive medoid scan instead of the LSH index.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_ASSIGN_THRESHOLD,
        config: SketchConfig = DEFAULT_SKETCH_CONFIG,
        index_floor: int = 32,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.config = config
        self.index_floor = index_floor
        self.clusters: list[OnlineCluster] = []
        self.assignments: list[int] = []
        self._sketcher = MinHashSketcher(config)
        self._duplicates: dict[tuple[str, ...], int] = {}
        # Per-band bucket → cluster ids, mirroring lsh_candidate_pairs.
        self._band_buckets: list[dict[bytes, list[int]]] = [
            {} for _ in range(config.bands)
        ]

    def _band_keys(self, signature: np.ndarray) -> list[bytes]:
        rows = self.config.rows
        return [
            np.ascontiguousarray(
                signature[band * rows : (band + 1) * rows]
            ).tobytes()
            for band in range(self.config.bands)
        ]

    def _candidate_ids(self, band_keys: list[bytes]) -> list[int]:
        if len(self.clusters) < self.index_floor:
            return list(range(len(self.clusters)))
        seen: set[int] = set()
        for band, key in enumerate(band_keys):
            seen.update(self._band_buckets[band].get(key, ()))
        return sorted(seen)

    def observe(self, tokens: tuple[str, ...] | list[str]) -> int:
        """Assign the sequence to a cluster (possibly a new one).

        Returns the cluster id; also appended to :attr:`assignments`.
        """
        key = tuple(tokens)
        telemetry.count("online.observed")
        duplicate = self._duplicates.get(key)
        if duplicate is not None:
            telemetry.count("online.exact_duplicates")
            self.clusters[duplicate].size += 1
            self.assignments.append(duplicate)
            return duplicate

        signature = self._sketcher.signature(key)
        band_keys = self._band_keys(signature)
        candidates = self._candidate_ids(band_keys)
        telemetry.count("online.candidates", len(candidates))
        best_id: int | None = None
        best_distance = self.threshold
        for cluster_id in candidates:
            medoid = self.clusters[cluster_id].medoid
            lower, upper = combined_bounds(key, medoid)
            if upper and lower / upper > best_distance:
                telemetry.count("online.bound_skips")
                continue
            distance = pair_distance(key, medoid)
            # strict < keeps ties on the earliest-seen cluster id
            if distance <= self.threshold and (
                best_id is None or distance < best_distance
            ):
                best_id = cluster_id
                best_distance = distance

        if best_id is None:
            best_id = self._spawn(key, signature, band_keys)
            telemetry.count("online.spawned")
        else:
            telemetry.count("online.assigned")
        self._duplicates[key] = best_id
        self.clusters[best_id].size += 1
        self.assignments.append(best_id)
        return best_id

    def _spawn(
        self,
        key: tuple[str, ...],
        signature: np.ndarray,
        band_keys: list[bytes],
    ) -> int:
        cluster_id = len(self.clusters)
        self.clusters.append(
            OnlineCluster(cluster_id=cluster_id, medoid=key, signature=signature)
        )
        for band, bucket_key in enumerate(band_keys):
            self._band_buckets[band].setdefault(bucket_key, []).append(
                cluster_id
            )
        return cluster_id

    def replay(
        self, sequences: list[tuple[str, ...]] | list[list[str]]
    ) -> list[int]:
        """Observe a whole stream in order; returns its assignments."""
        with telemetry.span("online.replay"):
            return [self.observe(seq) for seq in sequences]

    @property
    def labels(self) -> np.ndarray:
        """Assignments so far as an array (batch-comparison shape)."""
        return np.array(self.assignments, dtype=np.int64)


def pair_agreement(labels_a, labels_b) -> float:
    """Rand index between two labelings of the same points.

    The fraction of point *pairs* on which the labelings agree (both
    together or both apart) — the standard way to compare clusterings
    whose cluster ids have no correspondence.  Computed from the
    contingency table in O(n + cells), not O(n²) pairs.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("labelings must cover the same points")
    n = int(a.size)
    if n < 2:
        return 1.0
    total = n * (n - 1) // 2
    joint = Counter(zip(a.tolist(), b.tolist()))
    sum_joint = sum(c * (c - 1) // 2 for c in joint.values())
    sum_a = sum(
        c * (c - 1) // 2 for c in Counter(a.tolist()).values()
    )
    sum_b = sum(
        c * (c - 1) // 2 for c in Counter(b.tolist()).values()
    )
    # together-in-both + apart-in-both, via inclusion-exclusion
    agree = total + 2 * sum_joint - sum_a - sum_b
    return agree / total
