"""Deterministic parallel execution engine.

Two independently useful halves, both proven digest-identical to the
serial pipeline by the differential suite in ``tests/test_parallel.py``:

* :func:`repro.parallel.engine.produce_shards` — the process pool that
  feeds shard results to the stream engine's run loop (reached via
  ``run_simulation(..., workers=N)``).
* :func:`repro.parallel.distance.compact_distance_matrix_parallel` —
  the chunked pairwise-DLD pool behind
  ``distance_matrix(..., workers=N)``.

See ``docs/parallelism.md`` for the shard/merge model and the
determinism contract.
"""

from repro.parallel.engine import ShardOutput, produce_shards
from repro.parallel.distance import (
    chunk_spans,
    compact_distance_matrix_parallel,
    pair_at,
    row_offsets,
)
from repro.parallel.shards import Shard, plan_shards

__all__ = [
    "Shard",
    "ShardOutput",
    "chunk_spans",
    "compact_distance_matrix_parallel",
    "pair_at",
    "plan_shards",
    "produce_shards",
    "row_offsets",
]
