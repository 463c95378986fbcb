"""Deterministic parallel execution engine.

Two independently useful halves, both proven digest-identical to the
serial pipeline by the differential suite in ``tests/test_parallel.py``:

* :func:`repro.parallel.engine.produce_shards` — the process pool that
  feeds shard results to the stream engine's run loop (reached via
  ``run_simulation(..., workers=N)``).
* :func:`repro.parallel.distance.candidate_values_parallel` — the
  chunked pair-list DLD pool behind ``distance_matrix(..., workers=N)``
  (every pair below the sketch floor, the LSH candidates above it).

See ``docs/parallelism.md`` for the shard/merge model and the
determinism contract.
"""

from repro.parallel.engine import ShardOutput, produce_shards
from repro.parallel.distance import candidate_values_parallel, chunk_spans
from repro.parallel.shards import Shard, plan_shards

__all__ = [
    "Shard",
    "ShardOutput",
    "candidate_values_parallel",
    "chunk_spans",
    "plan_shards",
    "produce_shards",
]
