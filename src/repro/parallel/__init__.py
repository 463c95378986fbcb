"""Deterministic parallel execution engine.

:func:`repro.parallel.engine.produce_shards` is the process pool that
feeds shard results to the stream engine's run loop (reached via
``run_simulation(..., workers=N)``), proven digest-identical to the
serial pipeline by the differential suite in ``tests/test_parallel.py``.
DLD matrices are built serially (see :mod:`repro.analysis.sketch`).

See ``docs/parallelism.md`` for the shard/merge model and the
determinism contract.
"""

from repro.parallel.engine import ShardOutput, produce_shards
from repro.parallel.shards import Shard, plan_shards

__all__ = [
    "Shard",
    "ShardOutput",
    "plan_shards",
    "produce_shards",
]
