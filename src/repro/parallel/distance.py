"""Chunked, multiprocessing-backed pairwise DLD computation.

Every DLD matrix is built from an explicit pair list over the
*distinct* token sequences (:func:`repro.analysis.sketch.sketch_distance_matrix`):
the full upper triangle below the sketch activation floor, the LSH
candidates plus bounds-pinned pairs at or above it.  This module slices
that list into balanced chunks and evaluates the chunks on a process
pool.  Because every pair is computed by the same pure function the
serial path uses (:func:`repro.analysis.distance.pair_distance`), the
assembled values are identical to the serial ones, bit for bit.

Workers receive the distinct sequences and the pair-index array once
(via the pool initializer), not per chunk, so the IPC cost is
O(m + pairs + chunks), and each chunk is two integers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import telemetry

#: Pairs below this threshold are not worth a process pool: the fork +
#: pickle overhead exceeds the DP work.  Callers fall back to serial.
MIN_PAIRS_FOR_POOL = 256

#: Chunks per worker: more chunks smooth the skew between cheap pairs
#: (short scout sequences) and expensive ones (long loader chains).
CHUNKS_PER_WORKER = 4

_SEQUENCES: list[tuple[str, ...]] | None = None
_FINGERPRINT: str | None = None
_PAIRS: np.ndarray | None = None


def _init_candidate_pool(
    sequences: list[tuple[str, ...]], pairs: np.ndarray, fingerprint: str
) -> None:
    global _SEQUENCES, _PAIRS, _FINGERPRINT
    _SEQUENCES = sequences
    _PAIRS = pairs
    _FINGERPRINT = fingerprint


def _candidate_chunk(span: tuple[int, int]) -> tuple[int, list[float]]:
    """Compute normalized DLD for one slice of the pair list."""
    from repro.analysis.distance import pair_distance

    start, stop = span
    sequences = _SEQUENCES
    values: list[float] = []
    for i, j in _PAIRS[start:stop].tolist():
        values.append(pair_distance(sequences[i], sequences[j], _FINGERPRINT))
    return start, values


def chunk_spans(total_pairs: int, chunk_count: int) -> list[tuple[int, int]]:
    """Slice ``range(total_pairs)`` into at most ``chunk_count`` spans."""
    if total_pairs <= 0:
        return []
    chunk_count = max(1, min(chunk_count, total_pairs))
    base, extra = divmod(total_pairs, chunk_count)
    spans: list[tuple[int, int]] = []
    cursor = 0
    for index in range(chunk_count):
        length = base + (1 if index < extra else 0)
        spans.append((cursor, cursor + length))
        cursor += length
    return spans


def candidate_values_parallel(
    distinct: list[tuple[str, ...]],
    pairs: np.ndarray,
    workers: int,
    fingerprint: str,
) -> np.ndarray:
    """Normalized DLD for an explicit ``(k, 2)`` pair-index array.

    The pair list is shipped to the pool as one compact int32 array in
    the initializer — the per-chunk IPC stays two integers.  Values
    come back in pair-list order.
    """
    from repro.parallel.engine import pool_context

    total = len(pairs)
    values = np.zeros(total, dtype=np.float64)
    if total == 0:
        return values
    pairs = np.ascontiguousarray(pairs, dtype=np.int32)
    spans = chunk_spans(total, workers * CHUNKS_PER_WORKER)
    telemetry.count("parallel.dld.chunks", len(spans))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=pool_context(),
        initializer=_init_candidate_pool,
        initargs=(distinct, pairs, fingerprint),
    ) as pool:
        for start, chunk in pool.map(_candidate_chunk, spans):
            values[start : start + len(chunk)] = chunk
    return values
