"""Pairwise distance matrices over tokenized sessions."""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from repro import telemetry
from repro.analysis.dld import normalized_dld
from repro.analysis.sketch import (
    DEFAULT_SKETCH_CONFIG,
    SketchConfig,
    sketch_distance_matrix,
)
from repro.analysis.tokenizer import DEFAULT_TOKENIZER, TokenizerConfig
from repro.honeypot.session import SessionRecord


#: Cap on tokens per session fed to the distance computation.  Keeps
#: pathological sessions (e.g. hundred-command proxy abuse) from
#: dominating runtime while preserving their behavioural prefix.
MAX_TOKENS_PER_SESSION = 120

#: Distinct (fingerprint, session, cap) entries kept in the
#: tokenization cache.  Sessions are tokenized by several call sites
#: (the clustering, the tokenizer ablation, Figure 14); caching by
#: session id makes the work happen once per session, not once per
#: call site.
TOKEN_CACHE_LIMIT = 250_000

#: Distinct sequence pairs kept in the DLD pair cache.  Figures 5, 6
#: and 14 plus the ablation experiments measure heavily overlapping
#: pair sets; the cache collapses those repeats to dictionary lookups.
PAIR_CACHE_SIZE = 1 << 17

_token_cache: dict[tuple[str, str, int], list[str]] = {}


def clear_distance_caches() -> None:
    """Drop the tokenization and pair caches (tests and benchmarks)."""
    _token_cache.clear()
    _cached_pair_distance.cache_clear()


def session_tokens(
    sessions: list[SessionRecord],
    max_tokens: int = MAX_TOKENS_PER_SESSION,
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> list[list[str]]:
    """Tokenizer-variant (and length-capped) token sequences per session.

    Tokenization is hoisted behind a per-session cache keyed by
    ``(tokenizer fingerprint, session id, cap)``: repeated calls over
    the same sessions (the clustering and every figure that
    re-tokenizes its sample) pay the regex pipeline once, while two
    tokenizer configurations in one process — the normalization
    ablation, a future weighting variant — can never serve each
    other's entries, even without an intervening
    :func:`clear_distance_caches`.  The returned lists are shared with
    the cache — treat them as read-only.
    """
    if len(_token_cache) > TOKEN_CACHE_LIMIT:
        _token_cache.clear()
    fingerprint = tokenizer.fingerprint
    result: list[list[str]] = []
    for session in sessions:
        key = (fingerprint, session.session_id, max_tokens)
        tokens = _token_cache.get(key)
        if tokens is None:
            tokens = tokenizer.tokenize(session)[:max_tokens]
            _token_cache[key] = tokens
        result.append(tokens)
    return result


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _cached_pair_distance(
    fingerprint: str, a: tuple[str, ...], b: tuple[str, ...]
) -> float:
    return normalized_dld(a, b)


def pair_distance(
    a: tuple[str, ...],
    b: tuple[str, ...],
    fingerprint: str = DEFAULT_TOKENIZER.fingerprint,
) -> float:
    """Normalized DLD between two token tuples, LRU-cached.

    The cache key is order-canonical (DLD is symmetric) and identical
    tuples short-circuit to 0.0.  Entries are additionally keyed by the
    tokenizer fingerprint that produced the tuples, so a cache warmed
    under one tokenizer configuration is never consulted by another
    (the value is a pure function of the tuples today, but the keying
    keeps that an implementation detail rather than a cross-config
    coupling).
    """
    if a == b:
        return 0.0
    if b < a:
        a, b = b, a
    return _cached_pair_distance(fingerprint, a, b)


def distance_matrix(
    token_sequences: list[list[str]],
    sketch: SketchConfig = DEFAULT_SKETCH_CONFIG,
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> np.ndarray:
    """Symmetric normalized-DLD matrix (zeros on the diagonal).

    The values of :func:`~repro.analysis.sketch.sketch_distance_matrix`,
    the one builder.  Identical token sequences are deduplicated, so
    the O(n²) pair work only runs once per distinct behaviour — bot
    traffic is heavily repetitive, which makes this the difference
    between seconds and hours at realistic sample sizes.  Below
    ``sketch.min_sequences`` distinct sequences every pair is
    measured; at or above it only the MinHash/LSH candidates (plus
    bounds-pinned pairs) are measured and pruned pairs hold the sound
    upper bound 1.0.  Every measured pair is one serial call of the
    bit-vector kernel (:func:`~repro.analysis.dld.damerau_levenshtein`)
    behind the pair cache.
    """
    with telemetry.span("dld.matrix"):
        built = sketch_distance_matrix(
            token_sequences, sketch, tokenizer=tokenizer
        )
        registry = telemetry.active()
        if registry is not None:
            registry.count("dld.matrix_builds")
            registry.count("dld.sequences", len(token_sequences))
            registry.count("dld.distinct_sequences", built.distinct_sequences)
            registry.count("dld.pairs", built.total_pairs)
        return built.values


def sample_sessions(
    sessions: list[SessionRecord], limit: int, seed: int = 0
) -> list[SessionRecord]:
    """Deterministic uniform sample (the paper clusters a sample too)."""
    if len(sessions) <= limit:
        return list(sessions)
    rng = random.Random(seed)
    return rng.sample(sessions, limit)
