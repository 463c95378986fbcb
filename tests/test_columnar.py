"""Columnar hot path: codec properties, RNG batching, cross-matrix leg.

Three layers of proof that the columnar refactor cannot move a byte:

* **Codec properties** (hypothesis) — record → columns → record is the
  identity, including unicode command strings, ``None`` markers and
  edge-case timestamps, and the decoded scalars are pure Python types.
* **RNG equivalence** — the per-day batched draws (`_route_draws`,
  ``RngTree.rand_for``/``coin``, the ``batched_*`` helpers) reproduce
  the per-session draw sequences exactly, for arbitrary counts.
* **Cross-matrix differential** — columnar IPC × every fault profile ×
  {serial, 2 workers} produce equal digests and conservation counters.
  Columnar buffers are the only IPC format; the codec property layer
  above is what proves the round-trip an identity, so no object-graph
  oracle is needed.

Marked ``columnar`` so CI can run this suite as its own job leg
(``pytest -m columnar``).
"""

from __future__ import annotations

import pickle
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attackers.base import Bot
from repro.attackers.orchestrator import (
    _route_draws,
    build_substrate,
    count_day,
    run_simulation,
    simulate_day,
)
from repro.cli import check_bench_floors
from repro.config import SimulationConfig
from repro.honeynet.columnar import ColumnBatch, StringColumn
from repro.honeynet.io import session_to_dict
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.util.rng import (
    RngTree,
    batched_random,
    batched_randrange,
    batched_uniform,
)
from tests.conftest import PROFILES, short_fault_config
from tests.test_parallel import assert_equivalent

pytestmark = pytest.mark.columnar


# ----------------------------------------------------------------------
# hypothesis strategies for arbitrary-but-valid session records
# ----------------------------------------------------------------------

# Unrestricted unicode (including astral-plane code points, so the
# char-offset slicing path is exercised) but no surrogates, which UTF-8
# cannot encode.
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
MAYBE_TEXT = st.one_of(st.none(), TEXT)
# Edge timestamps: zero, negative, sub-second fractions, far future —
# IEEE-754 doubles must survive the numpy round trip bit-for-bit.
TIMESTAMP = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1e-9, -1.0, 2**53 - 1.0, 1893456000.5]),
)

LOGIN = st.builds(LoginAttempt, TEXT, TEXT, st.booleans())
COMMAND = st.builds(CommandRecord, TEXT, st.booleans(), TEXT)
EVENT = st.builds(
    FileEvent, TEXT, st.sampled_from(list(FileOp)), MAYBE_TEXT, TEXT
)

RECORD = st.builds(
    SessionRecord,
    session_id=TEXT,
    honeypot_id=TEXT,
    honeypot_ip=TEXT,
    honeypot_port=st.integers(0, 65535),
    protocol=st.sampled_from(list(Protocol)),
    client_ip=TEXT,
    client_port=st.integers(0, 65535),
    start=TIMESTAMP,
    end=TIMESTAMP,
    ssh_version=MAYBE_TEXT,
    logins=st.lists(LOGIN, max_size=4),
    commands=st.lists(COMMAND, max_size=4),
    uris=st.lists(TEXT, max_size=3),
    file_events=st.lists(EVENT, max_size=3),
    timed_out=st.booleans(),
    bot_label=MAYBE_TEXT,
)


class TestStringColumn:
    @given(st.lists(TEXT, max_size=30))
    @settings(max_examples=100)
    def test_round_trip(self, values):
        assert StringColumn.encode(values).values() == values

    @given(st.lists(MAYBE_TEXT, max_size=30))
    @settings(max_examples=100)
    def test_nullable_round_trip(self, values):
        assert StringColumn.encode(values).values() == values

    def test_unicode_slicing_uses_char_offsets(self):
        values = ["naïve", "командa", "🐚shell", "", "ascii"]
        column = StringColumn.encode(values)
        assert column.char_offsets is not None
        assert column.values() == values

    def test_ascii_skips_char_offsets(self):
        column = StringColumn.encode(["plain", "ascii", ""])
        assert column.char_offsets is None

    def test_len_and_nbytes(self):
        column = StringColumn.encode(["ab", "c"])
        assert len(column) == 2
        assert column.nbytes >= 3


class TestColumnBatchRoundTrip:
    @given(st.lists(RECORD, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_identity(self, records):
        batch = ColumnBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    @given(st.lists(RECORD, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_identity_through_pickle(self, records):
        # The actual IPC path: encode, pickle, unpickle, decode.
        batch = pickle.loads(pickle.dumps(ColumnBatch.from_records(records)))
        assert batch.to_records() == records

    @given(st.lists(RECORD, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_decoded_scalars_are_pure_python(self, records):
        # numpy scalars leaking into records would break json digests.
        for decoded in ColumnBatch.from_records(records).to_records():
            assert type(decoded.honeypot_port) is int
            assert type(decoded.client_port) is int
            assert type(decoded.start) is float
            assert type(decoded.end) is float
            assert type(decoded.timed_out) is bool
            assert isinstance(decoded.protocol, Protocol)
            for event in decoded.file_events:
                assert isinstance(event.op, FileOp)
            session_to_dict(decoded)  # json-serializable end to end

    @given(st.lists(RECORD, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_session_ids_match_records(self, records):
        batch = ColumnBatch.from_records(records)
        assert batch.session_ids() == [r.session_id for r in records]

    def test_empty_batch(self):
        batch = ColumnBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch.session_ids() == []


# ----------------------------------------------------------------------
# RNG batching: batched draws ≡ per-session draw sequences
# ----------------------------------------------------------------------


class TestRngBatching:
    @given(st.integers(), st.integers(0, 500))
    @settings(max_examples=50)
    def test_batched_random_matches_sequence(self, seed, n):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_random(a, n) == [b.random() for _ in range(n)]
        assert a.random() == b.random()  # generator state advanced equally

    @given(st.integers(), st.integers(0, 500))
    @settings(max_examples=50)
    def test_batched_uniform_matches_sequence(self, seed, n):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_uniform(a, n, 0.0, 86_400.0) == [
            b.uniform(0.0, 86_400.0) for _ in range(n)
        ]

    @given(st.integers(), st.integers(0, 500), st.integers(1, 97))
    @settings(max_examples=50)
    def test_batched_randrange_matches_sequence(self, seed, n, stop):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_randrange(a, n, stop) == [
            b.randrange(stop) for _ in range(n)
        ]

    @given(st.integers(0, 2**32), st.text(max_size=10))
    @settings(max_examples=50)
    def test_rand_for_equals_child_rand(self, seed, name):
        tree = RngTree(seed).child("x")
        assert tree.rand_for(name).random() == tree.child(name).rand().random()

    @given(st.integers(0, 2**32), st.text(max_size=10))
    @settings(max_examples=50)
    def test_coin_is_first_child_draw(self, seed, name):
        tree = RngTree(seed)
        assert tree.coin(name) == tree.child(name).rand().random()

    @given(st.integers(0, 2**32), st.integers(0, 400), st.integers(1, 40))
    @settings(max_examples=50)
    def test_route_draws_match_per_session_calls(self, seed, n, fleet_size):
        """The batched route stream is the interleaved per-session one."""

        class _Probe(Bot):
            def __init__(self):  # no activity model needed here
                self.name = "probe"

        bot = _Probe()
        day = date(2023, 1, 1)
        batched_rng = random.Random(seed)
        indices, seconds = _route_draws(bot, batched_rng, n, fleet_size, day)
        reference = random.Random(seed)
        for i in range(n):
            assert indices[i] == bot.choose_honeypot_index(
                reference, fleet_size
            )
            assert seconds[i] == bot.start_seconds(reference, day)
        # Post-batch generator state is identical too.
        assert batched_rng.random() == reference.random()

    @given(st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=30)
    def test_route_draws_respect_overridden_hooks(self, seed, n):
        class _Biased(Bot):
            def __init__(self):
                self.name = "biased"

            def choose_honeypot_index(self, rng, fleet_size):
                return min(rng.randrange(fleet_size), 1)

            def start_seconds(self, rng, day):
                return rng.uniform(0, 3600)

        bot = _Biased()
        day = date(2023, 1, 1)
        indices, seconds = _route_draws(bot, random.Random(seed), n, 16, day)
        reference = random.Random(seed)
        for i in range(n):
            assert indices[i] == bot.choose_honeypot_index(reference, 16)
            assert seconds[i] == bot.start_seconds(reference, day)


class TestCountDayFastPath:
    """count_day's intent-free fast path equals the real day loop."""

    @pytest.mark.parametrize("profile", ("none", "stress"))
    def test_counts_equal_handled_sessions(self, profile):
        config = SimulationConfig(
            seed=5,
            scale=1e-4,
            start=date(2023, 9, 20),
            end=date(2023, 9, 26),
            faults=short_fault_config(profile).faults,
        )
        substrate = build_substrate(config)
        counted: dict[str, int] = {}
        for day in (
            date(2023, 9, 20),
            date(2023, 9, 21),
            date(2023, 9, 22),
        ):
            count_day(substrate, day, counted)
        handled: dict[str, int] = {}

        def record_only(record):
            handled[record.honeypot_id] = (
                handled.get(record.honeypot_id, 0) + 1
            )
            return True

        substrate = build_substrate(config)  # fresh counters
        for day in (
            date(2023, 9, 20),
            date(2023, 9, 21),
            date(2023, 9, 22),
        ):
            simulate_day(substrate, day, record_only)
        assert counted == handled


# ----------------------------------------------------------------------
# shed-path: flood-off runs execute zero overload instrumentation
# ----------------------------------------------------------------------


class TestFloodOffShedPath:
    @pytest.mark.parametrize("profile", ("none", "paper"))
    def test_no_overload_metrics_without_flood(self, profile):
        from repro import telemetry

        config = short_fault_config(profile).replace(
            start=date(2023, 9, 15), end=date(2023, 9, 21)
        )
        with telemetry.collecting() as registry:
            result = run_simulation(config)
        assert result.collector.admission is None  # no gate, no coins
        counters = registry.export()["counters"]
        overload = [k for k in counters if k.startswith("overload.")]
        assert overload == []
        assert result.collector.admitted == 0
        assert result.collector.shed == 0
        assert result.collector.deferred == 0

    def test_flood_on_does_emit_overload_metrics(self):
        import dataclasses

        from repro import telemetry
        from repro.faults.plan import FloodFaults

        base = short_fault_config("stress").replace(
            start=date(2023, 9, 15), end=date(2023, 9, 21)
        )
        config = base.replace(
            faults=dataclasses.replace(
                base.faults, flood=FloodFaults.from_name("burst")
            )
        )
        with telemetry.collecting() as registry:
            result = run_simulation(config)
        assert result.collector.admission is not None
        counters = registry.export()["counters"]
        assert counters.get("overload.admitted", 0) > 0


# ----------------------------------------------------------------------
# cross-matrix differential: columnar IPC × profiles × engines
# ----------------------------------------------------------------------


class TestColumnarCrossMatrix:
    """Columnar IPC agrees with serial for every fault profile.

    Columnar buffers are the only shard IPC format; the codec property
    suite above proves the encode→decode round-trip an identity, and
    this matrix proves the merged result equal to the serial engine's.
    """

    @pytest.mark.parametrize("profile", PROFILES)
    def test_columnar_two_workers_equals_serial(
        self, serial_baselines, profile
    ):
        parallel = run_simulation(short_fault_config(profile), workers=2)
        assert_equivalent(parallel, serial_baselines[profile])

    def test_worker_outputs_are_column_batches(self, monkeypatch):
        """The wire really carries ColumnBatch, not record lists."""
        from repro.honeynet.collector import Collector

        seen: list[type] = []
        original = Collector.absorb_batch

        def spy(self, sessions, dead_letters, counters):
            seen.append(type(sessions))
            return original(self, sessions, dead_letters, counters)

        monkeypatch.setattr(Collector, "absorb_batch", spy)
        run_simulation(short_fault_config("none"), workers=2)
        assert seen and all(kind is ColumnBatch for kind in seen)


# ----------------------------------------------------------------------
# bench regression guard
# ----------------------------------------------------------------------


class TestBenchFloors:
    def _report(self, cpu_count=4, speedup=2.0, overhead=1.0):
        return {
            "workers": 2,
            "cpu_count": cpu_count,
            "day_loop": {"speedup": speedup, "digest_match": True},
            "telemetry": {"overhead_pct": overhead, "digest_match": True},
        }

    def test_healthy_report_passes(self):
        assert check_bench_floors(self._report()) == []

    def test_slow_parallel_fails_on_multicore(self):
        violations = check_bench_floors(self._report(speedup=1.2))
        assert len(violations) == 1
        assert "1.20x" in violations[0]

    def test_single_core_skips_speedup_floor(self):
        assert check_bench_floors(self._report(cpu_count=1, speedup=0.5)) == []

    def test_telemetry_overhead_fails(self):
        violations = check_bench_floors(self._report(overhead=6.3))
        assert violations and "6.30%" in violations[0]

    def test_both_floors_can_fail_together(self):
        violations = check_bench_floors(
            self._report(speedup=0.9, overhead=9.9)
        )
        assert len(violations) == 2
