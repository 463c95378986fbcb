"""Differential suite: the parallel engine must equal the serial one.

Every test here asserts *equivalence*, not plausibility: the sharded
day-loop must reproduce the serial pipeline byte for byte — same
dataset digest, same collector accounting, same dead letters, same
honeypot counters — across fault profiles, worker counts, and
checkpoint/resume in either direction.  The DLD matrix, serial at any
worker count, is pinned against a pair-by-pair loop.

Marked ``parallel`` so CI can run this suite as its own job leg
(``pytest -m parallel``) on every push.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from datetime import date, timedelta

import pytest

from repro.analysis.distance import (
    clear_distance_caches,
    distance_matrix,
    session_tokens,
)
from repro.analysis.dld import normalized_dld
from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG
from repro.parallel.shards import plan_shards
from tests.conftest import (
    GOLDEN_DEFAULT_DIGEST,
    PROFILES,
    short_fault_config,
)

pytestmark = pytest.mark.parallel


def assert_equivalent(parallel, serial, check_channel: bool = True) -> None:
    """The full equivalence contract between two simulation results.

    ``check_channel=False`` skips the transport-stats comparison for
    resumed runs: channel stats are not checkpointed (serial behaves
    the same way), so a resumed run only counts post-resume traffic.
    """
    assert parallel.database.digest() == serial.database.digest()
    assert parallel.collector.accounting() == serial.collector.accounting()
    assert parallel.collector.dead_letters == serial.collector.dead_letters
    assert parallel.collector.accounting_balanced()
    assert {
        hp.honeypot_id: hp._counter for hp in parallel.honeynet.honeypots
    } == {hp.honeypot_id: hp._counter for hp in serial.honeynet.honeypots}
    if not check_channel:
        return
    parallel_stats = asdict(parallel.channel.stats)
    serial_stats = asdict(serial.channel.stats)
    # Integer transport counters must match exactly; the simulated
    # backoff is a float sum, equal only up to summation order.
    backoff = "simulated_backoff_s"
    assert parallel_stats[backoff] == pytest.approx(serial_stats[backoff])
    del parallel_stats[backoff], serial_stats[backoff]
    assert parallel_stats == serial_stats


class TestShardPlanning:
    def test_shards_cover_window_exactly_once(self):
        shards = plan_shards(date(2022, 1, 1), date(2022, 3, 17), workers=3)
        assert shards[0].start == date(2022, 1, 1)
        assert shards[-1].end == date(2022, 3, 17)
        for previous, shard in zip(shards, shards[1:]):
            assert shard.start == previous.end + timedelta(days=1)
            assert shard.index == previous.index + 1

    def test_balanced_lengths(self):
        shards = plan_shards(date(2022, 1, 1), date(2022, 12, 31), workers=4)
        lengths = [shard.days for shard in shards]
        assert max(lengths) - min(lengths) <= 1
        assert sum(lengths) == 365

    def test_never_more_shards_than_days(self):
        shards = plan_shards(date(2022, 1, 1), date(2022, 1, 3), workers=8)
        assert len(shards) == 3
        assert all(shard.days == 1 for shard in shards)

    def test_empty_window(self):
        assert plan_shards(date(2022, 1, 2), date(2022, 1, 1), workers=2) == []

    def test_single_day(self):
        (shard,) = plan_shards(date(2022, 5, 5), date(2022, 5, 5), workers=4)
        assert shard.start == shard.end == date(2022, 5, 5)
        assert shard.next_day == date(2022, 5, 6)


class TestDifferential:
    """run_simulation(workers=N) ≡ serial, for every profile."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_digest_identical_to_serial(
        self, serial_baselines, profile, workers
    ):
        parallel = run_simulation(short_fault_config(profile), workers=workers)
        assert_equivalent(parallel, serial_baselines[profile])

    def test_workers_taken_from_config(self, serial_baselines):
        config = short_fault_config("paper").replace(workers=2)
        parallel = run_simulation(config)
        assert parallel.database.digest() == (
            serial_baselines["paper"].database.digest()
        )

    def test_explicit_workers_override_config(self, serial_baselines):
        config = short_fault_config("paper").replace(workers=4)
        serial = run_simulation(config, workers=1)
        assert serial.database.digest() == (
            serial_baselines["paper"].database.digest()
        )

    def test_default_config_pinned_digest_with_two_workers(self):
        """ISSUE acceptance: parallel paper-profile run is byte-identical
        to the golden digest captured before the fault subsystem existed."""
        result = run_simulation(DEFAULT_CONFIG, workers=2)
        assert result.database.digest() == GOLDEN_DEFAULT_DIGEST

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_simulation(short_fault_config("paper"), workers=0)


class TestCheckpointResumeParallel:
    """Mid-run checkpoints interoperate across both engines."""

    STOP = date(2023, 10, 2)

    def test_parallel_checkpoint_parallel_resume(
        self, tmp_path, serial_baselines
    ):
        config = short_fault_config("stress")
        checkpoint = tmp_path / "run.ckpt"
        partial = run_simulation(
            config,
            workers=2,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=self.STOP,
        )
        assert len(partial.database) < len(serial_baselines["stress"].database)
        resumed = run_simulation(
            config, workers=2, checkpoint_path=checkpoint, resume=True
        )
        assert_equivalent(resumed, serial_baselines["stress"], check_channel=False)

    def test_serial_checkpoint_parallel_resume(
        self, tmp_path, serial_baselines
    ):
        config = short_fault_config("stress")
        checkpoint = tmp_path / "run.ckpt"
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=self.STOP,
        )
        resumed = run_simulation(
            config, workers=3, checkpoint_path=checkpoint, resume=True
        )
        assert resumed.database.digest() == (
            serial_baselines["stress"].database.digest()
        )

    def test_parallel_checkpoint_serial_resume(
        self, tmp_path, serial_baselines
    ):
        config = short_fault_config("stress")
        checkpoint = tmp_path / "run.ckpt"
        run_simulation(
            config,
            workers=2,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=self.STOP,
        )
        resumed = run_simulation(config, checkpoint_path=checkpoint, resume=True)
        assert resumed.database.digest() == (
            serial_baselines["stress"].database.digest()
        )

    def test_stopped_run_checkpoint_bytes_match_across_workers(
        self, tmp_path
    ):
        config = short_fault_config("paper")
        newest = {}
        for workers in (1, 2):
            checkpoint = tmp_path / f"w{workers}" / "run.ckpt"
            run_simulation(
                config,
                workers=workers,
                checkpoint_path=checkpoint,
                checkpoint_every_days=7,
                stop_after=self.STOP,
            )
            newest[workers] = checkpoint.read_bytes()
        assert newest[1] == newest[2]

    def test_parallel_resume_without_file_starts_fresh(
        self, tmp_path, serial_baselines
    ):
        resumed = run_simulation(
            short_fault_config("paper"),
            workers=2,
            checkpoint_path=tmp_path / "missing.ckpt",
            resume=True,
        )
        assert resumed.database.digest() == (
            serial_baselines["paper"].database.digest()
        )

    def test_parallel_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_simulation(short_fault_config("paper"), workers=2, resume=True)


def _random_token_sequences(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    vocabulary = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "rm", "echo"]
    return [
        [rng.choice(vocabulary) for _ in range(rng.randrange(0, 24))]
        for _ in range(count)
    ]


class TestDistanceMatrixParallel:
    def test_matrix_matches_naive_loop(self):
        tokens = _random_token_sequences(30, seed=9)
        clear_distance_caches()
        matrix = distance_matrix(tokens)
        for i, a in enumerate(tokens):
            for j, b in enumerate(tokens):
                assert matrix[i, j] == normalized_dld(a, b)


class TestTokenizeOnce:
    """Regression for the per-call-site re-tokenization (ISSUE 2 fix)."""

    def make_sessions(self, count: int):
        from tests.conftest import make_record
        from repro.util.timeutils import to_epoch

        return [
            make_record(
                to_epoch(date(2022, 5, 1), index), session_id=f"tok-{index}"
            )
            for index in range(count)
        ]

    @staticmethod
    def count_tokenizations(monkeypatch):
        """Instrument ``TokenizerConfig.tokenize`` (the cache's miss
        path) and return the list of session ids it was called for."""
        from repro.analysis.tokenizer import TokenizerConfig

        calls = []
        real = TokenizerConfig.tokenize
        monkeypatch.setattr(
            TokenizerConfig,
            "tokenize",
            lambda self, session: calls.append(session.session_id)
            or real(self, session),
        )
        return calls

    def test_repeated_calls_tokenize_each_session_once(self, monkeypatch):
        clear_distance_caches()
        calls = self.count_tokenizations(monkeypatch)
        sessions = self.make_sessions(5)
        first = session_tokens(sessions)
        second = session_tokens(sessions)
        assert len(calls) == 5
        assert first == second
        clear_distance_caches()

    def test_different_caps_are_cached_separately(self, monkeypatch):
        clear_distance_caches()
        calls = self.count_tokenizations(monkeypatch)
        sessions = self.make_sessions(3)
        session_tokens(sessions, max_tokens=10)
        session_tokens(sessions, max_tokens=20)
        assert len(calls) == 6
        clear_distance_caches()
