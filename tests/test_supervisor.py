"""Supervised worker-pool tests: timeouts, retries, quarantine, resume.

The chaos fixtures here are the same ones CI's ``chaos-smoke`` job
drives through the CLI: deterministic worker crashes (``os._exit``),
hangs past the shard deadline, and allocations that trip the
``RLIMIT_AS`` ceiling.  The invariants under test are the repo's core
robustness claims -- a supervised fan-out retries/quarantines instead
of aborting, and its merged report stays byte-identical to the serial
path whenever nothing was quarantined.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.errors import SupervisorError
from repro.runtime.supervisor import (
    CHAOS_ENV,
    Supervisor,
    SupervisorConfig,
    SupervisorInterrupted,
    chaos_hook,
    map_supervised,
)


# ---------------------------------------------------------------------------
# Worker functions (top-level: they run in forked worker processes)
# ---------------------------------------------------------------------------

def _echo(payload, attempt):
    return ("echo", payload, attempt)


def _crash_first(payload, attempt):
    if payload == "crashy" and attempt == 0:
        os._exit(1)
    return (payload, attempt)


def _always_crash(payload, attempt):
    os._exit(1)


def _hang_first(payload, attempt):
    if payload == "slow" and attempt == 0:
        time.sleep(600.0)
    return (payload, attempt)


def _always_hang(payload, attempt):
    time.sleep(600.0)


def _always_raise(payload, attempt):
    raise ValueError(f"bad payload {payload}")


def _memory_error_first(payload, attempt):
    if attempt == 0:
        raise MemoryError
    return attempt


def _sleepy(payload, attempt):
    time.sleep(0.2)
    return payload


def _chaos_echo(payload, attempt):
    chaos_hook(payload, attempt)
    return payload


def _bloat_gib(payload, attempt):
    hog = bytearray(1 << 30)
    hog[::4096] = b"x" * len(hog[::4096])
    return len(hog)


def _config(**kwargs) -> SupervisorConfig:
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("backoff_base", 0.01)
    return SupervisorConfig(**kwargs)


def _vm_size_mib() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


class TestConfig:
    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(SupervisorError):
            SupervisorConfig(jobs=0)
        with pytest.raises(SupervisorError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(SupervisorError):
            SupervisorConfig(shard_timeout=0.0)
        with pytest.raises(SupervisorError):
            SupervisorConfig(worker_mem_mib=-1)


class TestCleanRun:
    def test_all_shards_ok_and_stats_zero(self):
        outcomes, stats = map_supervised(
            _echo, {i: f"p{i}" for i in range(6)}, _config()
        )
        assert sorted(outcomes) == list(range(6))
        for shard, outcome in outcomes.items():
            assert outcome.ok
            assert outcome.result == ("echo", f"p{shard}", 0)
            assert outcome.attempts == 1
            assert outcome.failures == []
        assert stats.as_dict() == {
            "retries": 0, "timeouts": 0, "crashes": 0, "errors": 0,
            "workers.replaced": 0, "shards.toxic": 0,
        }

    def test_sequence_payloads_enumerate(self):
        outcomes, _ = map_supervised(_echo, ["a", "b", "c"], _config())
        assert outcomes[1].result == ("echo", "b", 0)

    def test_on_result_fires_per_shard(self):
        seen = []
        map_supervised(_echo, {3: "x", 7: "y"}, _config(),
                       on_result=lambda o: seen.append(o.shard))
        assert sorted(seen) == [3, 7]

    def test_empty_payloads(self):
        outcomes, stats = map_supervised(_echo, {}, _config())
        assert outcomes == {}
        assert stats.toxic == 0


class TestCrashRecovery:
    def test_crash_on_first_attempt_heals_on_retry(self):
        events = []
        outcomes, stats = map_supervised(
            _crash_first, {0: "fine", 1: "crashy", 2: "fine"},
            _config(), on_event=events.append,
        )
        assert outcomes[1].ok
        assert outcomes[1].result == ("crashy", 1)
        assert outcomes[1].attempts == 2
        assert outcomes[1].failure_kinds == ["crash"]
        assert stats.crashes == 1
        assert stats.retries == 1
        assert stats.workers_replaced >= 1
        assert stats.toxic == 0
        assert "crashes" in events and "retries" in events
        assert "workers.replaced" in events

    def test_persistent_crash_quarantines_as_toxic(self):
        outcomes, stats = map_supervised(
            _always_crash, {0: "x"}, _config(jobs=1, max_attempts=2),
        )
        outcome = outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.failure_kinds == ["crash", "crash"]
        assert "quarantined after 2 failed attempt(s)" in \
            outcome.quarantine_message()
        assert stats.toxic == 1
        assert stats.crashes == 2
        assert stats.retries == 1

    def test_exception_failures_keep_the_worker(self):
        outcomes, stats = map_supervised(
            _always_raise, {0: "x"}, _config(jobs=1, max_attempts=3),
        )
        assert not outcomes[0].ok
        assert outcomes[0].failure_kinds == ["error"] * 3
        assert "ValueError" in outcomes[0].failures[-1]["error"]
        assert stats.errors == 3
        # A Python-level exception is reported over the pipe; the
        # worker survives and is never replaced.
        assert stats.workers_replaced == 0


class TestTimeout:
    def test_hung_worker_is_killed_and_shard_retried(self):
        outcomes, stats = map_supervised(
            _hang_first, {0: "fast", 1: "slow"},
            _config(shard_timeout=0.5),
        )
        assert outcomes[0].ok and outcomes[1].ok
        assert outcomes[1].attempts == 2
        assert outcomes[1].failure_kinds == ["timeout"]
        assert stats.timeouts == 1
        assert stats.workers_replaced >= 1

    def test_persistent_hang_quarantines_with_timeout_kind(self):
        outcomes, stats = map_supervised(
            _always_hang, {0: "x"},
            _config(jobs=1, shard_timeout=0.3, max_attempts=1),
        )
        assert not outcomes[0].ok
        assert outcomes[0].failure_kinds == ["timeout"]
        assert "exceeded shard timeout" in outcomes[0].failures[0]["error"]
        assert stats.toxic == 1


class TestMemoryCeiling:
    def test_memory_error_poisons_worker_and_retry_heals(self):
        outcomes, stats = map_supervised(
            _memory_error_first, {0: "x"}, _config(jobs=1),
        )
        assert outcomes[0].ok
        assert outcomes[0].result == 1  # succeeded on attempt 1
        assert outcomes[0].failure_kinds == ["error"]
        assert "memory ceiling" in outcomes[0].failures[0]["error"]
        assert stats.errors == 1
        # MemoryError is untrustworthy heap territory: the worker exits
        # after replying and the parent must replace it.
        assert stats.workers_replaced >= 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS ceiling semantics need Linux")
    def test_rlimit_as_turns_bloat_into_quarantine(self):
        parent_mib = _vm_size_mib()
        if parent_mib is None:
            pytest.skip("cannot read /proc/self/status")
        # Forked workers inherit the parent's address space, so the
        # ceiling is parent VmSize plus headroom far below the 1 GiB
        # the shard tries to allocate.
        outcomes, stats = map_supervised(
            _bloat_gib, {0: "x"},
            _config(jobs=1, max_attempts=1,
                    worker_mem_mib=parent_mib + 256),
        )
        assert not outcomes[0].ok
        assert stats.toxic == 1
        assert outcomes[0].failure_kinds in (["error"], ["crash"])


class TestInterrupt:
    def test_sigint_raises_interrupted_with_partial_outcomes(self):
        supervisor = Supervisor(_sleepy, _config(jobs=2))

        def _raise_interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, _raise_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.6)
        try:
            with pytest.raises(SupervisorInterrupted) as info:
                supervisor.run({i: i for i in range(20)})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        stop = info.value
        assert 0 < len(stop.outcomes) < 20
        assert stop.total == 20
        # Workers were terminated before the exception propagated.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestChaosHook:
    def test_inert_in_the_parent_process(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:0:99")
        chaos_hook(0, 0)  # would os._exit(1) in a worker

    def test_ignores_malformed_directives(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "nonsense")
        chaos_hook(0, 0)
        monkeypatch.setenv(CHAOS_ENV, "crash:zero:0")
        chaos_hook(0, 0)

    def test_crash_directive_fires_in_workers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:2:99")
        outcomes, stats = map_supervised(
            _chaos_echo, {i: i for i in range(4)},
            _config(jobs=2, max_attempts=1),
        )
        assert not outcomes[2].ok
        assert outcomes[2].failure_kinds == ["crash"]
        assert all(outcomes[i].ok for i in (0, 1, 3))
        assert stats.toxic == 1


# ---------------------------------------------------------------------------
# Campaign integration (the supervised report contracts)
# ---------------------------------------------------------------------------

class TestCampaignIntegration:
    def test_chaos_crash_once_report_byte_identical(self, monkeypatch):
        from repro.faults.campaign import render_report, run_campaign

        serial = run_campaign(program="fig10", runs=6, seed=7, jobs=1)
        monkeypatch.setenv(CHAOS_ENV, "crash:3:0")
        chaotic = run_campaign(program="fig10", runs=6, seed=7, jobs=3)
        assert render_report(chaotic) == render_report(serial)

    def test_persistent_crash_shard_becomes_toxic_detail(self, monkeypatch):
        from repro.faults.campaign import run_campaign

        monkeypatch.setenv(CHAOS_ENV, "crash:2:99")
        report = run_campaign(
            program="fig10", runs=6, seed=7, jobs=3,
            supervise=SupervisorConfig(jobs=3, max_attempts=2,
                                       backoff_base=0.01),
        )
        assert report["summary"]["toxic"] == 1
        detail = report["runs_detail"][2]
        assert detail["outcome"] == "toxic"
        assert detail["run"] == 2
        assert detail["seed"] == 7 * 1_000_003 + 2
        assert detail["events"] == [] and detail["traps"] == []
        assert detail["failures"] == ["crash", "crash"]
        assert "quarantined" in detail["error"]
        healthy = [d for d in report["runs_detail"]
                   if d["outcome"] != "toxic"]
        assert len(healthy) == 5

    def test_serial_summary_carries_toxic_keys(self):
        from repro.faults.campaign import run_campaign

        report = run_campaign(program="fig10", runs=3, seed=7, jobs=1)
        assert report["summary"]["toxic"] == 0
        assert report["summary"]["toxic_rate"] == 0.0

    def test_resume_reexecutes_only_missing_and_toxic(self, monkeypatch,
                                                      tmp_path):
        import repro.faults.campaign as campaign_mod
        from repro.faults.campaign import render_report, run_campaign
        from repro.obs.ledger import ShardJournal

        ledger = str(tmp_path / "ledger.db")
        serial = run_campaign(program="fig10", runs=6, seed=7, jobs=1)

        monkeypatch.setenv(CHAOS_ENV, "crash:4:99")
        first = run_campaign(
            program="fig10", runs=6, seed=7, jobs=3,
            journal=ShardJournal("resumable", path=ledger),
            supervise=SupervisorConfig(jobs=3, max_attempts=2,
                                       backoff_base=0.01),
        )
        assert first["summary"]["toxic"] == 1
        monkeypatch.delenv(CHAOS_ENV)

        executed = []
        original = campaign_mod._single_run

        def counting(task, attempt=0):
            executed.append(task[0])
            return original(task, attempt)

        monkeypatch.setattr(campaign_mod, "_single_run", counting)
        resumed = run_campaign(
            program="fig10", runs=6, seed=7, jobs=1,
            journal=ShardJournal("resumable", path=ledger, resume=True),
        )
        assert executed == [4]  # only the quarantined shard reran
        assert render_report(resumed) == render_report(serial)

    def test_resume_refuses_drifted_arguments(self, tmp_path):
        from repro.faults.campaign import run_campaign
        from repro.obs.ledger import ShardJournal

        ledger = str(tmp_path / "ledger.db")
        run_campaign(program="fig10", runs=3, seed=7, jobs=1,
                     journal=ShardJournal("pinned", path=ledger))
        with pytest.raises(SupervisorError, match="seed"):
            run_campaign(
                program="fig10", runs=3, seed=8, jobs=1,
                journal=ShardJournal("pinned", path=ledger, resume=True),
            )

    def test_interrupt_yields_partial_report_with_flag(self, monkeypatch):
        from repro.faults.campaign import CampaignInterrupted, run_campaign

        # Shard 3 hangs forever (no shard timeout); the alarm interrupts
        # the parent once every other run has finished.
        monkeypatch.setenv(CHAOS_ENV, "hang:3:99")

        def _raise_interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, _raise_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.5)
        try:
            with pytest.raises(CampaignInterrupted) as info:
                run_campaign(program="fig10", runs=8, seed=7, jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        stop = info.value
        report = stop.report
        assert report["interrupted"] is True
        assert stop.done == len(report["runs_detail"]) < 8
        assert all(d["run"] != 3 for d in report["runs_detail"])
