"""Run-ledger tests: schema, queries, views, CLI recording, fan-out.

The suite-wide ``_isolated_ledger`` fixture (conftest) points
``TANGLED_LEDGER`` at a per-test temp path, so ``main()`` calls here
record into a throwaway database.
"""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    Ledger,
    compare_view,
    export_json,
    ledger_path,
    open_ledger,
    render_view,
    runs_view,
    scalar_snapshot,
    trajectory_view,
)


def _seed(ledger: Ledger, label: str, counters: dict, **kw) -> str:
    kw.setdefault("config", {"sim": "pipelined"})
    return ledger.record("run", label, counters=counters, **kw)


class TestLedgerCore:
    def test_path_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGLED_LEDGER", str(tmp_path / "env.db"))
        assert ledger_path("explicit.db") == "explicit.db"
        assert ledger_path() == str(tmp_path / "env.db")
        monkeypatch.delenv("TANGLED_LEDGER")
        assert ledger_path() == os.path.expanduser("~/.tangled/ledger.db")

    def test_record_and_read_back(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            run_id = _seed(ledger, "fig10.dense", {"pipeline.cycles": 167},
                           wall_seconds=0.5, status=0,
                           traps={"count": 1, "causes": {"watchdog": 1}},
                           rate={"steps": 92, "steps_per_second": 1000},
                           artifacts=["trace.json"])
            (run,) = ledger.runs()
            assert run.id == run_id
            assert run.counters == {"pipeline.cycles": 167}
            assert run.traps["causes"] == {"watchdog": 1}
            assert run.artifacts == ["trace.json"]
            assert run.metrics()["rate.steps_per_second"] == 1000
            assert len(run.id) == 12

    def test_schema_version_stamped_and_checked(self, tmp_path):
        path = str(tmp_path / "l.db")
        open_ledger(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == \
            ledger_mod.SCHEMA_VERSION
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ReproError, match="unsupported ledger schema"):
            open_ledger(path)

    def test_runs_filter_order_and_last(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            for i in range(5):
                _seed(ledger, "a", {"n": i}, ts=100.0 + i)
            _seed(ledger, "b", {"n": 99}, ts=200.0)
            runs = ledger.runs(label="a", last=3)
            assert [r.counters["n"] for r in runs] == [2, 3, 4]
            assert [r.counters["n"] for r in ledger.runs(last=2)] == [4, 99]
            assert ledger.labels() == [("a", 5), ("b", 1)]

    def test_get_by_prefix_and_ambiguity(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "a", {}, run_id="abc111", ts=1.0)
            _seed(ledger, "a", {}, run_id="abd222", ts=2.0)
            assert ledger.get("abc").id == "abc111"
            with pytest.raises(ReproError, match="ambiguous"):
                ledger.get("ab")
            with pytest.raises(ReproError, match="no recorded run"):
                ledger.get("zz")

    def test_ambiguous_prefix_lists_candidates(self, tmp_path):
        # Regression: the ambiguity error must carry the candidate ids
        # so report --compare / blackbox can show them, and must name
        # them in the message rather than leaving the user to guess.
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "a", {}, run_id="abc111", ts=1.0)
            _seed(ledger, "a", {}, run_id="abd222", ts=2.0)
            with pytest.raises(ledger_mod.AmbiguousRunId) as excinfo:
                ledger.get("ab")
            assert excinfo.value.candidates == ["abc111", "abd222"]
            assert "abc111" in str(excinfo.value)
            assert "abd222" in str(excinfo.value)

    def test_resolve_ambiguous_prefix_does_not_fall_back_to_label(
            self, tmp_path):
        # Regression: resolve() used to swallow the ambiguity into the
        # label fallback and report "matches no recorded run", silently
        # hiding that the prefix matched several runs.
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "a", {}, run_id="abc111", ts=1.0)
            _seed(ledger, "a", {}, run_id="abd222", ts=2.0)
            with pytest.raises(ledger_mod.AmbiguousRunId, match="abd222"):
                ledger.resolve("ab")

    def test_resolve_label_falls_back_to_latest(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "fig10.re", {"n": 1}, ts=1.0)
            newest = _seed(ledger, "fig10.re", {"n": 2}, ts=2.0)
            assert ledger.resolve("fig10.re").id == newest
            with pytest.raises(ReproError, match="matches no recorded"):
                ledger.resolve("nope")


class TestSnapshot:
    def test_scalar_snapshot_splits_progress_and_drops_histograms(self):
        from repro import obs

        telemetry = obs.Telemetry(enabled=True, tracing=False)
        telemetry.counter("cpu.instructions").add(92)
        telemetry.gauge("qat.ways").set(8)
        telemetry.histogram("fault.run_seconds").observe(0.5)
        telemetry.gauge("progress.worker.1.runs").set(4)
        counters, progress = scalar_snapshot(telemetry)
        assert counters == {"cpu.instructions": 92, "qat.ways": 8}
        assert progress == {"progress.worker.1.runs": 4}

    def test_scalar_snapshot_none(self):
        assert scalar_snapshot(None) == ({}, {})


class TestViews:
    def test_trajectory_series_and_deltas(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "fig10.re", {"qat.ops": 100}, ts=1.0)
            _seed(ledger, "fig10.re", {"qat.ops": 80, "new.counter": 1},
                  ts=2.0)
            view = trajectory_view(ledger, "fig10.re")
            assert view["series"]["qat.ops"] == [100, 80]
            assert view["series"]["new.counter"] == [None, 1]
            assert view["deltas"]["qat.ops"] == {
                "first": 100, "last": 80, "pct": -0.2}
            assert "new.counter" not in view["deltas"]
            text = render_view(view)
            assert "qat.ops: 100 -> 80" in text

    def test_trajectory_unknown_label_lists_known(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "fig10.re", {})
            with pytest.raises(ReproError, match="fig10.re"):
                trajectory_view(ledger, "nope")

    def test_compare_classifies_like_bench(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "dense", {"pipeline.cycles": 100, "only.a": 1},
                  rate={"steps_per_second": 1000}, ts=1.0)
            _seed(ledger, "re", {"pipeline.cycles": 200},
                  rate={"steps_per_second": 2000}, ts=2.0)
            view = compare_view(ledger, "dense", "re")
            verdicts = {r["metric"]: r["verdict"] for r in view["rows"]}
            assert verdicts["pipeline.cycles"] == "regressed"
            # Throughput: more steps/sec is an improvement.
            assert verdicts["rate.steps_per_second"] == "improved"
            assert verdicts["only.a"] == "neutral"
            kinds = {r["metric"]: r["kind"] for r in view["rows"]}
            assert kinds["only.a"] == "missing"
            assert kinds["rate.steps_per_second"] == "timing"

    def test_export_json_is_byte_stable(self, tmp_path):
        with open_ledger(str(tmp_path / "l.db")) as ledger:
            _seed(ledger, "a", {"x": 1}, ts=1.0, run_id="aaa")
            _seed(ledger, "a", {"x": 2}, ts=2.0, run_id="bbb")
            first = export_json(runs_view(ledger))
            second = export_json(runs_view(ledger))
            assert first == second
            assert first.endswith("\n")
            json.loads(first)  # well-formed
            traj = [export_json(trajectory_view(ledger, "a"))
                    for _ in range(2)]
            assert traj[0] == traj[1]


class TestCliRecording:
    def _ledger(self):
        return open_ledger(os.environ["TANGLED_LEDGER"])

    def test_fig10_records_row_with_counters(self):
        assert main(["fig10"]) == 0
        with self._ledger() as ledger:
            (run,) = ledger.runs()
            assert run.command == "fig10"
            assert run.label == "fig10.pipelined.dense"
            assert run.counters["cpu.instructions"] == 92
            assert run.counters["pipeline.cycles"] == 167
            assert run.status == 0
            assert run.config["qat_backend"] == "dense"
            assert run.wall_seconds is not None

    def test_no_ledger_opt_out(self):
        assert main(["fig10", "--no-ledger"]) == 0
        with self._ledger() as ledger:
            assert ledger.runs() == []

    def test_unwritable_ledger_warns_but_run_succeeds(self, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("TANGLED_LEDGER", "/dev/null/nope/ledger.db")
        assert main(["fig10"]) == 0
        captured = capsys.readouterr()
        assert "$0 = 5" in captured.out
        assert "ledger" in captured.err

    def test_report_trajectory_across_two_runs(self, capsys):
        assert main(["fig10"]) == 0
        assert main(["fig10"]) == 0
        capsys.readouterr()
        assert main(["report", "--label", "fig10.pipelined.dense"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "cpu.instructions" in out

    def test_report_compare_dense_vs_re_export_stable(self, capsys):
        assert main(["fig10"]) == 0
        assert main(["fig10", "--qat-backend", "re"]) == 0
        capsys.readouterr()
        args = ["report", "--compare", "fig10.pipelined.dense",
                "fig10.pipelined.re", "--export", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        view = json.loads(first)
        assert view["a"]["label"] == "fig10.pipelined.dense"
        assert view["b"]["label"] == "fig10.pipelined.re"
        # A row recorded by an older build that had a persistent chunk
        # cache: the ledger outlives upgrades, so it must still render.
        with self._ledger() as ledger:
            old_config = dict(ledger.runs(label="fig10.pipelined.re")[0].config,
                              chunk_cache="~/.tangled/chunks.db")
            _seed(ledger, "fig10.old-build",
                  {"cpu.instructions": 92, "chunkstore.persist.hit": 40,
                   "chunkstore.persist.miss": 2},
                  config=old_config)
        assert main(["report", "--label", "fig10.old-build"]) == 0
        assert "chunkstore.persist.hit" in capsys.readouterr().out
        compare = ["report", "--compare", "fig10.pipelined.re",
                   "fig10.old-build"]
        assert main(compare) == 0
        assert "fig10.old-build" in capsys.readouterr().out
        assert main(compare + ["--export", "json"]) == 0
        rows = {r["metric"]: r for r in
                json.loads(capsys.readouterr().out)["rows"]}
        assert rows["chunkstore.persist.hit"]["kind"] == "missing"
        # Rows written by the retired ``tangled bench``: one suite row
        # plus one row per bench entry, labeled by bench name, whose
        # rate holds the entry's steps and median steps/sec.
        bench_config = {"qat_backend": "dense", "rounds": 5, "warmup": 1,
                        "jobs": 1}
        with self._ledger() as ledger:
            ledger.record("bench", "bench.nightly", config=bench_config,
                          counters={}, artifacts=["BENCH_nightly.json"])
            for run_id, sps in (("benchold1", 30000), ("benchold2", 60000)):
                ledger.record("bench", "fig10.re", config=bench_config,
                              counters={"cpu.instructions": 92,
                                        "qat.ops": 40},
                              rate={"steps": 92, "steps_per_second": sps},
                              run_id=run_id)
        assert main(["report"]) == 0
        assert "fig10.re" in capsys.readouterr().out
        assert main(["report", "--label", "fig10.re"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "rate.steps_per_second" in out
        assert main(["report", "--compare", "benchold1", "benchold2",
                     "--export", "json"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["a"]["command"] == view["b"]["command"] == "bench"
        verdicts = {r["metric"]: r["verdict"] for r in view["rows"]}
        assert verdicts == {"cpu.instructions": "neutral",
                            "qat.ops": "neutral",
                            "rate.steps": "neutral",
                            "rate.steps_per_second": "improved"}

    def test_run_records_traps_and_failure_status(self, tmp_path, capsys):
        bad = tmp_path / "trap.s"
        bad.write_text("lex $0, 1\n.word 0x6000\nlex $rv, 0\nsys\n")
        assert main(["run", str(bad)]) == 1
        with self._ledger() as ledger:
            (run,) = ledger.runs(command="run")
            assert run.status == 1
            assert run.traps is not None and run.traps["count"] >= 1
            assert "illegal_opcode" in str(run.traps["causes"]) or \
                run.traps["causes"]


class TestFanOutInterplay:
    """Satellite: ledger x --jobs sharding."""

    CAMPAIGN = ["faults", "--runs", "6", "--seed", "11", "--jobs", "2",
                "--qat-backend", "re"]

    def test_identical_jobs_campaigns_identical_snapshots(self, capsys):
        assert main(self.CAMPAIGN) == 0
        # Every chunk store belongs to one run, so the second campaign's
        # ledger snapshot must not shift.
        assert main(self.CAMPAIGN) == 0
        reports = capsys.readouterr().out
        half = len(reports) // 2
        assert reports[:half] == reports[half:]
        with open_ledger(os.environ["TANGLED_LEDGER"]) as ledger:
            one, two = ledger.runs(command="faults")
            assert one.counters == two.counters
            assert one.counters["faults.masked"] + \
                one.counters["faults.detected"] + \
                one.counters["faults.silent"] == 6
            # Worker gauges live beside (not inside) the snapshot.
            assert not any(k.startswith("progress.") for k in one.counters)
            assert one.workers["done"] == 6
            # Worker ids are pool-assigned (a process-global counter),
            # so only their presence and shape are stable.
            assert 1 <= len(one.workers["workers"]) <= 2
            assert all(wid.isdigit() for wid in one.workers["workers"])
            for gauges in one.workers["workers"].values():
                assert set(gauges) == {"items", "busy_seconds", "steps",
                                       "steps_per_second", "straggler"}

    def test_jobs_report_bytes_match_serial_with_progress(self, capsys):
        serial = ["faults", "--runs", "5", "--seed", "3", "--summary-only"]
        assert main(serial) == 0
        first = capsys.readouterr().out
        assert main(serial[:-1] + ["--jobs", "2", "--summary-only"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        # The fan-out run narrates progress on stderr...
        assert "progress:" in captured.err
        # ...and none of it leaks into the merged report.
        assert "progress" not in captured.out


class TestConcurrencyHardening:
    def test_connections_use_wal_and_busy_timeout(self, tmp_path):
        conn = ledger_mod._connect(str(tmp_path / "ledger.db"))
        try:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 5000
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode.lower() == "wal"
        finally:
            conn.close()

    def test_locked_retry_survives_transient_locks(self):
        import sqlite3

        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert ledger_mod._locked_retry(flaky, delay=0.001) == "ok"
        assert len(calls) == 3

    def test_locked_retry_propagates_other_errors(self):
        import sqlite3

        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            ledger_mod._locked_retry(broken, delay=0.001)

    def test_v1_database_migrates_in_place(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "v1.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE runs (id TEXT PRIMARY KEY, ts REAL NOT NULL, "
            "command TEXT NOT NULL, label TEXT NOT NULL, version TEXT "
            "NOT NULL, config TEXT NOT NULL, wall_seconds REAL, status "
            "INTEGER NOT NULL, traps TEXT, counters TEXT NOT NULL, rate "
            "TEXT, workers TEXT, artifacts TEXT NOT NULL); "
            "PRAGMA user_version = 1;"
        )
        conn.commit()
        conn.close()
        with ledger_mod.open_ledger(path) as ledger:
            ledger.record("run", "migrated", {}, {})
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == \
            ledger_mod.SCHEMA_VERSION
        assert conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE name = 'shards'"
        ).fetchone()[0] == 1
        conn.close()


class TestShardJournal:
    def test_roundtrip_returns_done_payloads_only(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        journal = ledger_mod.ShardJournal("jrnl", path=path)
        assert journal.begin("faults", {"seed": 7}) == {}
        journal.record(0, ledger_mod.SHARD_DONE, 1, {"run": 0, "x": 1})
        journal.record(1, ledger_mod.SHARD_TOXIC, 3, {"run": 1})
        resumed = ledger_mod.ShardJournal("jrnl", path=path, resume=True)
        done = resumed.begin("faults", {"seed": 7})
        assert done == {0: {"run": 0, "x": 1}}

    def test_resume_missing_run_raises(self, tmp_path):
        from repro.errors import SupervisorError

        path = str(tmp_path / "ledger.db")
        ledger_mod.ShardJournal("exists", path=path).begin("faults", {})
        with pytest.raises(SupervisorError, match="nothing to resume"):
            ledger_mod.ShardJournal("absent", path=path, resume=True)

    def test_resume_fingerprint_mismatch_names_drifted_keys(self,
                                                            tmp_path):
        from repro.errors import SupervisorError

        path = str(tmp_path / "ledger.db")
        journal = ledger_mod.ShardJournal("jrnl", path=path)
        journal.begin("faults", {"seed": 7, "runs": 4})
        resumed = ledger_mod.ShardJournal("jrnl", path=path, resume=True)
        with pytest.raises(SupervisorError, match="seed"):
            resumed.begin("faults", {"seed": 8, "runs": 4})

    def test_record_replaces_prior_row(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        journal = ledger_mod.ShardJournal("jrnl", path=path)
        journal.begin("faults", {})
        journal.record(0, ledger_mod.SHARD_TOXIC, 3, {"run": 0})
        journal.record(0, ledger_mod.SHARD_DONE, 1, {"run": 0, "ok": 1})
        resumed = ledger_mod.ShardJournal("jrnl", path=path, resume=True)
        assert resumed.begin("faults", {}) == {0: {"run": 0, "ok": 1}}

    def test_write_failure_disables_journal_not_run(self, tmp_path,
                                                    monkeypatch, capsys):
        import sqlite3

        path = str(tmp_path / "ledger.db")
        journal = ledger_mod.ShardJournal("jrnl", path=path)

        def exploding(_path):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(ledger_mod, "_connect", exploding)
        journal.record(0, ledger_mod.SHARD_DONE, 1, {})
        assert journal.enabled is False
        assert "resume disabled" in capsys.readouterr().err
        journal.record(1, ledger_mod.SHARD_DONE, 1, {})  # silent no-op

    def test_resolve_journal_run_prefix_and_errors(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        ledger_mod.ShardJournal("abc123", path=path).begin("faults", {})
        ledger_mod.ShardJournal("abd999", path=path).begin("faults", {})
        assert ledger_mod.resolve_journal_run("abc", path=path) == "abc123"
        assert ledger_mod.resolve_journal_run("abc123", path=path) == \
            "abc123"
        with pytest.raises(ledger_mod.AmbiguousRunId) as excinfo:
            ledger_mod.resolve_journal_run("ab", path=path)
        assert sorted(excinfo.value.candidates) == ["abc123", "abd999"]
        with pytest.raises(ReproError, match="no journaled run"):
            ledger_mod.resolve_journal_run("zzz", path=path)

    def test_resolve_journal_run_without_ledger_file(self, tmp_path):
        with pytest.raises(ReproError, match="nothing to resume"):
            ledger_mod.resolve_journal_run(
                "abc", path=str(tmp_path / "missing.db")
            )
