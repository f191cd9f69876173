"""Flight recorder tests: ring semantics, spills, spools, forensics.

Covers the always-on architectural black box (:mod:`repro.obs.flight`)
end to end:

- ring buffer bounds (trim policy, totals, reset) and byte-stable
  snapshots;
- event order on fig10 (the stream's equality across every engine is
  checked by ``tests/test_conformance.py``);
- worker spool protocol (first spill wins, ok shards discard, toxic
  shards collect) and the supervised campaign carrying collected
  blackboxes into its report;
- the ``tangled blackbox`` CLI (render + byte-stable ``--export json``)
  and the abnormal-end spills of ``tangled run``;
- the exit-status taxonomy living only in :mod:`repro.errors`.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.obs import flight


@pytest.fixture(autouse=True)
def _fresh_recorder():
    """Each test starts (and leaves) an empty, enabled global ring."""
    flight.RECORDER.reset()
    flight.RECORDER.enabled = True
    yield
    flight.RECORDER.reset()


# ---------------------------------------------------------------------------
# Ring semantics
# ---------------------------------------------------------------------------

class TestRecorderRing:
    def test_trim_keeps_last_capacity_events(self):
        rec = flight.FlightRecorder(capacity=8)
        for pc in range(40):
            rec.note_retire(pc, (pc,))
        assert len(rec.events) <= rec.limit
        assert rec.total() == 40
        snap = rec.snapshot()
        pcs = [e["pc"] for e in snap["events"]]
        assert pcs == list(range(32, 40))  # the newest ``capacity``
        assert snap["events_dropped"] == 32

    def test_reset_clears_events_and_trim_count(self):
        rec = flight.FlightRecorder(capacity=4)
        for pc in range(20):
            rec.note_retire(pc, (pc,))
        rec.reset()
        assert rec.events == [] and rec.total() == 0

    def test_event_kinds_render_in_snapshot(self):
        rec = flight.FlightRecorder(capacity=64)
        rec.note_retire(0x10, (0x2C00,))
        rec.note_trap(0x11, "unknown_syscall", None, 1, "sys 9")
        rec.note_syscall(0x11, 9)
        rec.note_checkpoint("capture", "pc=0x0010")
        rec.note_fault("gpr", "bit=3")
        rec.mark("supervisor.retries", "shard 2")
        kinds = [e["kind"] for e in rec.snapshot()["events"]]
        assert kinds == ["retire", "trap", "syscall", "checkpoint",
                        "fault", "mark"]

    def test_snapshot_is_byte_stable(self):
        rec = flight.FlightRecorder(capacity=16)
        for pc in range(10):
            rec.note_retire(pc, (0x2C00 + pc,))
        a = flight.export_json(rec.snapshot(reason="x", run_id="r"))
        b = flight.export_json(rec.snapshot(reason="x", run_id="r"))
        assert a == b
        json.loads(a)  # and it is valid JSON

    def test_qat_annotation_needs_ways_context(self):
        rec = flight.FlightRecorder(capacity=16)
        # ``8002 0001`` is the two-word Qat ``qand @2, @0, @1``.
        rec.note_retire(0, (0x8002, 0x0001))
        plain = rec.snapshot()
        assert "qat" in plain["events"][0]
        assert plain["events"][0]["qat"]["op"] == "qand"
        sized = rec.snapshot(context={"ways": 8})
        assert sized["events"][0]["qat"]["bits"] == 256
        assert sized["qat_summary"] == {"ops": 1, "bits": 256}

    def test_non_qat_retire_is_unannotated(self):
        rec = flight.FlightRecorder(capacity=16)
        rec.note_retire(0, (0x2C00,))  # lex $rv, 0
        assert "qat" not in rec.snapshot()["events"][0]

    def test_env_var_disables_and_resizes(self, monkeypatch):
        monkeypatch.setenv(flight.ENV_VAR, "off")
        assert flight._from_env().enabled is False
        monkeypatch.setenv(flight.ENV_VAR, "128")
        rec = flight._from_env()
        assert rec.enabled and rec.capacity == 128

    def test_spill_and_load_roundtrip(self, tmp_path):
        rec = flight.FlightRecorder(capacity=16)
        rec.note_retire(0, (0x2C00,))
        path = str(tmp_path / "box" / "blackbox-abc.json")
        flight.spill(path, "test", run_id="abc", recorder=rec)
        doc = flight.load_blackbox(path)
        assert doc["run_id"] == "abc" and doc["reason"] == "test"
        assert doc["events"][0]["kind"] == "retire"

    def test_load_rejects_non_blackbox_files(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "not-a-box.json"
        path.write_text("{}")
        with pytest.raises(ReproError):
            flight.load_blackbox(str(path))


# ---------------------------------------------------------------------------
# Event order
# ---------------------------------------------------------------------------

class TestEventOrder:
    def test_fig10_syscall_precedes_final_retire(self):
        from repro.apps.fig10 import fig10_program
        from repro.cpu import FunctionalSimulator

        sim = FunctionalSimulator(ways=8)
        sim.load(fig10_program())
        sim.run()
        kinds = [event[0] for event in flight.RECORDER.events]
        assert flight.SYSCALL in kinds
        # The halting syscall is noted before its ``sys`` retires, so
        # it sits just ahead of the final retire event.
        assert kinds.index(flight.SYSCALL) == len(kinds) - 2
        assert kinds[-1] == flight.RETIRE

    def test_batch_lanes_record_like_serial_runs(self):
        """Each lane of a batch campaign opens with its run's mark, then
        records that run's retire, fault and trap events -- the very
        stream a serial campaign leaves."""
        from repro.faults.campaign import run_campaign

        kwargs = dict(program="fig10", runs=3, seed=7, faults_per_run=2,
                      targets=("gpr", "mem", "qreg", "pc"))
        run_campaign(**kwargs)
        serial = list(flight.RECORDER.events)
        flight.RECORDER.reset()
        run_campaign(batch=3, **kwargs)
        events = flight.RECORDER.events
        marks = [i for i, event in enumerate(events)
                 if event[0] == flight.MARK]
        assert [events[i][2] for i in marks] == [
            ("campaign.run", f"run={run} attempt=0 sim=functional")
            for run in range(3)]
        for start, end in zip(marks, marks[1:] + [len(events)]):
            assert events[start + 1][0] in (flight.RETIRE, flight.FAULT)
            assert any(event[0] == flight.RETIRE
                       for event in events[start:end])
        assert events == serial

    def test_hot_loop_leaves_the_step_loops_snapshot_and_spill(
            self, tmp_path, monkeypatch):
        """Translated blocks extend the ring a block at a time.  With a
        ring so small that the extends straddle trims, the snapshot and
        the spill are still byte-identical to the observed loop's."""
        from repro.asm import assemble
        from repro.cpu import FunctionalSimulator, fastpath

        with open(os.path.join(os.path.dirname(__file__), "..", "examples",
                               "hot_loop.s"), encoding="utf-8") as source:
            program = assemble(source.read())
        spills = []
        for translated in (True, False):
            recorder = flight.FlightRecorder(capacity=5)
            monkeypatch.setattr(flight, "RECORDER", recorder)
            sim = FunctionalSimulator(ways=8)
            sim.load(program)
            if translated:
                sim.run()
                assert [b for b in fastpath.cache_for(sim.machine)
                        .blocks.values() if b]
            else:
                while not sim.machine.halted:
                    sim.step()
            path = tmp_path / f"translated-{translated}.json"
            flight.spill(str(path), "test", run_id="hot", context={"ways": 8})
            spills.append((recorder.snapshot(context={"ways": 8}),
                           path.read_bytes()))
        assert spills[0] == spills[1]
        assert spills[0][0]["events_dropped"] > 0


# ---------------------------------------------------------------------------
# Worker spool protocol
# ---------------------------------------------------------------------------

class TestSpool:
    @pytest.fixture
    def spool(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "spool")
        os.makedirs(directory)
        monkeypatch.setenv(flight.SPOOL_ENV, directory)
        monkeypatch.setenv(flight.SPOOL_RUN_ENV, "feedc0ffee12")
        return directory

    def test_unconfigured_spool_is_inert(self, monkeypatch):
        monkeypatch.delenv(flight.SPOOL_ENV, raising=False)
        monkeypatch.delenv(flight.SPOOL_RUN_ENV, raising=False)
        assert flight.spool_file(3) is None
        assert flight.spool_spill(3, "crash") is None
        assert flight.spool_collect(3) is None
        flight.spool_discard(3)  # no-op, no raise

    def test_first_spill_wins(self, spool):
        flight.RECORDER.note_retire(0, (0x2C00,))
        first = flight.spool_spill(4, "chaos-crash")
        assert first is not None and os.path.exists(first)
        before = open(first).read()
        flight.RECORDER.note_retire(1, (0x2C01,))
        assert flight.spool_spill(4, "deadline") == first
        assert open(first).read() == before  # retry did not overwrite

    def test_collect_and_discard(self, spool):
        flight.RECORDER.note_retire(0, (0x2C00,))
        path = flight.spool_spill(7, "worker-error")
        assert flight.spool_collect(7) == path
        flight.spool_discard(7)
        assert flight.spool_collect(7) is None

    def test_spill_carries_worker_context(self, spool):
        flight.WORKER_CONTEXT.clear()
        flight.WORKER_CONTEXT.update(program="fig10", ways=4)
        try:
            flight.RECORDER.note_retire(0, (0x9000, 0x0000))
            doc = flight.load_blackbox(flight.spool_spill(1, "crash"))
        finally:
            flight.WORKER_CONTEXT.clear()
        assert doc["context"]["program"] == "fig10"
        assert doc["shard"] == 1 and doc["run_id"] == "feedc0ffee12"

    def test_configure_spool_sets_and_clear_unsets(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("TANGLED_BLACKBOX_DIR", str(tmp_path / "bb"))
        directory = flight.configure_spool("aaaabbbbcccc")
        try:
            assert os.environ[flight.SPOOL_ENV] == directory
            assert os.environ[flight.SPOOL_RUN_ENV] == "aaaabbbbcccc"
            assert os.path.isdir(directory)
        finally:
            flight.clear_spool()
        assert flight.SPOOL_ENV not in os.environ

    def test_arm_deadline_dump_fires_before_deadline(self, spool):
        import time

        flight.RECORDER.note_retire(0, (0x2C00,))
        disarm = flight.arm_deadline_dump(9, timeout=0.15)
        try:
            deadline = time.monotonic() + 2.0
            while (flight.spool_collect(9) is None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            disarm()
        path = flight.spool_collect(9)
        assert path is not None
        assert flight.load_blackbox(path)["reason"] == "deadline"

    def test_disarm_cancels_the_dump(self, spool):
        import time

        disarm = flight.arm_deadline_dump(9, timeout=0.2)
        disarm()
        time.sleep(0.25)
        assert flight.spool_collect(9) is None


# ---------------------------------------------------------------------------
# Supervised campaign integration
# ---------------------------------------------------------------------------

class TestCampaignBlackbox:
    def test_toxic_shard_blackbox_collected_into_report(self, tmp_path,
                                                        monkeypatch):
        from repro.faults.campaign import run_campaign
        from repro.runtime.supervisor import CHAOS_ENV, SupervisorConfig

        monkeypatch.setenv("TANGLED_BLACKBOX_DIR", str(tmp_path / "bb"))
        monkeypatch.setenv(CHAOS_ENV, "crash:2:99")
        flight.configure_spool("cafecafecafe")
        try:
            report = run_campaign(
                program="fig10", runs=6, seed=7, jobs=3,
                supervise=SupervisorConfig(jobs=3, max_attempts=2,
                                           backoff_base=0.01),
            )
        finally:
            flight.clear_spool()
        assert report["summary"]["toxic"] == 1
        boxes = report.get("blackbox")
        assert boxes and len(boxes) == 1
        doc = flight.load_blackbox(boxes[0])
        assert doc["shard"] == 2 and doc["reason"] == "chaos-crash"
        assert doc["context"]["program"] == "fig10"
        assert any(e["kind"] == "mark" and e["label"] == "campaign.run"
                   for e in doc["events"])
        toxic = [d for d in report["runs_detail"]
                 if d["outcome"] == "toxic"]
        assert toxic[0]["blackbox"] == boxes[0]

    def test_healthy_campaign_report_has_no_blackbox_key(self, tmp_path,
                                                         monkeypatch):
        from repro.faults.campaign import run_campaign

        monkeypatch.setenv("TANGLED_BLACKBOX_DIR", str(tmp_path / "bb"))
        flight.configure_spool("beefbeefbeef")
        try:
            report = run_campaign(program="fig10", runs=4, seed=7, jobs=2)
        finally:
            flight.clear_spool()
        assert "blackbox" not in report
        for detail in report["runs_detail"]:
            assert detail.get("blackbox") is None

    def test_healed_chaos_report_byte_identical_to_serial(self, tmp_path,
                                                          monkeypatch):
        """A shard that crashes once then heals discards its spool: the
        report (and its bytes) stay identical to the serial run."""
        from repro.faults.campaign import render_report, run_campaign
        from repro.runtime.supervisor import CHAOS_ENV

        serial = run_campaign(program="fig10", runs=6, seed=7, jobs=1)
        monkeypatch.setenv("TANGLED_BLACKBOX_DIR", str(tmp_path / "bb"))
        monkeypatch.setenv(CHAOS_ENV, "crash:3:0")
        flight.configure_spool("0123456789ab")
        try:
            chaotic = run_campaign(program="fig10", runs=6, seed=7, jobs=3)
        finally:
            flight.clear_spool()
        assert render_report(chaotic) == render_report(serial)
        assert "blackbox" not in chaotic


# ---------------------------------------------------------------------------
# CLI: abnormal-end spills and the ``tangled blackbox`` subcommand
# ---------------------------------------------------------------------------

class TestCliBlackbox:
    @pytest.fixture
    def trap_source(self, tmp_path):
        path = tmp_path / "trap.s"
        path.write_text("lex $12, 9\nsys\n")
        return str(path)

    def _latest_run(self):
        from repro.obs import ledger as ledger_mod

        with ledger_mod.open_ledger() as ledger:
            runs = ledger.runs(last=1)
        assert runs, "the run should have been recorded"
        return runs[-1]

    def test_trapping_run_spills_linked_blackbox(self, trap_source, capsys):
        from repro.cli import main

        assert main(["run", trap_source, "--sim", "functional"]) == 1
        err = capsys.readouterr().err
        assert "blackbox ->" in err
        run = self._latest_run()
        boxes = [p for p in run.artifacts
                 if os.path.basename(p).startswith("blackbox-")]
        assert len(boxes) == 1 and os.path.exists(boxes[0])
        doc = flight.load_blackbox(boxes[0])
        assert doc["reason"] == "error"
        assert any(e["kind"] == "trap"
                   and e["cause"] == "unknown_syscall"
                   for e in doc["events"])

    def test_blackbox_subcommand_renders_disassembly(self, trap_source,
                                                     capsys):
        from repro.cli import main

        main(["run", trap_source, "--sim", "functional"])
        run = self._latest_run()
        capsys.readouterr()
        assert main(["blackbox", run.id]) == 0
        out = capsys.readouterr().out
        assert f"== blackbox {run.id}" in out
        assert "lex" in out  # disassembled retire
        assert "** trap unknown_syscall" in out
        assert "-- syscall service=9" in out

    def test_blackbox_export_json_is_byte_stable(self, trap_source, capsys):
        from repro.cli import main

        main(["run", trap_source, "--sim", "functional"])
        run = self._latest_run()
        capsys.readouterr()
        assert main(["blackbox", run.id, "--export", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["blackbox", run.id, "--export", "json"]) == 0
        assert capsys.readouterr().out == first
        json.loads(first)

    def test_blackbox_accepts_a_path(self, trap_source, capsys):
        from repro.cli import main

        main(["run", trap_source, "--sim", "functional"])
        run = self._latest_run()
        box = next(p for p in run.artifacts
                   if os.path.basename(p).startswith("blackbox-"))
        capsys.readouterr()
        assert main(["blackbox", box, "--last", "2"]) == 0
        assert "** trap unknown_syscall" in capsys.readouterr().out

    def test_blackbox_errors_on_clean_run(self, tmp_path, capsys):
        from repro.cli import main

        ok = tmp_path / "ok.s"
        ok.write_text("lex $0, 1\nlex $rv, 0\nsys\n")
        assert main(["run", str(ok), "--sim", "functional"]) == 0
        run = self._latest_run()
        assert main(["blackbox", run.id]) == 1
        assert "no blackbox artifacts" in capsys.readouterr().err

    def test_clean_run_spills_nothing(self, tmp_path, capsys):
        from repro.cli import main

        ok = tmp_path / "ok.s"
        ok.write_text("lex $0, 1\nlex $rv, 0\nsys\n")
        assert main(["run", str(ok), "--sim", "functional"]) == 0
        run = self._latest_run()
        assert not any(os.path.basename(p).startswith("blackbox-")
                       for p in run.artifacts)


# ---------------------------------------------------------------------------
# Exit-status taxonomy (satellite: one documented home in repro.errors)
# ---------------------------------------------------------------------------

class TestExitTaxonomy:
    def test_values(self):
        from repro import errors

        assert errors.EXIT_OK == 0
        assert errors.EXIT_FAILURE == 1
        assert errors.EXIT_TIMEOUT == 3
        assert errors.EXIT_TOXIC_SHARDS == 4
        assert errors.EXIT_INTERRUPTED == 130

    def test_cli_has_no_literal_exit_codes(self):
        """``cli.py`` must route every exit status through the named
        constants: no ``return <int>``, ``finish(<int>)``, or
        ``exit(<int>)`` literals survive."""
        import inspect

        from repro import cli

        source = inspect.getsource(cli)
        offenders = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            code = line.split("#", 1)[0]
            if re.search(r"\breturn\s+\d+\b", code) \
                    or re.search(r"\bfinish\(\s*\d", code) \
                    or re.search(r"\bexit\(\s*\d", code):
                offenders.append(f"{lineno}: {line.strip()}")
        assert not offenders, (
            "literal exit codes in cli.py (use repro.errors.EXIT_*):\n"
            + "\n".join(offenders)
        )

    def test_cli_imports_the_taxonomy(self):
        from repro import cli, errors

        assert cli.EXIT_TOXIC_SHARDS is errors.EXIT_TOXIC_SHARDS


# ---------------------------------------------------------------------------
# Status line (satellite: finish() clears the throttled stderr line)
# ---------------------------------------------------------------------------

class _FakeTty:
    def __init__(self, tty=True):
        self.tty = tty
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass

    def isatty(self):
        return self.tty


class TestStatusLine:
    def test_tty_rewrites_in_place_and_clears(self):
        from repro.cli import _StatusLine

        stream = _FakeTty()
        line = _StatusLine(stream)
        line("progress: 1/4")
        line("progress: 2/4")
        assert all(w.startswith("\r") for w in stream.writes)
        line.clear()
        assert stream.writes[-1].endswith("\r")
        assert set(stream.writes[-1].strip("\r")) <= {" "}

    def test_non_tty_suppresses_throttled_rewrites(self):
        # Regression: the gauge used to repeat-print on pipes/CI logs,
        # accumulating hundreds of near-identical lines.  Only println
        # (the durable final summary) may reach a non-TTY stream.
        from repro.cli import _StatusLine

        stream = _FakeTty(tty=False)
        line = _StatusLine(stream)
        line("progress: 1/4")
        line("progress: 2/4")
        line.clear()  # no-op
        assert stream.writes == []
        line.println("final: 4/4")
        assert "".join(stream.writes) == "final: 4/4\n"

    def test_tty_rewrite_clamped_to_terminal_width(self):
        # Regression: a status line wider than the terminal wrapped,
        # breaking the \r-rewrite into a torn stack of lines.
        from repro.cli import _StatusLine

        stream = _FakeTty()
        line = _StatusLine(stream, width=20)
        line("x" * 50)
        # Clamped to width-1: the last column must stay free or most
        # terminals wrap on the final cell.
        assert stream.writes[0] == "\r" + "x" * 19
        line("y" * 5)
        # The shorter rewrite pads over the clamped width, not the
        # original 50 columns.
        assert stream.writes[1] == "\r" + "y" * 5 + " " * 14

    def test_tracker_finish_clears_before_final_summary(self):
        from repro.obs.progress import ProgressTracker

        calls = []

        class Sink:
            def __call__(self, line):
                calls.append(("line", line))

            def clear(self):
                calls.append(("clear", None))

            def println(self, line):
                calls.append(("println", line))

        tracker = ProgressTracker(total=2, what="runs", emit=Sink(),
                                  interval=0.0)
        tracker.note(1, 0.01)
        tracker.note(1, 0.01)
        tracker.finish()
        ops = [kind for kind, _ in calls]
        assert "clear" in ops and "println" in ops
        assert ops.index("clear") < ops.index("println")

    def test_tracker_finish_with_plain_callable_still_emits(self):
        from repro.obs.progress import ProgressTracker

        lines = []
        tracker = ProgressTracker(total=1, what="runs", emit=lines.append,
                                  interval=0.0)
        tracker.note(1, 0.01)
        tracker.finish()
        assert lines and lines[-1].startswith("progress: 1/1")
