"""Command-line interface tests (the ``tangled`` console script)."""

import pytest

from repro.cli import main


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(
        "lex $0, 21\nadd $0, $0\ncopy $1, $0\nlex $rv, 1\nsys\nlex $rv, 0\nsys\n"
    )
    return path


class TestAsmDis:
    def test_asm_to_stdout(self, asm_file, capsys):
        assert main(["asm", str(asm_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7
        assert all(len(w) == 4 for w in out)

    def test_asm_to_file_then_dis(self, asm_file, tmp_path, capsys):
        hexfile = tmp_path / "prog.hex"
        assert main(["asm", str(asm_file), "-o", str(hexfile)]) == 0
        capsys.readouterr()
        assert main(["dis", str(hexfile)]) == 0
        listing = capsys.readouterr().out
        assert "lex" in listing and "sys" in listing

    def test_asm_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("frobnicate $0\n")
        assert main(["asm", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 1


class TestRun:
    @pytest.mark.parametrize("sim", ["functional", "multicycle", "pipelined"])
    def test_run_prints_output_and_registers(self, asm_file, capsys, sim):
        assert main(["run", str(asm_file), "--sim", sim]) == 0
        out = capsys.readouterr().out
        assert "42" in out
        assert "$0=42" in out

    def test_run_pipeline_options(self, asm_file, capsys):
        assert main([
            "run", str(asm_file), "--sim", "pipelined",
            "--stages", "5", "--no-forwarding",
        ]) == 0
        assert "stalls" in capsys.readouterr().out

    def test_run_limit_guard(self, tmp_path, capsys):
        spin = tmp_path / "spin.s"
        spin.write_text("spin: br spin\n")
        assert main(["run", str(spin), "--limit", "100"]) == 1


class TestFactor:
    def test_factor_221(self, capsys):
        assert main(["factor", "221", "--bits", "5"]) == 0
        out = capsys.readouterr().out
        assert "13" in out and "17" in out

    def test_factor_default_bits(self, capsys):
        assert main(["factor", "15"]) == 0
        assert "nontrivial factors: [3, 5]" in capsys.readouterr().out

    def test_factor_pattern_backend(self, capsys):
        assert main(["factor", "35", "--bits", "4", "--pattern", "--chunk-ways", "6"]) == 0
        assert "5" in capsys.readouterr().out

    def test_factor_pattern_chunk_width_out_of_range(self, capsys):
        assert main(["factor", "15", "--pattern", "--chunk-ways", "2"]) == 1
        assert ("pattern chunk_ways must be in [6, 8] for 8-way values, "
                "got 2") in capsys.readouterr().err


class TestVerilogAndFig10:
    def test_verilog_qathad(self, capsys):
        assert main(["verilog", "qathad", "--ways", "8"]) == 0
        text = capsys.readouterr().out
        assert "module qathad" in text and "WAYS=8" in text

    def test_verilog_bundle(self, capsys):
        assert main(["verilog", "all"]) == 0
        text = capsys.readouterr().out
        for module in ("qathad", "qatnext", "qatalu"):
            assert f"module {module}" in text

    def test_fig10(self, capsys):
        assert main(["fig10", "--sim", "functional"]) == 0
        out = capsys.readouterr().out
        assert "$0 = 5" in out and "$1 = 3" in out

    def test_fig10_pipelined_stats(self, capsys):
        assert main(["fig10"]) == 0
        assert "cycles" in capsys.readouterr().out


class TestExitTaxonomy:
    """The documented exit-status contract for supervised fan-outs."""

    def test_toxic_crash_shards_exit_4(self, monkeypatch, capsys):
        from repro.cli import EXIT_TOXIC_SHARDS

        monkeypatch.setenv("TANGLED_CHAOS", "crash:1:99")
        code = main(["faults", "--runs", "4", "--seed", "7",
                     "--jobs", "2", "--retries", "1"])
        assert code == EXIT_TOXIC_SHARDS
        captured = capsys.readouterr()
        assert "quarantined (toxic; exit 4)" in captured.err
        import json

        report = json.loads(captured.out)
        assert report["summary"]["toxic"] == 1
        assert report["runs_detail"][1]["outcome"] == "toxic"

    def test_timeout_only_shards_exit_3(self, monkeypatch, capsys):
        from repro.cli import EXIT_TIMEOUT

        monkeypatch.setenv("TANGLED_CHAOS", "hang:1:99")
        code = main(["faults", "--runs", "4", "--seed", "7",
                     "--jobs", "2", "--retries", "0",
                     "--shard-timeout", "0.5"])
        assert code == EXIT_TIMEOUT
        captured = capsys.readouterr()
        assert "quarantined (timeout; exit 3)" in captured.err
        import json

        report = json.loads(captured.out)
        assert report["runs_detail"][1]["failures"] == ["timeout"]

    def test_resume_requires_the_ledger(self, capsys):
        assert main(["faults", "--runs", "4", "--resume", "abc",
                     "--no-ledger"]) == 1
        assert "--no-ledger" in capsys.readouterr().err

    def test_resume_unknown_run_id_is_an_error(self, capsys):
        assert main(["faults", "--runs", "4", "--resume",
                     "deadbeef"]) == 1
        assert "resume" in capsys.readouterr().err

    def test_toxic_run_then_resume_byte_identical(self, monkeypatch,
                                                  capsys):
        import json
        import os
        import sqlite3

        from repro.cli import EXIT_TOXIC_SHARDS

        assert main(["faults", "--runs", "4", "--seed", "7"]) == 0
        serial_out = capsys.readouterr().out

        monkeypatch.setenv("TANGLED_CHAOS", "crash:1:99")
        assert main(["faults", "--runs", "4", "--seed", "7",
                     "--jobs", "2", "--retries", "0"]) == EXIT_TOXIC_SHARDS
        toxic = capsys.readouterr()
        assert json.loads(toxic.out)["summary"]["toxic"] == 1
        assert "--resume" in toxic.err
        monkeypatch.delenv("TANGLED_CHAOS")

        conn = sqlite3.connect(os.environ["TANGLED_LEDGER"])
        run_ids = [row[0] for row in conn.execute(
            "SELECT DISTINCT run_id FROM shards"
        )]
        conn.close()
        # Two journaled runs: the serial reference and the toxic one;
        # resume the one whose journal holds a toxic shard.
        conn = sqlite3.connect(os.environ["TANGLED_LEDGER"])
        toxic_id = conn.execute(
            "SELECT run_id FROM shards WHERE status = 'toxic'"
        ).fetchone()[0]
        conn.close()
        assert toxic_id in run_ids
        # A bare --resume restores runs/seed/... from the journaled
        # fingerprint -- the original arguments need not be repeated.
        assert main(["faults", "--resume", toxic_id]) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out == serial_out

    def test_resume_refuses_the_wrong_command(self, capsys):
        from repro.obs.ledger import ShardJournal

        # An older ledger can still hold the journal of a bench run.
        ShardJournal("benchrun0001").begin(
            "bench", {"label": "local", "benches": ["fig10.re"],
                      "rounds": 5, "warmup": 1, "qat_backend": "dense"})
        assert main(["faults", "--resume", "benchrun0001"]) == 1
        err = capsys.readouterr().err
        assert "journaled a 'bench' run" in err


class TestRemovedSurface:
    @pytest.mark.parametrize("argv, message", [
        (["fig10", "--chunk-cache", "x"], "--chunk-cache"),
        (["bench", "--quick"], "invalid choice"),
    ], ids=["chunk-cache-flag", "bench-subcommand"])
    def test_rejected_by_argparse(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestAmbiguousRunRefs:
    def _seed_two(self, tmp_path):
        from repro.obs.ledger import open_ledger

        path = str(tmp_path / "amb.db")
        with open_ledger(path) as ledger:
            for run_id, ts in (("abc111", 1.0), ("abd222", 2.0)):
                ledger.record("run", "a", config={}, counters={},
                              run_id=run_id, ts=ts)
        return path

    def test_report_compare_lists_candidates(self, tmp_path, capsys):
        path = self._seed_two(tmp_path)
        assert main(["report", "--compare", "ab", "abd222",
                     "--ledger", path]) == 1
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert "abc111" in err and "abd222" in err

    def test_blackbox_lists_candidates(self, tmp_path, capsys):
        path = self._seed_two(tmp_path)
        assert main(["blackbox", "ab", "--ledger", path]) == 1
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert "abc111" in err and "abd222" in err
