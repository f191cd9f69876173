"""Architectural profiler: per-PC cycle attribution with stall blame.

The timing simulators report *aggregate* counters through the telemetry
registry (``pipeline.stall.data`` and friends); this module answers the
question those aggregates cannot: **which instruction** burns the
cycles, and **who** it was waiting on.  A :class:`Profiler` attached to
a :class:`~repro.cpu.pipeline.PipelinedSimulator` or
:class:`~repro.cpu.multicycle.MultiCycleSimulator` receives exactly one
attribution per simulated cycle -- a ``(pc, reason)`` pair, optionally
with a *blame* edge naming the older instruction an interlock waited
on -- so the per-PC totals sum to the run's cycle count by
construction (the property the test suite checks on every example
program).

Attribution reasons:

``issue``
    The cycle an instruction entered EX and executed (the useful work).
``raw``
    A RAW interlock held the consumer in ID; blamed on the producer.
``load_use``
    The 5-stage load-use bubble (memory result not yet available).
``structural``
    Extra EX occupancy -- the single-Qat-write-port ``swap``/``cswap``
    penalty of the section-5 ablation, or (multicycle) extra execute
    states such as the multiplier's.
``flush``
    A bubble created by a taken branch or a delivered trap, charged to
    the branching/trapping instruction.
``fetch``
    Frontend supply: two-word Qat fetch cycles, pipeline fill after
    reset, and any other cycle the backend spent waiting for fetch.
``memory``
    Extra memory-access state cycles (multicycle model only; the
    pipelined model's memory cost shows up as ``load_use``).

On top of the per-PC ledger the profiler keeps per-opcode totals and
Qat AoB bit volume per PC (routed from the Qat register ops via
:meth:`repro.obs.telemetry.Telemetry.qat_kernel` while a telemetry
instance carries the profiler).  :func:`render_annotate` turns it all
into a ``perf annotate``-style listing; :func:`flamegraph_trace`
exports a Chrome ``trace_event`` flamegraph (reason -> PC) through the
same writer the telemetry sinks use.
"""

from __future__ import annotations

import json

from repro.asm.disasm import disassemble
from repro.errors import ReproError
from repro.obs.spans import PID_PROFILE

#: Attribution reasons in canonical (report) order.
REASONS = ("issue", "raw", "load_use", "structural", "flush", "fetch", "memory")

#: Reasons that represent lost cycles (everything but useful issue).
STALL_REASONS = tuple(r for r in REASONS if r != "issue")


class Profiler:
    """Per-PC / per-opcode cycle ledger filled by a timing simulator.

    The simulators call :meth:`attribute` exactly once per cycle; the
    Qat register ops add AoB bit volume through :meth:`note_qat_bits` while
    :attr:`current_pc` names the instruction in EX.
    """

    def __init__(self) -> None:
        #: pc -> reason -> cycles
        self.cycles_by_pc: dict[int, dict[str, int]] = {}
        #: (consumer pc, producer pc) -> interlock cycles
        self.blame: dict[tuple[int, int], int] = {}
        #: pc -> mnemonic (first time decoded)
        self.mnemonic_by_pc: dict[int, str] = {}
        #: pc -> rendered instruction text (first time seen)
        self.label_by_pc: dict[int, str] = {}
        #: pc -> times issued (loop iterations)
        self.issues_by_pc: dict[int, int] = {}
        #: pc -> AoB bits its Qat ops touched
        self.qat_bits_by_pc: dict[int, int] = {}
        #: PC of the instruction currently executing (for bit attribution)
        self.current_pc: int | None = None

    # -- simulator-facing hooks ----------------------------------------------

    def attribute(self, pc: int, reason: str, cycles: int = 1,
                  instr=None, blame_pc: int | None = None) -> None:
        """Charge ``cycles`` at ``pc`` under ``reason`` (one call per cycle)."""
        per_pc = self.cycles_by_pc.setdefault(pc, {})
        per_pc[reason] = per_pc.get(reason, 0) + cycles
        if instr is not None and pc not in self.mnemonic_by_pc:
            self.mnemonic_by_pc[pc] = instr.mnemonic
            self.label_by_pc[pc] = instr.render()
        if reason == "issue":
            self.issues_by_pc[pc] = self.issues_by_pc.get(pc, 0) + cycles
        if blame_pc is not None:
            edge = (pc, blame_pc)
            self.blame[edge] = self.blame.get(edge, 0) + cycles

    def note_qat_bits(self, bits: int) -> None:
        """AoB bit volume touched by the instruction at :attr:`current_pc`."""
        pc = self.current_pc
        if pc is None:
            return
        self.qat_bits_by_pc[pc] = self.qat_bits_by_pc.get(pc, 0) + bits

    # -- read-side views ------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Sum of every attributed cycle (== the run's cycle count)."""
        return sum(sum(r.values()) for r in self.cycles_by_pc.values())

    def pc_cycles(self, pc: int) -> int:
        """All cycles attributed at ``pc``, any reason."""
        return sum(self.cycles_by_pc.get(pc, {}).values())

    def reason_totals(self) -> dict[str, int]:
        """Cycles per reason across every PC, canonical order."""
        totals = {reason: 0 for reason in REASONS}
        for per_pc in self.cycles_by_pc.values():
            for reason, cycles in per_pc.items():
                totals[reason] = totals.get(reason, 0) + cycles
        return {r: c for r, c in totals.items() if c}

    def cycles_by_opcode(self) -> dict[str, dict[str, int]]:
        """mnemonic -> reason -> cycles, resolved from the final PC
        labels (a fetch bubble charged before its instruction decoded
        still lands under the right opcode)."""
        out: dict[str, dict[str, int]] = {}
        for pc, per_pc in self.cycles_by_pc.items():
            mnemonic = self.mnemonic_by_pc.get(pc, "?")
            per_op = out.setdefault(mnemonic, {})
            for reason, cycles in per_pc.items():
                per_op[reason] = per_op.get(reason, 0) + cycles
        return out

    def blame_for(self, pc: int) -> list[tuple[int, int]]:
        """``[(producer pc, cycles), ...]`` this PC stalled on, worst first."""
        edges = [(prod, cyc) for (cons, prod), cyc in self.blame.items()
                 if cons == pc]
        return sorted(edges, key=lambda e: (-e[1], e[0]))

    def as_dict(self) -> dict:
        """JSON-ready view (stable key order; hex-string PCs)."""
        return {
            "total_cycles": self.total_cycles,
            "reasons": self.reason_totals(),
            "pcs": {
                f"{pc:#06x}": {
                    "label": self.label_by_pc.get(pc, "?"),
                    "cycles": dict(sorted(per_pc.items())),
                    "issues": self.issues_by_pc.get(pc, 0),
                    "qat_bits": self.qat_bits_by_pc.get(pc, 0),
                    "blame": {
                        f"{prod:#06x}": cyc
                        for prod, cyc in self.blame_for(pc)
                    },
                }
                for pc, per_pc in sorted(self.cycles_by_pc.items())
            },
            "opcodes": {
                op: dict(sorted(per_op.items()))
                for op, per_op in sorted(self.cycles_by_opcode().items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Driving a profiled run
# ---------------------------------------------------------------------------

def profile_program(program, ways: int = 8, simulator: str = "pipelined",
                    config=None, max_cycles: int = 10_000_000,
                    qat_backend: str = "dense"):
    """Run ``program`` with a fresh :class:`Profiler` attached.

    Returns ``(sim, profiler)``.  Telemetry is captured for the run
    (metrics only) so Qat AoB bit volume flows into the per-PC ledger;
    any previously installed telemetry instance is restored afterwards.
    ``qat_backend`` selects the Qat substrate (the RE backend attributes
    run volume through counters rather than per-PC bit volume).
    """
    from repro import obs
    from repro.cpu import new_simulator

    if simulator not in ("pipelined", "multicycle"):
        raise ReproError(
            f"cannot profile simulator {simulator!r} (try pipelined, multicycle)"
        )
    sim = new_simulator(simulator, ways, qat_backend, config=config)
    profiler = Profiler()
    sim.profiler = profiler
    sim.load(program)
    previous = obs.current()
    telemetry = obs.enable(tracing=False)
    telemetry.profiler = profiler
    try:
        sim.run(max_cycles)
    finally:
        telemetry.profiler = None
        obs.install(previous)
    return sim, profiler


# ---------------------------------------------------------------------------
# perf-annotate-style rendering
# ---------------------------------------------------------------------------

def _breakdown(per_pc: dict[str, int]) -> str:
    """``raw 4, fetch 2`` -- non-issue reasons in canonical order."""
    parts = [f"{reason} {per_pc[reason]}"
             for reason in STALL_REASONS if per_pc.get(reason)]
    return ", ".join(parts)


def render_annotate(profiler: Profiler, words=None, title: str = "") -> str:
    """The ``tangled profile`` listing: disassembly annotated per PC.

    ``words`` is the program image (any int sequence); when omitted the
    listing covers only the PCs the profiler saw, labelled from its own
    records.  Columns: cycles, share of total, issue count, stall
    breakdown, interlock blame, Qat AoB bit volume.
    """
    total = profiler.total_cycles or 1
    lines: list[str] = []
    if title:
        lines.append(f"== tangled profile: {title} ==")
    reasons = profiler.reason_totals()
    summary = ", ".join(f"{r} {c} ({c / total:.1%})" for r, c in reasons.items())
    lines.append(f"total cycles {profiler.total_cycles}: {summary}")
    lines.append("")
    lines.append(f"{'cycles':>7} {'%':>6} {'issues':>6}  "
                 f"{'pc':<7} {'instruction':<24} stalls / blame / qat bits")
    if words is not None:
        listing = disassemble(words)
    else:
        listing = [(pc, profiler.label_by_pc.get(pc, "?"))
                   for pc in sorted(profiler.cycles_by_pc)]
    covered = set()
    for addr, text in listing:
        covered.add(addr)
        per_pc = profiler.cycles_by_pc.get(addr, {})
        cycles = sum(per_pc.values())
        if not cycles and words is not None and text.startswith(".word"):
            continue  # data words with no activity: keep the listing tight
        lines.append(_annotate_line(profiler, addr, text, per_pc, cycles, total))
    # PCs executed outside the static listing (wrong path, handlers).
    for addr in sorted(set(profiler.cycles_by_pc) - covered):
        per_pc = profiler.cycles_by_pc[addr]
        cycles = sum(per_pc.values())
        text = profiler.label_by_pc.get(addr, "?")
        lines.append(_annotate_line(profiler, addr, text, per_pc, cycles, total))
    lines.append("")
    lines.append(render_opcode_table(profiler))
    return "\n".join(lines)


def _annotate_line(profiler: Profiler, addr: int, text: str,
                   per_pc: dict[str, int], cycles: int, total: int) -> str:
    text = text.replace("\t", " ")
    notes = []
    breakdown = _breakdown(per_pc)
    if breakdown:
        notes.append(breakdown)
    blame = profiler.blame_for(addr)
    if blame:
        notes.append("<- " + ", ".join(
            f"{prod:#06x} ({cyc})" for prod, cyc in blame[:3]))
    bits = profiler.qat_bits_by_pc.get(addr)
    if bits:
        notes.append(f"{bits} aob bits")
    pct = f"{cycles / total:6.1%}" if cycles else f"{'':>6}"
    cyc = f"{cycles:7d}" if cycles else f"{'':>7}"
    issues = profiler.issues_by_pc.get(addr, 0)
    iss = f"{issues:6d}" if issues else f"{'':>6}"
    note = ("  " + " | ".join(notes)) if notes else ""
    return f"{cyc} {pct} {iss}  {addr:04x}:  {text:<24}{note}"


def render_opcode_table(profiler: Profiler) -> str:
    """Per-opcode cycle histogram, heaviest first."""
    total = profiler.total_cycles or 1
    rows = sorted(
        profiler.cycles_by_opcode().items(),
        key=lambda kv: (-sum(kv[1].values()), kv[0]),
    )
    lines = ["opcode histogram:",
             f"  {'opcode':<10} {'cycles':>7} {'%':>6}  breakdown"]
    for mnemonic, per_op in rows:
        cycles = sum(per_op.values())
        parts = ", ".join(f"{r} {per_op[r]}" for r in REASONS if per_op.get(r))
        lines.append(
            f"  {mnemonic:<10} {cycles:>7} {cycles / total:6.1%}  {parts}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome-trace flamegraph export
# ---------------------------------------------------------------------------

def flamegraph_trace(profiler: Profiler) -> dict:
    """The profile as a Chrome ``trace_event`` flamegraph object.

    Three nested levels on one synthetic timeline (1 attributed cycle =
    1 us): the whole run, one span per reason, and one span per PC
    inside its reason, ordered heaviest-first so the widest frames read
    left to right in Perfetto.  Written with the same shared writer as
    every other trace (:func:`repro.obs.sinks.write_trace`).
    """
    events: list[dict] = []
    total = profiler.total_cycles
    events.append({
        "name": "profile", "cat": "profile", "ph": "X",
        "ts": 0, "dur": max(total, 1), "pid": PID_PROFILE, "tid": 1,
        "args": {"total_cycles": total},
    })
    cursor = 0
    by_reason: dict[str, list[tuple[int, int]]] = {}
    for pc, per_pc in profiler.cycles_by_pc.items():
        for reason, cycles in per_pc.items():
            by_reason.setdefault(reason, []).append((pc, cycles))
    for reason in REASONS:
        pcs = by_reason.get(reason)
        if not pcs:
            continue
        reason_total = sum(c for _, c in pcs)
        events.append({
            "name": reason, "cat": "reason", "ph": "X",
            "ts": cursor, "dur": reason_total, "pid": PID_PROFILE, "tid": 1,
            "args": {"cycles": reason_total},
        })
        inner = cursor
        for pc, cycles in sorted(pcs, key=lambda e: (-e[1], e[0])):
            events.append({
                "name": f"{pc:#06x} {profiler.label_by_pc.get(pc, '?')}",
                "cat": "pc", "ph": "X",
                "ts": inner, "dur": cycles, "pid": PID_PROFILE, "tid": 1,
                "args": {
                    "cycles": cycles,
                    "qat_bits": profiler.qat_bits_by_pc.get(pc, 0),
                },
            })
            inner += cycles
        cursor += reason_total
    events.append({
        "name": "process_name", "ph": "M", "pid": PID_PROFILE, "tid": 0,
        "args": {"name": "profile flamegraph (1 cycle = 1 us)"},
    })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "profile": profiler.as_dict(),
            "truncated": False,
            "events_dropped": 0,
        },
    }


def write_flamegraph(path: str, profiler: Profiler) -> None:
    """Serialize :func:`flamegraph_trace` through the shared trace writer."""
    from repro.obs.sinks import write_trace

    write_trace(path, flamegraph_trace(profiler))
