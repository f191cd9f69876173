"""Tangled/Qat instruction semantics, shared by every scalar simulator.

:data:`FAST_HANDLERS` holds one handler per mnemonic and is the only
statement of the ISA semantics, for every engine.  Two loops run it: the
observed step :func:`execute` (the pipeline, single-stepping, and any
run with an observer attached) and the stripped loops --
:func:`repro.cpu.fastpath.run_functional`, which also runs every lane of
a ``--batch`` campaign, and the pipeline's scoreboard-timed loop.

Semantics follow Tables 1 and 3 exactly where the paper specifies them;
where it leaves detail to the implementer the choices are documented
inline (and in DESIGN.md):

- ``shift $d,$s``: the paper says "shift left/right" with functionality
  ``$d = $d << $s``; here ``$s`` is taken as signed -- positive shifts
  left, negative shifts right (logical).  Magnitudes >= 16 yield 0.
- ``slt`` compares signed 16-bit values.
- Branch truth is "register non-zero"; offsets are relative to the
  *following* instruction.
- ``mul`` keeps the low 16 bits of the product.
- ``meas``/``next``/``pop`` index channels modulo the AoB length.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.bf16 import (
    bf16_add,
    bf16_from_int,
    bf16_mul,
    bf16_neg,
    bf16_recip,
    bf16_to_int,
)
from repro.errors import SimulatorError
from repro.faults.traps import TrapCause
from repro.isa.instructions import INSTRUCTIONS, Instr
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Mnemonic of the synthetic :class:`Effects` a simulator returns when an
#: instruction trapped under the halt/vector policy instead of executing.
TRAP_MNEMONIC = "trap"

#: bf16 exponent field: all-ones means NaN or infinity (overflow).
_BF16_EXP_MASK = 0x7F80


@dataclass
class Effects:
    """What one executed instruction did (consumed by timing models)."""

    mnemonic: str
    next_pc: int
    taken_branch: bool = False
    reads_gpr: frozenset[int] = frozenset()
    writes_gpr: frozenset[int] = frozenset()
    reads_qreg: frozenset[int] = frozenset()
    writes_qreg: frozenset[int] = frozenset()
    is_load: bool = False
    is_store: bool = False


@dataclass(frozen=True)
class StaticEffects:
    """Register use derivable without executing (for hazard detection)."""

    reads_gpr: frozenset[int]
    writes_gpr: frozenset[int]
    reads_qreg: frozenset[int]
    writes_qreg: frozenset[int]
    is_branch: bool
    is_jump: bool
    is_load: bool
    is_store: bool


#: ``(mnemonic, ops) -> StaticEffects``; like the predecode intern
#: table, a pure function of the instruction, so shared process-wide.
_STATIC: dict = {}


def static_effects(instr: Instr) -> StaticEffects:
    """Registers read/written by ``instr``, from the spec alone (cached)."""
    key = (instr.mnemonic, instr.ops)
    stat = _STATIC.get(key)
    if stat is None:
        stat = _STATIC[key] = _static_effects(instr)
    return stat


def _static_effects(instr: Instr) -> StaticEffects:
    m = instr.mnemonic
    ops = instr.ops
    rg: set[int] = set()
    wg: set[int] = set()
    rq: set[int] = set()
    wq: set[int] = set()
    is_branch = m in ("brf", "brt")
    is_jump = m == "jumpr"
    is_load = m == "load"
    is_store = m == "store"
    if m in ("add", "addf", "and", "mul", "mulf", "or", "shift", "slt", "xor"):
        rg = {ops[0], ops[1]}
        wg = {ops[0]}
    elif m == "copy":
        rg = {ops[1]}
        wg = {ops[0]}
    elif m == "load":
        rg = {ops[1]}
        wg = {ops[0]}
    elif m == "store":
        rg = {ops[0], ops[1]}
    elif m in ("float", "int", "neg", "negf", "not", "recip"):
        rg = {ops[0]}
        wg = {ops[0]}
    elif m == "lex":
        wg = {ops[0]}
    elif m == "lhi":
        rg = {ops[0]}  # lhi preserves the low byte: read-modify-write
        wg = {ops[0]}
    elif m in ("brf", "brt"):
        rg = {ops[0]}
    elif m == "jumpr":
        rg = {ops[0]}
    elif m == "sys":
        pass
    elif m in ("qand", "qor", "qxor"):
        rq = {ops[1], ops[2]}
        wq = {ops[0]}
    elif m == "qccnot":
        rq = {ops[0], ops[1], ops[2]}
        wq = {ops[0]}
    elif m == "qcnot":
        rq = {ops[0], ops[1]}
        wq = {ops[0]}
    elif m == "qcswap":
        rq = {ops[0], ops[1], ops[2]}
        wq = {ops[0], ops[1]}
    elif m == "qswap":
        rq = {ops[0], ops[1]}
        wq = {ops[0], ops[1]}
    elif m == "qnot":
        rq = {ops[0]}
        wq = {ops[0]}
    elif m in ("qzero", "qone"):
        wq = {ops[0]}
    elif m == "qhad":
        wq = {ops[0]}
    elif m in ("qmeas", "qnext", "qpop"):
        rg = {ops[0]}
        wg = {ops[0]}
        rq = {ops[1]}
    else:  # pragma: no cover
        raise SimulatorError(f"no effects model for {m!r}")
    return StaticEffects(
        frozenset(rg), frozenset(wg), frozenset(rq), frozenset(wq),
        is_branch, is_jump, is_load, is_store,
    )


def execute(machine, instr: Instr, syscalls=None) -> Effects:
    """Execute ``instr`` on ``machine`` (PC already points at it).

    The observed step: runs the instruction's :data:`FAST_HANDLERS`
    entry with the flight-recorder and telemetry hooks around it,
    advances the PC (including branches/jumps) and ``instret``, and
    returns the dynamic :class:`Effects`.
    """
    m = instr.mnemonic
    spec = INSTRUCTIONS.get(m)
    if spec is None:
        machine.trap(
            TrapCause.ILLEGAL_OPCODE,
            detail=f"no executor for {m!r}",
            instruction=m,
        )
    ops = instr.ops
    pc = machine.pc
    pc_next = (pc + spec.words) & 0xFFFF
    stat = static_effects(instr)
    taken = stat.is_jump
    if stat.is_branch:
        # Decided by the condition, not by comparing targets: a taken
        # zero-offset branch still flushes the pipeline.
        taken = (int(machine.regs[ops[0]]) != 0) == (m == "brt")

    # Flight recorder: capture the raw word(s) *before* execution so a
    # store over its own encoding still records what actually ran.  The
    # retire event is appended only once the instruction completes
    # without trapping, as in the stripped loop.
    _fr = _flight.RECORDER
    if _fr.enabled:
        _w0 = int(machine.mem[pc])
        if spec.words == 2:
            _fr_raw = (_w0, int(machine.mem[(pc + 1) & 0xFFFF]))
        else:
            _fr_raw = (_w0,)

    # Telemetry: time Qat coprocessor ops, count syscalls.  One branch
    # per instruction when observability is off (the default).
    _t0 = 0
    if _obs.active:
        if m[0] == "q":
            _t0 = _time.perf_counter_ns()
        elif m == "sys":
            _obs.current().metrics.counter("cpu.syscalls").inc()

    next_pc = FAST_HANDLERS[m](machine, instr, ops, pc_next, syscalls)
    machine.pc = next_pc
    machine.instret += 1
    if _fr.enabled:
        _fr.note_retire(pc, _fr_raw)
    if _t0 and _obs.active:
        _obs.current().qat_executed(m, _t0)
    return Effects(m, next_pc, taken, stat.reads_gpr, stat.writes_gpr,
                   stat.reads_qreg, stat.writes_qreg, stat.is_load,
                   stat.is_store)


# ---------------------------------------------------------------------------
# Handler dispatch table
# ---------------------------------------------------------------------------
#
# One handler per mnemonic, selected once at predecode time
# (:mod:`repro.cpu.fastpath`) or looked up by :func:`execute`.  Handlers
# carry the architecture only -- register/memory/Qat semantics, trap
# causes, trap detail strings, PC arithmetic -- and no observability
# hooks: :func:`execute` wraps them in the flight-recorder and telemetry
# hooks, while the stripped loop calls them bare.
#
# Signature: ``handler(machine, instr, ops, pc_next, syscalls) -> next_pc``.
# The caller owns ``machine.pc = next_pc`` and the ``instret`` increment.

def _fast_add(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) + int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_addf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_add(int(regs[d]), int(regs[ops[1]]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"addf produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_and(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) & int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_brf(machine, instr, ops, pc_next, syscalls):
    if int(machine.regs[ops[0]]) == 0:
        return (pc_next + ops[1]) & 0xFFFF
    return pc_next


def _fast_brt(machine, instr, ops, pc_next, syscalls):
    if int(machine.regs[ops[0]]) != 0:
        return (pc_next + ops[1]) & 0xFFFF
    return pc_next


def _fast_copy(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    regs[ops[0]] = regs[ops[1]]
    return pc_next


def _fast_float(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_from_int(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_int(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_to_int(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_jumpr(machine, instr, ops, pc_next, syscalls):
    return int(machine.regs[ops[0]])


def _fast_lex(machine, instr, ops, pc_next, syscalls):
    imm = ops[1]
    machine.regs[ops[0]] = imm & 0xFF if (imm & 0x80) == 0 else (imm & 0xFF) | 0xFF00
    return pc_next


def _fast_lhi(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) & 0x00FF) | ((ops[1] & 0xFF) << 8)
    return pc_next


def _fast_load(machine, instr, ops, pc_next, syscalls):
    addr = int(machine.regs[ops[1]])
    fence = machine.trap_policy.mem_fence
    if fence is not None and addr >= fence:
        machine.trap(
            TrapCause.MEM_FAULT,
            detail=f"load from {addr:#06x} beyond fence {fence:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[ops[0]] = machine.mem[addr & 0xFFFF]
    return pc_next


def _fast_mul(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) * int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_mulf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_mul(int(regs[d]), int(regs[ops[1]]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"mulf produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_neg(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (-int(regs[d])) & 0xFFFF
    return pc_next


def _fast_negf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_neg(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_not(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (~int(regs[d])) & 0xFFFF
    return pc_next


def _fast_or(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) | int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_recip(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_recip(int(regs[d]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"recip produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_shift(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    amount = int(regs[ops[1]])
    if amount >= 0x8000:
        amount -= 0x10000
    value = int(regs[d])
    if amount >= 16 or amount <= -16:
        result = 0
    elif amount >= 0:
        result = value << amount
    else:
        result = value >> (-amount)
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_slt(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    a = int(regs[d])
    b = int(regs[ops[1]])
    if a >= 0x8000:
        a -= 0x10000
    if b >= 0x8000:
        b -= 0x10000
    regs[d] = 1 if a < b else 0
    return pc_next


def _fast_store(machine, instr, ops, pc_next, syscalls):
    addr = int(machine.regs[ops[1]])
    fence = machine.trap_policy.mem_fence
    if fence is not None and addr >= fence:
        machine.trap(
            TrapCause.MEM_FAULT,
            detail=f"store to {addr:#06x} beyond fence {fence:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.write_mem(addr, int(machine.regs[ops[0]]))
    return pc_next


def _fast_sys(machine, instr, ops, pc_next, syscalls):
    if syscalls is not None:
        syscalls.handle(machine)
    else:
        machine.halted = True
    return pc_next


def _fast_xor(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) ^ int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_qand(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("and", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qor(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("or", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qxor(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("xor", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qccnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.ccnot(ops[0], ops[1], ops[2])
    return pc_next


def _fast_qcnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.cnot(ops[0], ops[1])
    return pc_next


def _fast_qcswap(machine, instr, ops, pc_next, syscalls):
    machine.qat.cswap(ops[0], ops[1], ops[2])
    return pc_next


def _fast_qswap(machine, instr, ops, pc_next, syscalls):
    machine.qat.swap(ops[0], ops[1])
    return pc_next


def _fast_qnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.invert(ops[0])
    return pc_next


def _fast_qzero(machine, instr, ops, pc_next, syscalls):
    machine.qat.zero(ops[0])
    return pc_next


def _fast_qone(machine, instr, ops, pc_next, syscalls):
    machine.qat.one(ops[0])
    return pc_next


def _fast_qhad(machine, instr, ops, pc_next, syscalls):
    if machine.trap_policy.strict_qat and ops[1] >= machine.ways:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"had k={ops[1]} exceeds {machine.ways}-way entanglement",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.qat.had(ops[0], ops[1])
    return pc_next


def _fast_qmeas(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[d] = machine.qat.meas(ops[1], channel) & 0xFFFF
    return pc_next


def _fast_qnext(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[d] = machine.qat.next(ops[1], channel) & 0xFFFF
    return pc_next


def _fast_qpop(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    value = machine.qat.pop_after(ops[1], channel)
    if value > 0xFFFF:
        if machine.trap_policy.strict_qat:
            machine.trap(
                TrapCause.QAT_FAULT,
                detail=f"pop after channel {channel} counted {value} "
                       f"ones, exceeding the 16-bit destination",
                instruction=instr.render(),
                resume_pc=pc_next,
            )
        value = 0xFFFF
    machine.regs[d] = value
    return pc_next


#: mnemonic -> fast handler; covers every entry of :data:`INSTRUCTIONS`.
FAST_HANDLERS = {
    "add": _fast_add,
    "addf": _fast_addf,
    "and": _fast_and,
    "brf": _fast_brf,
    "brt": _fast_brt,
    "copy": _fast_copy,
    "float": _fast_float,
    "int": _fast_int,
    "jumpr": _fast_jumpr,
    "lex": _fast_lex,
    "lhi": _fast_lhi,
    "load": _fast_load,
    "mul": _fast_mul,
    "mulf": _fast_mulf,
    "neg": _fast_neg,
    "negf": _fast_negf,
    "not": _fast_not,
    "or": _fast_or,
    "recip": _fast_recip,
    "shift": _fast_shift,
    "slt": _fast_slt,
    "store": _fast_store,
    "sys": _fast_sys,
    "xor": _fast_xor,
    "qand": _fast_qand,
    "qccnot": _fast_qccnot,
    "qcnot": _fast_qcnot,
    "qcswap": _fast_qcswap,
    "qhad": _fast_qhad,
    "qmeas": _fast_qmeas,
    "qnext": _fast_qnext,
    "qnot": _fast_qnot,
    "qone": _fast_qone,
    "qor": _fast_qor,
    "qpop": _fast_qpop,
    "qswap": _fast_qswap,
    "qxor": _fast_qxor,
    "qzero": _fast_qzero,
}

assert set(FAST_HANDLERS) == set(INSTRUCTIONS), "fast dispatch table out of sync"
