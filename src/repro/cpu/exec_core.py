"""Tangled/Qat instruction semantics, shared by every scalar simulator.

:data:`FAST_HANDLERS` holds one handler per mnemonic and is the only
statement of the ISA semantics, for every engine.  Two loops run it: the
observed step :func:`execute` (the pipeline, single-stepping, and any
run with an observer attached) and the stripped loops --
:func:`repro.cpu.fastpath.run_functional`, which also runs every lane of
a ``--batch`` campaign, and the pipeline's scoreboard-timed loop.  The
handlers of every instruction but ``sys`` -- the Qat gates and readouts
included -- are built from :data:`TEMPLATES`, one Python expression per
mnemonic, which the stripped functional loop's translated tier also
inlines into its compiled blocks -- so that tier adds no second copy of
the semantics.  Only ``sys`` keeps a hand-written handler.  The register
use behind pipeline hazards (:func:`static_effects`) is derived from the
same rows (:data:`REGISTER_USE`).

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
- ``meas`` indexes channels modulo the AoB length; ``next`` and ``pop``
  read 0 past the last channel.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.bf16.scalar import fadd, fmul, frecip, ftoi, itof
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
    """What one executed instruction did (consumed by timing models).

    Register use is static: :func:`static_effects` holds it.
    """

    mnemonic: str
    next_pc: int
    taken_branch: bool = False
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
#: table, a pure function of the instruction, so shared process-wide,
#: and bounded like it (:data:`repro.cpu.fastpath.CODE_CACHE_LIMIT`).
_STATIC: dict = {}


def static_effects(instr: Instr) -> StaticEffects:
    """Registers ``instr`` reads and writes, per :data:`REGISTER_USE`."""
    key = (instr.mnemonic, instr.ops)
    stat = _STATIC.get(key)
    if stat is None:
        # Deferred: the fastpath module imports this one.
        from repro.cpu.fastpath import CODE_CACHE_LIMIT

        if len(_STATIC) >= CODE_CACHE_LIMIT:
            del _STATIC[next(iter(_STATIC))]
        m = instr.mnemonic
        reads, writes = REGISTER_USE[m]
        regs = dict(zip(INSTRUCTIONS[m].operands, instr.ops))
        stat = _STATIC[key] = StaticEffects(
            frozenset(regs[k] for k in reads if k.islower()),
            frozenset(regs[k] for k in writes if k.islower()),
            frozenset(regs[k] for k in reads if k.isupper()),
            frozenset(regs[k] for k in writes if k.isupper()),
            m in ("brf", "brt"), m == "jumpr", m == "load", m == "store",
        )
    return stat


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
        taken = (machine.regs[ops[0]] != 0) == (m == "brt")

    # Flight recorder: capture the raw word(s) *before* execution so a
    # store over its own encoding still records what actually ran.  The
    # retire event is appended only once the instruction completes
    # without trapping, as in the stripped loop.
    _fr = _flight.RECORDER
    if _fr.enabled:
        _w0 = machine.mem[pc]
        if spec.words == 2:
            _fr_raw = (_w0, machine.mem[(pc + 1) & 0xFFFF])
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
    return Effects(m, next_pc, taken, stat.is_store)


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

#: The semantics of every instruction but ``sys``, one row per mnemonic:
#: ``(writes, expression, trap, qat)``.  ``writes`` says where the
#: expression's value goes: ``"d"`` into register ``$d``, ``"pc"`` into
#: the PC, ``None`` nowhere (it runs for its effect).  In the expression
#: ``{d}``, ``{s}``, ``{c}`` and ``{a}`` stand for the 16-bit value of the
#: operand register of that kind, ``{A}``, ``{B}`` and ``{C}`` for Qat
#: register numbers, ``{i}``, ``{k}`` and ``{o}`` for the immediate, the
#: Hadamard index and the branch offset, and ``{n}`` for the address of
#: the following instruction.  ``trap`` names the trap the instruction
#: can take: ``"bf16"`` (a non-finite result, under ``trap_bf16``),
#: ``"fence"`` (an address at or above ``mem_fence``) or ``"qat"`` (under
#: ``strict_qat``: ``k`` of ``had`` not below ``ways``, a readout's
#: channel ``$d`` past the AoB, or a ``pop`` count past 16 bits, which
#: the row names ``count``).  Without the trap the expression is the
#: lenient semantics.  ``qat`` gives the Qat registers the row reads and
#: writes, as operand kinds ``"read>written"`` (its expression names them
#: by number, so cannot show their use).
#: :func:`_template_handler` builds each row's :data:`FAST_HANDLERS`
#: entry, and :mod:`repro.cpu.fastpath` inlines the same expressions into
#: translated blocks, which only hold rows whose trap the policy rules out.
TEMPLATES = {
    "add": ("d", "({d} + {s}) & 0xFFFF", None, ""),
    # bf16: a NaN operand (above infinity's 0x7F80) gives 0x7FC0 (int: 0).
    "addf": ("d", "0x7FC0 if ({d} & 0x7FFF) > 0x7F80 or ({s} & 0x7FFF) > "
                  "0x7F80 else fadd({d}, {s})", "bf16", ""),
    "and": ("d", "{d} & {s}", None, ""),
    "brf": ("pc", "({n} + {o}) & 0xFFFF if {c} == 0 else {n}", None, ""),
    "brt": ("pc", "({n} + {o}) & 0xFFFF if {c} != 0 else {n}", None, ""),
    "copy": ("d", "{s}", None, ""),
    "float": ("d", "itof({d})", None, ""),
    "int": ("d", "0 if ({d} & 0x7FFF) > 0x7F80 else ftoi({d})", None, ""),
    "jumpr": ("pc", "{a}", None, ""),
    "lex": ("d", "(({i} & 0xFF) ^ 0x80) - 0x80 & 0xFFFF", None, ""),
    "lhi": ("d", "{d} & 0xFF | ({i} & 0xFF) << 8", None, ""),
    "load": ("d", "machine.mem[{s}]", "fence", ""),
    "mul": ("d", "{d} * {s} & 0xFFFF", None, ""),
    "mulf": ("d", "0x7FC0 if ({d} & 0x7FFF) > 0x7F80 or ({s} & 0x7FFF) > "
                  "0x7F80 else fmul({d}, {s})", "bf16", ""),
    "neg": ("d", "-{d} & 0xFFFF", None, ""),
    "negf": ("d", "0x7FC0 if ({d} & 0x7FFF) > 0x7F80 else {d} ^ 0x8000",
             None, ""),
    "not": ("d", "~{d} & 0xFFFF", None, ""),
    "or": ("d", "{d} | {s}", None, ""),
    "recip": ("d", "0x7FC0 if ({d} & 0x7FFF) > 0x7F80 else frecip({d})",
              "bf16", ""),
    # $s is signed: 0..15 shift left, 0xFFF1..0xFFFF (-15..-1) right.
    "shift": ("d", "{d} << {s} & 0xFFFF if {s} < 16 else "
                   "{d} >> 0x10000 - {s} if {s} > 0xFFF0 else 0", None, ""),
    # Flipping the sign bit maps signed order onto unsigned order.
    "slt": ("d", "1 if {d} ^ 0x8000 < {s} ^ 0x8000 else 0", None, ""),
    "store": (None, "machine.write_mem({s}, {d})", "fence", ""),
    "xor": ("d", "{d} ^ {s}", None, ""),
    # Qat gates (Table 3): one call on the coprocessor register file.
    "qand": (None, 'machine.qat.binary("and", {A}, {B}, {C})', None, "BC>A"),
    "qccnot": (None, "machine.qat.ccnot({A}, {B}, {C})", None, "ABC>A"),
    "qcnot": (None, "machine.qat.cnot({A}, {B})", None, "AB>A"),
    "qcswap": (None, "machine.qat.cswap({A}, {B}, {C})", None, "ABC>AB"),
    "qhad": (None, "machine.qat.had({A}, {k})", "qat", ">A"),
    "qnot": (None, "machine.qat.invert({A})", None, "A>A"),
    "qone": (None, "machine.qat.one({A})", None, ">A"),
    "qor": (None, 'machine.qat.binary("or", {A}, {B}, {C})', None, "BC>A"),
    "qswap": (None, "machine.qat.swap({A}, {B})", None, "AB>AB"),
    "qxor": (None, 'machine.qat.binary("xor", {A}, {B}, {C})', None, "BC>A"),
    "qzero": (None, "machine.qat.zero({A})", None, ">A"),
    # Readouts: $d names the channel and receives the value.  Only meas
    # wraps the channel modulo the AoB length; next and pop read 0 past
    # the last channel.  A pop count above 16 bits saturates.
    "qmeas": ("d", "machine.qat.meas({A}, {d}) & 0xFFFF", "qat", "A>"),
    "qnext": ("d", "machine.qat.next({A}, {d}) & 0xFFFF", "qat", "A>"),
    "qpop": ("d", "min(count := machine.qat.pop_after({A}, {d}), 0xFFFF)",
             "qat", "A>"),
}


def _register_use(mnemonic: str, writes, expr: str, trap, qat: str) -> tuple:
    qat_reads, _, qat_writes = qat.partition(">")
    return ("".join(k for k in INSTRUCTIONS[mnemonic].operands
                    if k in "dsca" and "{%s}" % k in expr) + qat_reads,
            ("d" if writes == "d" else "") + qat_writes)


#: mnemonic -> ``(operands read, operands written)`` as operand kinds
#: (lower case a GPR, upper case a Qat register), which
#: :func:`static_effects` turns into hazard sets.  A :data:`TEMPLATES`
#: row reads the GPRs its expression names, writes ``$d`` when its value
#: goes there, and uses the Qat registers its ``qat`` column names.
REGISTER_USE = {
    "sys": ("", ""),
    **{m: _register_use(m, *row) for m, row in TEMPLATES.items()},
}

#: Names a template expression may use besides its operands and ``machine``.
TEMPLATE_GLOBALS = {f.__name__: f for f in (fadd, fmul, frecip, ftoi, itof)}

_TRAP_CALL = ('machine.trap(TrapCause.{}, detail=f"{}", '
              'instruction=instr.render(), resume_pc=pc_next)')


def _template_handler(mnemonic: str, writes, expr: str, trap, qat) -> str:
    """Source of the :data:`FAST_HANDLERS` entry of a :data:`TEMPLATES` row."""
    fields = {"n": "pc_next"}
    body = []
    for pos, kind in enumerate(INSTRUCTIONS[mnemonic].operands):
        if kind in "ioABCk":
            fields[kind] = f"ops[{pos}]"
        elif "{%s}" % kind in expr:
            fields[kind] = kind
            body.append(f"{kind} = regs[ops[{pos}]]")
    if body or writes == "d":
        body.insert(0, "regs = machine.regs")
    value = expr.format(**fields)
    if trap == "fence":
        verb = "load from" if mnemonic == "load" else "store to"
        body += ["fence = machine.trap_policy.mem_fence",
                 "if fence is not None and s >= fence:",
                 "    " + _TRAP_CALL.format("MEM_FAULT", f"{verb} {{s:#06x}} "
                                           "beyond fence {fence:#06x}")]
    elif trap == "bf16":
        body += [f"result = {value}",
                 "if machine.trap_policy.trap_bf16 and "
                 f"result & {_BF16_EXP_MASK:#x} == {_BF16_EXP_MASK:#x}:",
                 "    " + _TRAP_CALL.format(
                     "BF16_FAULT",
                     f"{mnemonic} produced non-finite bf16 {{result:#06x}}")]
        value = "result"
    elif trap == "qat":
        if "k" in fields:
            k = fields["k"]
            check, detail = (f"{k} >= machine.ways", f"had k={{{k}}} exceeds "
                             "{machine.ways}-way entanglement")
        else:
            check, detail = ("d >= machine.nbits", "channel {d} out of range "
                             "for {machine.nbits}-channel AoB")
        body += [f"if machine.trap_policy.strict_qat and {check}:",
                 "    " + _TRAP_CALL.format("QAT_FAULT", detail)]
        if "count :=" in expr:
            body += [f"result = {value}",
                     "if count > 0xFFFF and machine.trap_policy.strict_qat:",
                     "    " + _TRAP_CALL.format(
                         "QAT_FAULT", "pop after channel {d} counted {count} "
                         "ones, exceeding the 16-bit destination")]
            value = "result"
    if writes == "pc":
        body.append(f"return {value}")
    else:
        body += [f"regs[ops[0]] = {value}" if writes == "d" else value,
                 "return pc_next"]
    return (f"def _fast_{mnemonic}(machine, instr, ops, pc_next, syscalls):\n"
            + "".join(f"    {line}\n" for line in body))


def _template_handlers() -> dict:
    namespace = {**TEMPLATE_GLOBALS, "TrapCause": TrapCause}
    source = "\n".join(_template_handler(m, *row)
                       for m, row in TEMPLATES.items())
    exec(compile(source, "<exec_core.TEMPLATES>", "exec"), namespace)
    return {m: namespace[f"_fast_{m}"] for m in TEMPLATES}


def _fast_sys(machine, instr, ops, pc_next, syscalls):
    if syscalls is not None:
        syscalls.handle(machine)
    else:
        machine.halted = True
    return pc_next


#: mnemonic -> fast handler; covers every entry of :data:`INSTRUCTIONS`.
FAST_HANDLERS = {**_template_handlers(), "sys": _fast_sys}

assert set(FAST_HANDLERS) == set(INSTRUCTIONS), "fast dispatch table out of sync"
