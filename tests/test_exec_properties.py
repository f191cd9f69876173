"""Property tests: every instruction's executor vs a pure-Python model.

For each Table 1/3 instruction, hypothesis drives random architectural
state through both the real executor and an independent one-line Python
model of the table's functionality column.  :class:`TestInlinedCorners`
adds fixed corner operands for every instruction a translated block
inlines, run both translated and through its ``FAST_HANDLERS`` entry;
the Qat gates and readouts run over a preloaded register file on the
dense and the RE backend.
"""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aob import AoB
from repro.bf16 import (
    bf16_add,
    bf16_from_int,
    bf16_mul,
    bf16_neg,
    bf16_recip,
    bf16_to_int,
)
from repro.cpu import FunctionalSimulator, MachineState, REQatBackend, fastpath
from repro.cpu.exec_core import FAST_HANDLERS, TEMPLATES, execute
from repro.isa import INSTRUCTIONS, Instr, encode

from tests.conformance import every_leader_hot

WAYS = 6
VAL16 = st.integers(min_value=0, max_value=0xFFFF)
REG = st.integers(min_value=0, max_value=15)


def fresh_machine(reg_values):
    m = MachineState(ways=WAYS)
    for i, v in enumerate(reg_values):
        m.write_reg(i, v)
    return m


def sext8(v):
    v &= 0xFF
    return v | 0xFF00 if v & 0x80 else v


def signed(v):
    return v - 0x10000 if v >= 0x8000 else v


# (mnemonic, model(d_val, s_val) -> new d) for all two-register ALU ops
TWO_REG_MODELS = {
    "add": lambda d, s: (d + s) & 0xFFFF,
    "and": lambda d, s: d & s,
    "or": lambda d, s: d | s,
    "xor": lambda d, s: d ^ s,
    "copy": lambda d, s: s,
    "mul": lambda d, s: (d * s) & 0xFFFF,
    "slt": lambda d, s: 1 if signed(d) < signed(s) else 0,
    "addf": bf16_add,
    "mulf": bf16_mul,
}

ONE_REG_MODELS = {
    "neg": lambda d: (-d) & 0xFFFF,
    "not": lambda d: (~d) & 0xFFFF,
    "negf": bf16_neg,
    "recip": bf16_recip,
    "float": bf16_from_int,
    "int": bf16_to_int,
}


class TestTangledSemantics:
    @settings(max_examples=60)
    @given(st.sampled_from(sorted(TWO_REG_MODELS)), REG, REG, st.lists(VAL16, min_size=16, max_size=16))
    def test_two_register_ops(self, mnemonic, d, s, regs):
        m = fresh_machine(regs)
        dv, sv = m.read_reg(d), m.read_reg(s)
        execute(m, Instr(mnemonic, (d, s)))
        if d == s:
            expected = TWO_REG_MODELS[mnemonic](dv, dv)
        else:
            expected = TWO_REG_MODELS[mnemonic](dv, sv)
        assert m.read_reg(d) == expected
        # no other register changed
        for i in range(16):
            if i != d:
                assert m.read_reg(i) == regs[i]

    @settings(max_examples=60)
    @given(st.sampled_from(sorted(ONE_REG_MODELS)), REG, st.lists(VAL16, min_size=16, max_size=16))
    def test_one_register_ops(self, mnemonic, d, regs):
        m = fresh_machine(regs)
        dv = m.read_reg(d)
        execute(m, Instr(mnemonic, (d,)))
        assert m.read_reg(d) == ONE_REG_MODELS[mnemonic](dv)

    @settings(max_examples=60)
    @given(REG, st.integers(-128, 127), st.lists(VAL16, min_size=16, max_size=16))
    def test_lex_lhi(self, d, imm, regs):
        m = fresh_machine(regs)
        execute(m, Instr("lex", (d, imm)))
        assert m.read_reg(d) == sext8(imm)
        before = m.read_reg(d)
        execute(m, Instr("lhi", (d, (imm + 77) & 0xFF)))
        assert m.read_reg(d) == (before & 0xFF) | (((imm + 77) & 0xFF) << 8)

    @settings(max_examples=60)
    @given(REG, REG, VAL16, st.lists(VAL16, min_size=16, max_size=16))
    def test_load_store(self, d, s, value, regs):
        from hypothesis import assume

        assume(d != s)
        m = fresh_machine(regs)
        m.write_reg(d, value)
        execute(m, Instr("store", (d, s)))
        addr = m.read_reg(s)
        assert m.read_mem(addr) == value
        m.write_reg(d, 0)
        execute(m, Instr("load", (d, s)))
        assert m.read_reg(d) == value

    @given(VAL16, VAL16)
    def test_store_load_aliased_address(self, value, addr):
        """store $r,$r writes the register's value at its own address."""
        m = fresh_machine([0] * 16)
        m.write_reg(3, addr)
        execute(m, Instr("store", (3, 3)))
        assert m.read_mem(addr) == addr
        execute(m, Instr("load", (3, 3)))
        assert m.read_reg(3) == addr

    @settings(max_examples=60)
    @given(VAL16, st.integers(-20, 20))
    def test_shift_model(self, value, amount):
        m = fresh_machine([value, amount & 0xFFFF] + [0] * 14)
        execute(m, Instr("shift", (0, 1)))
        if amount >= 16 or amount <= -16:
            expected = 0
        elif amount >= 0:
            expected = (value << amount) & 0xFFFF
        else:
            expected = value >> (-amount)
        assert m.read_reg(0) == expected

    @settings(max_examples=40)
    @given(REG, st.integers(-100, 100), VAL16)
    def test_branches_model(self, c, offset, cond):
        for mnemonic in ("brt", "brf"):
            m = fresh_machine([0] * 16)
            m.write_reg(c, cond)
            m.pc = 500
            execute(m, Instr(mnemonic, (c, offset)))
            taken = (cond != 0) if mnemonic == "brt" else (cond == 0)
            expected = (501 + offset) & 0xFFFF if taken else 501
            assert m.pc == expected

    @given(VAL16)
    def test_jumpr_model(self, target):
        m = fresh_machine([target] + [0] * 15)
        execute(m, Instr("jumpr", (0,)))
        assert m.pc == target


class TestQatSemantics:
    @settings(max_examples=40)
    @given(st.data())
    def test_three_register_gates(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a, b, c = (data.draw(st.integers(0, 7)) for _ in range(3))
        m = MachineState(ways=WAYS)
        vals = {}
        for q in range(8):
            v = AoB.random(WAYS, rng)
            m.write_qreg(q, v)
            vals[q] = v
        for mnemonic, model in (
            ("qand", lambda x, y: x & y),
            ("qor", lambda x, y: x | y),
            ("qxor", lambda x, y: x ^ y),
        ):
            m2 = MachineState(ways=WAYS)
            for q, v in vals.items():
                m2.write_qreg(q, v)
            execute(m2, Instr(mnemonic, (a, b, c)))
            assert m2.read_qreg(a) == model(vals[b], vals[c])
            for q in range(8):
                if q != a:
                    assert m2.read_qreg(q) == vals[q]

    @settings(max_examples=40)
    @given(st.data())
    def test_reversible_gates(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = MachineState(ways=WAYS)
        vals = [AoB.random(WAYS, rng) for _ in range(3)]
        for q, v in enumerate(vals):
            m.write_qreg(q, v)
        execute(m, Instr("qccnot", (0, 1, 2)))
        assert m.read_qreg(0) == vals[0] ^ (vals[1] & vals[2])
        execute(m, Instr("qccnot", (0, 1, 2)))  # involution
        assert m.read_qreg(0) == vals[0]
        execute(m, Instr("qcswap", (0, 1, 2)))
        ea, eb = vals[0].cswap(vals[1], vals[2])
        assert m.read_qreg(0) == ea and m.read_qreg(1) == eb

    @settings(max_examples=40)
    @given(st.data())
    def test_measurement_instructions(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        value = AoB.random(WAYS, rng, p=0.1)
        start = data.draw(st.integers(0, (1 << WAYS) - 1))
        m = MachineState(ways=WAYS)
        m.write_qreg(5, value)
        m.write_reg(0, start)
        execute(m, Instr("qmeas", (0, 5)))
        assert m.read_reg(0) == value.meas(start)
        m.write_reg(1, start)
        execute(m, Instr("qnext", (1, 5)))
        assert m.read_reg(1) == value.next(start)
        m.write_reg(2, start)
        execute(m, Instr("qpop", (2, 5)))
        assert m.read_reg(2) == value.pop_after(start)
        # and the register is untouched (non-destructive)
        assert m.read_qreg(5) == value


# ---------------------------------------------------------------------------
# Fixed corner operands: translated blocks vs FAST_HANDLERS vs the models
# ---------------------------------------------------------------------------

CORNERS = (0, 1, 0x7FFF, 0x8000, 0xFFFF)
#: 0, +-15, +-16 and -32768 as 16-bit shift amounts.
SHIFTS = (0, 15, 0xFFF1, 16, 0xFFF0, 0x8000)
#: +-inf, NaNs, the largest and smallest subnormals of both signs, +-0, 1.0.
BF16_CORNERS = (0x7F80, 0xFF80, 0x7FC0, 0xFFC1, 0x007F, 0x0001, 0x8001,
                0x0000, 0x8000, 0x3F80)
IMMEDIATES = (0, 1, 0x7F, 0x80, 0xFF, -1, -128)
OFFSETS = (-128, -1, 0, 5, 127)
#: Where the instruction under test sits: no corner address hits it.
ORIGIN = 0x0100


def _shift_model(value, amount):
    amount = signed(amount)
    if amount >= 16 or amount <= -16:
        return 0
    return (value << amount) & 0xFFFF if amount >= 0 else value >> -amount


#: mnemonic -> model of the new ``$0`` from the old ``$0`` and operand 2.
REG0_MODELS = {
    **TWO_REG_MODELS,
    **{m: (lambda d, _, f=f: f(d)) for m, f in ONE_REG_MODELS.items()},
    "shift": _shift_model,
    "lex": lambda d, imm: sext8(imm),
    "lhi": lambda d, imm: (d & 0xFF) | ((imm & 0xFF) << 8),
    "load": lambda d, addr: addr ^ 0x5A5A,  # the word planted at ``addr``
}


def _corner_cases(mnemonic):
    """``(ops, $0, $1)`` triples for one inlined mnemonic."""
    kinds = INSTRUCTIONS[mnemonic].operands
    if mnemonic in ("addf", "mulf", "negf", "recip", "int"):
        values = BF16_CORNERS
    else:
        values = CORNERS
    if kinds in ("di", "co"):
        second = IMMEDIATES if kinds == "di" else OFFSETS
        return [((0, imm), d, 0) for d, imm in product(values, second)]
    if len(kinds) == 1:
        return [((0,), d, 0) for d in values]
    seconds = SHIFTS if mnemonic == "shift" else values
    return ([((0, 1), d, s) for d, s in product(values, seconds)]
            + [((0, 0), d, d) for d in values])


#: Qat gate -> model of the registers it writes, ``{reg: new value}``,
#: from the register file ``q`` before it and its operand registers.
QAT_MODELS = {
    "qand": lambda q, a, b, c: {a: q[b] & q[c]},
    "qor": lambda q, a, b, c: {a: q[b] | q[c]},
    "qxor": lambda q, a, b, c: {a: q[b] ^ q[c]},
    "qccnot": lambda q, a, b, c: {a: q[a] ^ (q[b] & q[c])},
    "qcnot": lambda q, a, b: {a: q[a] ^ q[b]},
    # ``b`` after ``a``: with ``a == b`` the pair is unchanged.
    "qcswap": lambda q, a, b, c: dict(zip((a, b), q[a].cswap(q[b], q[c]))),
    "qswap": lambda q, a, b: {a: q[b], b: q[a]},
    "qnot": lambda q, a: {a: ~q[a]},
    "qzero": lambda q, a: {a: AoB.zeros(q[a].ways)},
    "qone": lambda q, a: {a: AoB.ones(q[a].ways)},
    "qhad": lambda q, a, k: {a: AoB.hadamard(q[a].ways, k)},
}
#: Qat readout -> model of the new ``$d`` from the register's bits ``v``,
#: its channel count ``n`` and the channel ``ch`` in ``$d``.
READOUT_MODELS = {
    "qmeas": lambda v, n, ch: v >> ch % n & 1,
    "qnext": lambda v, n, ch: next(
        (c for c in range(ch + 1, n) if v >> c & 1), 0),
    "qpop": lambda v, n, ch: min(bin(v >> ch + 1).count("1"), 0xFFFF),
}
#: Readout channels: each end of a register, past it, and the largest.
CHANNELS = (0, 1, 63, 64, 254, 255, 256, 300, 0xFFFF)
#: Qat register operands per operand count: distinct, aliased, high.
QAT_OPERANDS = {
    3: ((3, 1, 2), (0, 0, 1), (0, 1, 0), (1, 0, 0), (5, 5, 5), (255, 128, 7)),
    2: ((3, 1), (0, 0), (255, 7)),
    1: ((0,), (255,)),
}
QAT_WAYS = 8
#: Qat substrates under test; the RE registers span four 64-bit chunks.
QAT_BACKENDS = {
    "dense": lambda: "dense",
    "re": lambda: REQatBackend(QAT_WAYS, chunk_ways=6),
}
#: A distinct pattern in every Qat register.
QREGS = tuple(
    AoB(QAT_WAYS, int.from_bytes(hashlib.sha256(bytes([q])).digest(), "little"))
    for q in range(256))
assert len(set(QREGS)) == 256


def _run_corner(instr, d, s, translated, ways=WAYS, qat_backend="dense",
                qregs=()):
    """Run ``instr`` once from ``$0 = d``, ``$1 = s`` and ``qregs``.

    A ``sys`` follows it, so the block translated at ``ORIGIN`` holds
    ``instr`` alone and runs within the one step.
    """
    sim = FunctionalSimulator(ways=ways, qat_backend=qat_backend)
    sim.load(encode(instr) + encode(Instr("sys")), origin=ORIGIN)
    machine = sim.machine
    for addr in CORNERS:
        machine.write_mem(addr, addr ^ 0x5A5A)
    machine.write_reg(0, d)
    machine.write_reg(1, s)
    for q, value in enumerate(qregs):
        machine.write_qreg(q, value)
    if translated:
        with every_leader_hot():
            fastpath.run_functional(sim, 1)
        assert fastpath.cache_for(machine).blocks[ORIGIN][1] == 1, \
            "not translated"
    else:
        sim.step()
    assert machine.instret == 1
    return machine


def _check_qat_row(mnemonic):
    """Translated block, handler and :data:`QAT_MODELS` over every Qat
    register, on each backend."""
    model = QAT_MODELS[mnemonic]
    for backend, ops in product(QAT_BACKENDS,
                                QAT_OPERANDS[len(INSTRUCTIONS[mnemonic].operands)]):
        instr = Instr(mnemonic, ops)
        want = list(QREGS)
        for reg, value in model(QREGS, *ops).items():
            want[reg] = value
        for translated in (True, False):
            machine = _run_corner(instr, 0, 0, translated, ways=QAT_WAYS,
                                  qat_backend=QAT_BACKENDS[backend](),
                                  qregs=QREGS)
            case = f"{instr.render()} on {backend}, translated={translated}"
            got = [machine.read_qreg(q) for q in range(256)]
            assert got == want, case
            assert machine.pc == ORIGIN + len(encode(instr)), case
            assert machine.regs == [0] * 16, case


def _check_readout_row(mnemonic):
    """Translated block, handler and :data:`READOUT_MODELS` at every
    channel of :data:`CHANNELS`, on each backend."""
    model = READOUT_MODELS[mnemonic]
    for backend, reg, channel in product(QAT_BACKENDS, (3, 255), CHANNELS):
        instr = Instr(mnemonic, (0, reg))
        want = model(QREGS[reg].to_int(), 1 << QAT_WAYS, channel)
        for translated in (True, False):
            machine = _run_corner(instr, channel, 0, translated,
                                  ways=QAT_WAYS,
                                  qat_backend=QAT_BACKENDS[backend](),
                                  qregs=QREGS)
            case = (f"{instr.render()} with $0={channel} on {backend}, "
                    f"translated={translated}")
            assert machine.regs == [want] + [0] * 15, case
            assert machine.pc == ORIGIN + len(encode(instr)), case


class TestInlinedCorners:
    def test_every_inlined_mnemonic_is_covered(self):
        assert set(TEMPLATES) <= (set(REG0_MODELS) | set(QAT_MODELS)
                                  | set(READOUT_MODELS)
                                  | {"brf", "brt", "jumpr", "store"})

    def test_every_handler_but_sys_is_compiled_from_templates(self):
        assert {m for m, handler in FAST_HANDLERS.items()
                if handler.__code__.co_filename
                != "<exec_core.TEMPLATES>"} == {"sys"}

    @pytest.mark.parametrize("mnemonic", sorted(TEMPLATES))
    def test_translated_block_matches_handler_and_model(self, mnemonic):
        if mnemonic in QAT_MODELS:
            _check_qat_row(mnemonic)
            return
        if mnemonic in READOUT_MODELS:
            _check_readout_row(mnemonic)
            return
        for ops, d, s in _corner_cases(mnemonic):
            instr = Instr(mnemonic, ops)
            got, want = (_run_corner(instr, d, s, translated)
                         for translated in (True, False))
            case = f"{instr.render()} with $0={d:#06x} $1={s:#06x}"
            assert got.read_reg(0) == want.read_reg(0), case
            assert got.read_reg(1) == want.read_reg(1), case
            assert (got.pc, got.instret) == (want.pc, want.instret), case
            assert bytes(got.mem) == bytes(want.mem), case
            pc_next = ORIGIN + 1
            if mnemonic in REG0_MODELS:
                # the immediate, or the value of the second register
                second = (ops[1] if INSTRUCTIONS[mnemonic].operands == "di"
                          else s if ops[-1] == 1 else d)
                assert got.read_reg(0) == REG0_MODELS[mnemonic](d, second), case
            elif mnemonic == "store":
                assert got.read_mem(s) == d, case
            elif mnemonic == "jumpr":
                assert got.pc == d, case
            else:
                taken = (d != 0) == (mnemonic == "brt")
                target = (pc_next + ops[1]) & 0xFFFF if taken else pc_next
                assert got.pc == target, case

    def test_translated_qat_gate_calls_no_handler(self, monkeypatch):
        """A block inlines each Qat gate and readout: with every Qat
        op's handler replaced by one that fails, translated runs still
        match the model."""
        def refuse(*args):
            raise AssertionError("a translated block called a handler")

        # Fresh intern and code tables, so every entry and block is built
        # against the refusing handlers.
        monkeypatch.setattr(fastpath, "_INTERN", {})
        monkeypatch.setattr(fastpath, "_CODE", {})
        for mnemonic in (*QAT_MODELS, *READOUT_MODELS):
            monkeypatch.setitem(FAST_HANDLERS, mnemonic, refuse)
        for mnemonic, model in QAT_MODELS.items():
            ops = QAT_OPERANDS[len(INSTRUCTIONS[mnemonic].operands)][0]
            machine = _run_corner(Instr(mnemonic, ops), 0, 0, True,
                                  ways=QAT_WAYS, qregs=QREGS)
            for reg, value in model(QREGS, *ops).items():
                assert machine.read_qreg(reg) == value, mnemonic
        for mnemonic, model in READOUT_MODELS.items():
            machine = _run_corner(Instr(mnemonic, (0, 3)), 64, 0, True,
                                  ways=QAT_WAYS, qregs=QREGS)
            assert machine.read_reg(0) == model(QREGS[3].to_int(),
                                                1 << QAT_WAYS, 64), mnemonic
