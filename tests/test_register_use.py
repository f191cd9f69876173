"""Register use of every instruction, as the pipeline's hazards see it.

:func:`repro.cpu.exec_core.static_effects` names the registers each
instruction reads and writes; the pipeline's interlocks, forwarding and
scoreboard are built on it.  :data:`EXPECTED` writes that use out by
hand from the functionality columns of paper Tables 1 and 3, one row
per mnemonic, and every instruction is checked with distinct operand
registers so that no two operands can stand in for each other.
"""

import pytest

from repro.cpu.exec_core import static_effects
from repro.isa import INSTRUCTIONS, Instr

#: A distinct register (or immediate) per operand kind.
OPERANDS = {"d": 1, "s": 2, "c": 3, "a": 4, "A": 5, "B": 6, "C": 7,
            "i": 0x12, "k": 3, "o": 4}

#: mnemonic -> (GPRs read, GPRs written, Qat registers read, Qat
#: registers written, control/memory kind), registers by operand kind.
EXPECTED = {
    # Table 1: ``$d = $d op $s``
    **{m: ("ds", "d", "", "", None)
       for m in ("add", "addf", "and", "mul", "mulf", "or", "shift", "slt",
                 "xor")},
    # Table 1: ``$d = op $d``
    **{m: ("d", "d", "", "", None)
       for m in ("float", "int", "neg", "negf", "not", "recip")},
    "copy": ("s", "d", "", "", None),      # $d = $s
    "lex": ("", "d", "", "", None),        # $d = sign-extended imm8
    "lhi": ("d", "d", "", "", None),       # $d = (imm8 << 8) | ($d & 0xFF)
    "load": ("s", "d", "", "", "load"),    # $d = memory[$s]
    "store": ("ds", "", "", "", "store"),  # memory[$s] = $d
    "brf": ("c", "", "", "", "branch"),    # if (!$c) PC += offset
    "brt": ("c", "", "", "", "branch"),    # if ($c) PC += offset
    "jumpr": ("a", "", "", "", "jump"),    # PC = $a
    "sys": ("", "", "", "", None),
    # Table 3: ``@a = @b op @c``
    **{m: ("", "", "BC", "A", None) for m in ("qand", "qor", "qxor")},
    "qccnot": ("", "", "ABC", "A", None),  # if (@b & @c) @a = !@a
    "qcnot": ("", "", "AB", "A", None),    # if (@b) @a = !@a
    "qcswap": ("", "", "ABC", "AB", None),  # if (@c) swap(@a, @b)
    "qswap": ("", "", "AB", "AB", None),   # swap(@a, @b)
    "qnot": ("", "", "A", "A", None),      # @a = !@a
    "qzero": ("", "", "", "A", None),      # @a = 0
    "qone": ("", "", "", "A", None),       # @a = 1
    "qhad": ("", "", "", "A", None),       # @a = H(k)
    # ``$d = op(@a, channel $d)``
    **{m: ("d", "d", "A", "", None) for m in ("qmeas", "qnext", "qpop")},
}


def _regs(kinds: str) -> frozenset:
    return frozenset(OPERANDS[k] for k in kinds)


def test_every_instruction_has_a_row():
    assert sorted(EXPECTED) == sorted(INSTRUCTIONS)
    assert len(EXPECTED) == 38


@pytest.mark.parametrize("mnemonic", sorted(INSTRUCTIONS))
def test_static_effects_match_tables_1_and_3(mnemonic):
    spec = INSTRUCTIONS[mnemonic]
    instr = Instr(mnemonic, tuple(OPERANDS[k] for k in spec.operands))
    reads_gpr, writes_gpr, reads_qreg, writes_qreg, kind = EXPECTED[mnemonic]
    stat = static_effects(instr)
    assert stat.reads_gpr == _regs(reads_gpr)
    assert stat.writes_gpr == _regs(writes_gpr)
    assert stat.reads_qreg == _regs(reads_qreg)
    assert stat.writes_qreg == _regs(writes_qreg)
    assert stat.is_branch == (kind == "branch")
    assert stat.is_jump == (kind == "jump")
    assert stat.is_load == (kind == "load")
    assert stat.is_store == (kind == "store")
