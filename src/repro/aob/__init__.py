"""Array-of-Bits (AoB) substrate: the paper's section 1.1 representation.

An ``E``-way entangled pbit value is an array of :math:`2^E` bits; the
position of a bit within the array is its *entanglement channel*.  Qat, the
paper's coprocessor, operates on 65,536-bit AoB values (16-way
entanglement) held in 256 coprocessor registers.

Every in-memory AoB is a Python ``int`` with channel ``e`` at bit ``e``,
so a Table-3 gate is one bitwise int operation over all channels.  This
package provides:

- :class:`AoB` -- an immutable width-plus-int value type with every
  Table-3 coprocessor operation as a method (the CPU simulators' dense
  register file holds the same ints, one per register), and
- :mod:`repro.aob.hadamard` -- the ``H(k)`` standard entangled
  superposition generators of section 2.3 / Figure 7.
"""

from repro.aob.bitvector import AoB, QAT_WAYS, STUDENT_WAYS
from repro.aob.hadamard import hadamard_bit, hadamard_int

__all__ = [
    "AoB",
    "QAT_WAYS",
    "STUDENT_WAYS",
    "hadamard_bit",
    "hadamard_int",
]
