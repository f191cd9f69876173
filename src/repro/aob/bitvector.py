"""The :class:`AoB` value type: an E-way entangled pbit as an array of bits.

Paper section 1.1: "an *E*-way entangled pbit value is represented as an
array of :math:`2^E` bits (AoB) ... each position within an AoB vector is
an *entanglement channel*".

An :class:`AoB` is a width plus one Python ``int`` whose bit ``e`` is
channel ``e``, so every Table-3 gate is one bitwise int operation over
all :math:`2^E` channels.  Values are immutable -- every operation
returns a new one -- which makes instances safe to share, hash and
intern (the pattern substrate relies on this).  The CPU simulators'
dense register file (:class:`repro.cpu.qat_backend.DenseQatBackend`)
holds the same ints, one per register.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import and_, or_, xor

from repro.aob.hadamard import hadamard_int
from repro.errors import EntanglementError, MeasurementError
from repro.obs import runtime as _obs
from repro.utils.bits import words_for_bits

#: Entanglement supported by the full (author) Qat hardware: 65,536-bit AoB.
QAT_WAYS = 16

#: Entanglement the student implementations were permitted to restrict to.
STUDENT_WAYS = 8

#: Widest AoB this software implementation will build densely (beyond this,
#: use :class:`repro.pattern.PatternVector`).
MAX_DENSE_WAYS = 26


def _check_ways(ways: int) -> None:
    if not 0 <= ways <= MAX_DENSE_WAYS:
        raise EntanglementError(
            f"ways must be in [0, {MAX_DENSE_WAYS}], got {ways}; use "
            "repro.pattern.PatternVector for higher entanglement"
        )


class AoB:
    """A :math:`2^{ways}`-bit Array-of-Bits value (one pbit's superposition).

    Parameters
    ----------
    ways:
        Degree of entanglement ``E``; the vector holds :math:`2^E` bits.
    value:
        The channels as an int, bit ``e`` being channel ``e``; no bit at
        or above :math:`2^E` may be set.  Defaults to all zeros.

    Telemetry counts each operation's volume in the 64-bit words a
    packed register row of this width spans (``qat.bits.<op>``).

    Examples
    --------
    The paper's Figure 1 pair of two-way entangled pbits:

    >>> lo = AoB.hadamard(2, 0)   # {0,1,0,1}
    >>> hi = AoB.hadamard(2, 1)   # {0,0,1,1}
    >>> [(lo.meas(e), hi.meas(e)) for e in range(4)]
    [(0, 0), (1, 0), (0, 1), (1, 1)]
    """

    __slots__ = ("ways", "nbits", "_value")

    def __init__(self, ways: int, value: int = 0):
        _check_ways(ways)
        self.ways = ways
        self.nbits = 1 << ways
        if value < 0 or value >> self.nbits:
            raise EntanglementError("bits set above the AoB width")
        self._value = value

    def _new(self, value: int) -> "AoB":
        """An AoB of this width holding ``value`` (already in range)."""
        out = object.__new__(AoB)
        out.ways, out.nbits, out._value = self.ways, self.nbits, value
        return out

    def _count(self, op: str) -> None:
        """Telemetry volume of one whole-value op; call only when active."""
        _obs.current().qat_kernel(op, words_for_bits(self.nbits))

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, ways: int) -> "AoB":
        """Constant pbit 0 (every channel 0) -- Table 3 ``zero @a``."""
        return cls(ways)

    @classmethod
    def ones(cls, ways: int) -> "AoB":
        """Constant pbit 1 (every channel 1) -- Table 3 ``one @a``."""
        _check_ways(ways)
        out = cls(ways, (1 << (1 << ways)) - 1)
        if _obs.active:
            out._count("one")
        return out

    @classmethod
    def constant(cls, ways: int, bit: int) -> "AoB":
        """Constant pbit ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return cls.ones(ways) if bit else cls.zeros(ways)

    @classmethod
    def hadamard(cls, ways: int, k: int) -> "AoB":
        """Standard entangled superposition ``H(k)`` -- Table 3 ``had @a,k``."""
        _check_ways(ways)
        return cls(ways, hadamard_int(ways, k))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "AoB":
        """Build from an explicit channel-ordered bit sequence.

        The length must be a power of two (it determines ``ways``).
        """
        import numpy as np

        arr = np.asarray(list(bits), dtype=np.uint8)
        n = arr.size
        if n == 0 or n & (n - 1):
            raise EntanglementError(f"bit count must be a power of two, got {n}")
        if ((arr != 0) & (arr != 1)).any():
            raise ValueError("bits must be 0 or 1")
        packed = np.packbits(arr, bitorder="little")
        return cls(n.bit_length() - 1, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_int(cls, ways: int, value: int) -> "AoB":
        """Build from an integer whose bit ``e`` is channel ``e``'s value."""
        _check_ways(ways)
        nbits = 1 << ways
        if value < 0 or value >> nbits:
            raise ValueError(f"value does not fit in {nbits} bits")
        return cls(ways, value)

    @classmethod
    def random(cls, ways: int, rng, p: float = 0.5) -> "AoB":
        """Random AoB with independent channel probability ``p`` of 1.

        ``rng`` is a :class:`numpy.random.Generator`.
        """
        import numpy as np

        _check_ways(ways)
        packed = np.packbits(rng.random(1 << ways) < p, bitorder="little")
        return cls(ways, int.from_bytes(packed.tobytes(), "little"))

    # -- raw access ---------------------------------------------------------

    @property
    def words(self):
        """Read-only packed little-endian uint64 words (channel ``c`` = bit
        ``c & 63`` of word ``c >> 6``): the checkpoint file layout."""
        import numpy as np

        nwords = words_for_bits(self.nbits)
        return np.frombuffer(self._value.to_bytes(nwords << 3, "little"),
                             dtype="<u8")

    def to_bool_array(self):
        """Expand to a dense numpy bool array of length :math:`2^{ways}`."""
        import numpy as np

        raw = self._value.to_bytes(max(1, self.nbits >> 3), "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")
        return bits[: self.nbits].astype(bool)

    def to_int(self) -> int:
        """The whole AoB as one integer (channel ``e`` = bit ``e``)."""
        return self._value

    # -- Table 3 gate operations (pure; return new values) -------------------

    def _binary(self, other: "AoB", op: str, fn) -> "AoB":
        if not isinstance(other, AoB):
            return NotImplemented
        if other.ways != self.ways:
            raise EntanglementError(
                f"mismatched entanglement: {self.ways}-way vs {other.ways}-way"
            )
        if _obs.active:
            self._count(op)
        return self._new(fn(self._value, other._value))

    def __and__(self, other: "AoB") -> "AoB":
        return self._binary(other, "and", and_)

    def __or__(self, other: "AoB") -> "AoB":
        return self._binary(other, "or", or_)

    def __xor__(self, other: "AoB") -> "AoB":
        return self._binary(other, "xor", xor)

    def __invert__(self) -> "AoB":
        if _obs.active:
            self._count("not")
        return self._new(self._value ^ ((1 << self.nbits) - 1))

    def cnot(self, ctrl: "AoB") -> "AoB":
        """Controlled NOT: new value of ``self`` with ``self ^= ctrl``."""
        return self ^ ctrl

    def ccnot(self, b: "AoB", c: "AoB") -> "AoB":
        """Toffoli: new value of ``self`` with ``self ^= AND(b, c)``."""
        return self ^ (b & c)

    def cswap(self, other: "AoB", ctrl: "AoB") -> tuple["AoB", "AoB"]:
        """Fredkin gate: returns the pair ``(self', other')`` swapped where ``ctrl``.

        The masked-XOR formulation (``diff = (a ^ b) & ctrl``) preserves
        the "billiard-ball conservancy" the paper notes: the multiset of
        bits crossing the gate is unchanged.
        """
        if other.ways != self.ways or ctrl.ways != self.ways:
            raise EntanglementError("cswap operands must share entanglement ways")
        if _obs.active:
            self._count("cswap")
        diff = (self._value ^ other._value) & ctrl._value
        return self._new(self._value ^ diff), self._new(other._value ^ diff)

    # -- measurement (section 2.7; all non-destructive) -----------------------

    def meas(self, channel: int) -> int:
        """Bit at entanglement ``channel`` -- Table 3 ``meas $d,@a``.

        Channel numbers are taken modulo the AoB length, matching a
        hardware implementation that simply ignores address bits above
        the top (a 16-bit ``$d`` exactly indexes a 16-way AoB).
        """
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        if _obs.active:
            _obs.current().qat_kernel("meas", 1)  # a one-word bit probe
        return (self._value >> (channel & (self.nbits - 1))) & 1

    def next(self, channel: int) -> int:
        """Lowest channel ``> channel`` holding 1, else 0 -- ``next $d,@a``.

        Mirrors the two-step Figure 8 design: shift off channels
        ``<= channel``, then count trailing zeros.
        """
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        if _obs.active:
            self._count("next")
        start = channel + 1
        above = self._value >> start if start < self.nbits else 0
        return start + (above & -above).bit_length() - 1 if above else 0

    def pop_after(self, channel: int) -> int:
        """Count of 1s in channels ``> channel`` (the ``pop`` extension).

        Section 2.7: the full population count of a 16-way AoB ranges
        0..65,536, which overflows a 16-bit register, so the
        specified-but-unbuilt ``pop`` instruction counts only channels
        *after* ``channel``; POP = ``pop`` after 0 plus ``meas`` of 0.
        """
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        if _obs.active:
            self._count("pop")
        start = channel + 1
        return (self._value >> start).bit_count() if start < self.nbits else 0

    def popcount(self) -> int:
        """Number of 1 channels: probability of 1 in parts per :math:`2^E`."""
        if _obs.active:
            self._count("popcount")
        return self._value.bit_count()

    def any(self) -> bool:
        """ANY reduction: non-zero probability of being 1."""
        if _obs.active:
            self._count("any")
        return self._value != 0

    def all(self) -> bool:
        """ALL reduction: zero probability of being 0."""
        if _obs.active:
            self._count("all")
        return self._value == (1 << self.nbits) - 1

    def probability(self) -> float:
        """Probability this pbit measures 1 (popcount / :math:`2^E`)."""
        return self.popcount() / self.nbits

    def ones_channels(self):
        """Sorted numpy array of every channel holding a 1 (full LCPC'20
        readout)."""
        import numpy as np

        return np.flatnonzero(self.to_bool_array())

    def iter_ones(self) -> Iterator[int]:
        """Iterate 1-channels using only ``meas``/``next``, as Tangled would.

        This is exactly the read-out loop of the paper's section 2.7: test
        channel 0 with ``meas``, then repeatedly ``next``.
        """
        if self.meas(0):
            yield 0
        chan = 0
        while True:
            chan = self.next(chan)
            if chan == 0:
                return
            yield chan

    # -- value protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AoB):
            return NotImplemented
        return self.ways == other.ways and self._value == other._value

    def __hash__(self) -> int:
        return hash((self.ways, self._value))

    def __len__(self) -> int:
        return self.nbits

    def __getitem__(self, channel: int) -> int:
        return self.meas(channel)

    def __repr__(self) -> str:
        return f"AoB(ways={self.ways}, {self.to_rle_string()})"

    def to_rle_string(self, max_runs: int = 8) -> str:
        """Run-length string in the paper's section 1.2 RE notation.

        ``{0,0,1,1}`` renders as ``0^2 1^2``; long values are abbreviated.
        """
        runs = []
        pos = 0
        while pos < self.nbits and len(runs) <= max_runs:
            rest = self._value >> pos
            bit = rest & 1
            # The run ends at the lowest channel that differs from ``bit``.
            change = ~rest if bit else rest
            length = ((change & -change).bit_length() - 1 if change
                      else self.nbits - pos)
            length = min(length, self.nbits - pos)
            runs.append((bit, length))
            pos += length
        parts = [f"{bit}^{count}" if count > 1 else str(bit)
                 for bit, count in runs[:max_runs]]
        if len(runs) > max_runs:
            parts.append("...")
        return " ".join(parts)
