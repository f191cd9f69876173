"""Tracing context: compile word-level pint programs to Qat assembly.

.. note::
   Despite the module name, this is a **compiler**, not an execution
   tracer: "trace" here means *recording the gate-level computation* of a
   pint program so it can be emitted as Qat assembly.  Runtime
   observability (spans, counters, Chrome traces) lives in
   :mod:`repro.obs`; the executed instruction stream is the flight
   recorder's (:mod:`repro.obs.flight`).  To avoid import-site
   confusion this module is also re-exported as ``repro.pbp.compile_trace``.

A :class:`TraceContext` looks like a :class:`~repro.pbp.PbpContext` but
evaluates nothing: its "pbit values" are node ids in a
:class:`~repro.gates.ir.GateCircuit`, so running an ordinary pint program
against it *records* the gate-level computation.  :meth:`compile` then
optimizes and emits the recording as Tangled/Qat assembly -- the exact
path by which the paper's Figure 10 listing came out of the word-level
Figure 9 program ("the software was slightly modified to output the
gate-level operations rather than to perform them").

Example::

    ctx = TraceContext(ways=8)
    b = ctx.pint_h(4, 0x0F)
    c = ctx.pint_h(4, 0xF0)
    e = (b * c).eq(ctx.pint_mk(8, 15))
    emission = ctx.compile({"e": e})
    print(emission.text())          # had/and/xor/... Qat assembly

Measurement methods are unavailable while tracing (there is no data);
they raise :class:`~repro.errors.MeasurementError` telling you to run the
compiled program instead.
"""

from __future__ import annotations

from repro.errors import EntanglementError, MeasurementError
from repro.gates import EmitOptions, GateCircuit, emit_qat, optimize
from repro.gates.emit import QatEmission
from repro.pbp.context import PbpContext
from repro.pbp.pint import Pint

__all__ = ["TraceContext"]


class _TraceAlgebra:
    """Bit algebra over circuit node ids (records instead of computing)."""

    def __init__(self, circuit: GateCircuit):
        self.circuit = circuit
        self._const_cache: dict[int, int] = {}
        self._had_cache: dict[int, int] = {}

    def const(self, bit: int) -> int:
        node = self._const_cache.get(bit)
        if node is None:
            node = self.circuit.const(bit)
            self._const_cache[bit] = node
        return node

    def had(self, k: int) -> int:
        node = self._had_cache.get(k)
        if node is None:
            node = self.circuit.had(k)
            self._had_cache[k] = node
        return node

    def band(self, a: int, b: int) -> int:
        return self.circuit.band(a, b)

    def bor(self, a: int, b: int) -> int:
        return self.circuit.bor(a, b)

    def bxor(self, a: int, b: int) -> int:
        return self.circuit.bxor(a, b)

    def bnot(self, a: int) -> int:
        return self.circuit.bnot(a)


class TraceContext(PbpContext):
    """A PbpContext whose computations are recorded, not executed."""

    def __init__(self, ways: int):
        if not 0 <= ways <= 16:
            raise EntanglementError(
                "trace compilation targets the Qat hardware: ways must be <= 16"
            )
        # Deliberately skip PbpContext.__init__: no substrate is built.
        self.ways = ways
        self.backend = "trace"
        self.store = None
        self.circuit = GateCircuit()
        self.alg = _TraceAlgebra(self.circuit)
        self._used_channels = 0

    # -- compilation ---------------------------------------------------------

    def compile(
        self,
        outputs: dict[str, Pint],
        options: EmitOptions | None = None,
        optimized: bool = True,
    ) -> QatEmission:
        """Emit everything reachable from ``outputs`` as Qat assembly.

        Multi-pbit pints expose one output per bit, named ``name``,
        ``name.1``, ``name.2``, ...; the returned emission's
        ``output_regs`` maps each to its Qat register.
        """
        if not outputs:
            raise MeasurementError("compile needs at least one output pint")
        circuit = self.circuit
        circuit.outputs = {}
        for name, pint in outputs.items():
            if pint.ctx is not self:
                raise EntanglementError(f"output {name!r} belongs to another context")
            for i, node in enumerate(pint.bits):
                circuit.mark_output(name if i == 0 else f"{name}.{i}", node)
        target = optimize(circuit) if optimized else circuit
        return emit_qat(target, options or EmitOptions())

