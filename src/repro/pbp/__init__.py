"""Word-level parallel-bit-pattern API: pattern integers (``pint``).

This is the programming model of the paper's Figure 9 -- the layer at
which the LCPC'20 software-only prototype exposes PBP computing::

    ctx = PbpContext(ways=8)
    a = ctx.pint_mk(4, 15)        # the constant 15
    b = ctx.pint_h(4, 0x0f)       # 0..15 on channels 0-3
    c = ctx.pint_h(4, 0xf0)       # 0..15 on channels 4-7
    d = b * c                     # 8-way entangled product
    e = d.eq(a)                   # pbit: 1 where product == 15
    f = e * b                     # zero the non-factors
    f.measure()                   # {0, 1, 3, 5, 15}

The context chooses the substrate (dense :class:`~repro.aob.AoB` or
compressed :class:`~repro.pattern.PatternVector`) and hands out
entanglement-channel sets; :class:`Pint` carries little-endian pbit words
with arithmetic lowered through :mod:`repro.gates.library`.
"""

from repro.pbp.context import PbpContext
from repro.pbp.measure import measure_distribution, values_where
from repro.pbp.pint import Pint

# ``pbp.trace`` is the gate-recording *compiler* (TraceContext), not a
# runtime tracer -- re-exported as ``compile_trace`` so it cannot be
# confused with ``repro.obs`` tracing.
from repro.pbp import trace as compile_trace
from repro.pbp.trace import TraceContext

__all__ = [
    "PbpContext",
    "Pint",
    "TraceContext",
    "compile_trace",
    "measure_distribution",
    "values_where",
]
