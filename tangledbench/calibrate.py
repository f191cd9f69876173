"""Machine-speed calibration for end-to-end timings on a shared host.

The host's speed drifts by tens of percent over minutes (other tenants,
shared caches), and a median over one run cannot remove drift between
runs.  :func:`loop_seconds` times a fixed workload that never touches
the program: a tiny register-machine interpreter -- method dispatch
through a dict, a 64 Ki-entry list as memory -- written to stress the
host the way the simulators do.  It allocates no new containers while
it runs, so the program's heap state cannot slow it.

:func:`slowdown` turns the loop's median time into the factor by which
the host ran slower than the reference host.  The loop is more
sensitive to the host's state than the workloads are: over 52 windows
spanning a 1.9x swing in host speed, log(op time) against log(loop
time) had slopes of 0.66-0.72 for the pipelined, RE campaign and RE
factoring ops, and scaling by the full ratio over-corrected.  Hence the
:data:`ELASTICITY` exponent.
"""

from __future__ import annotations

import random
import statistics
import time

STEPS = 60_000
#: Loop time on the reference host; only scales the reported numbers.
REFERENCE_S = 0.012
#: How strongly op times follow the loop's time (see above).
ELASTICITY = 0.75

_rng = random.Random(0)
_PROGRAM = [(_rng.choice(("add", "mul", "load", "store", "xor")),
             _rng.randrange(16), _rng.randrange(16)) for _ in range(512)]
_REGISTERS = [_rng.randrange(1 << 16) for _ in range(16)]


class _Machine:
    def __init__(self):
        self.regs = list(_REGISTERS)
        self.mem = [0] * (1 << 16)

    def add(self, d, s):
        self.regs[d] = (self.regs[d] + self.regs[s]) & 0xFFFF

    def mul(self, d, s):
        self.regs[d] = (self.regs[d] * self.regs[s]) & 0xFFFF

    def load(self, d, s):
        self.regs[d] = self.mem[self.regs[s]]

    def store(self, d, s):
        self.mem[self.regs[s]] = self.regs[d]

    def xor(self, d, s):
        self.regs[d] ^= self.regs[s]


def loop_seconds() -> float:
    """Seconds the calibration loop takes right now."""
    machine = _Machine()
    dispatch = {name: getattr(machine, name)
                for name in ("add", "mul", "load", "store", "xor")}
    start = time.perf_counter()
    for step in range(STEPS):
        name, d, s = _PROGRAM[step & 511]
        dispatch[name](d, s)
    return time.perf_counter() - start


def slowdown(loop_times: list[float]) -> float:
    """How much slower than the reference host the host ran, for op
    times, from the loop times measured alongside them."""
    return (statistics.median(loop_times) / REFERENCE_S) ** ELASTICITY
