"""Deterministic fault injection: seeded bit flips and stuck-at faults.

A :class:`FaultPlan` is a seeded, fully reproducible list of
:class:`FaultEvent` bit flips against architectural state -- GPRs, Qat
AoB registers, memory words, the PC, or pipeline latches -- each firing
at a chosen step of a run.  The same seed always produces the same plan
(plain :mod:`random`, no global state), which is what makes soft-error
campaigns byte-for-byte reproducible.

Gate-level stuck-at faults for :class:`repro.hw.netlist.Netlist`
evaluation are generated by :func:`stuck_at_plan` and applied through
``Netlist.evaluate(..., stuck_at=...)`` -- the classic single-stuck-at
model used for the paper-style hardware cost discussion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError, SimulatorError
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Injectable architectural targets.
TARGETS = ("gpr", "qreg", "mem", "pc", "latch")

_GPR_COUNT = 16
_QAT_REG_COUNT = 256
_WORD_BITS_16 = 16
_WORD_BITS_64 = 64


@dataclass(frozen=True)
class FaultEvent:
    """One bit flip: at ``step``, flip ``bit`` of ``target[index][word]``.

    ``word`` is only meaningful for ``qreg`` targets (the 64-bit word
    within the AoB row) and for ``latch`` (the pipeline stage index).
    """

    step: int
    target: str
    index: int
    word: int
    bit: int

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "target": self.target,
            "index": self.index,
            "word": self.word,
            "bit": self.bit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(step=data["step"], target=data["target"],
                   index=data["index"], word=data["word"], bit=data["bit"])


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of fault events for one run."""

    seed: int
    events: tuple[FaultEvent, ...]

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_faults: int,
        max_step: int,
        ways: int = 8,
        targets: tuple[str, ...] = ("gpr", "mem", "qreg"),
        mem_span: int = 1 << 16,
        latch_stages: int = 4,
    ) -> "FaultPlan":
        """Deterministically draw ``n_faults`` events for a ``max_step`` run.

        ``mem_span`` bounds memory-fault addresses (pass the program's
        footprint to concentrate soft errors where they matter);
        ``ways`` sizes the Qat rows so qreg flips land inside the AoB.
        """
        unknown = set(targets) - set(TARGETS)
        if unknown:
            raise ReproError(f"unknown fault targets: {sorted(unknown)}")
        if max_step <= 0:
            raise ReproError(f"max_step must be positive, got {max_step}")
        rng = random.Random(seed)
        qat_words = max(1, (1 << ways) // _WORD_BITS_64)
        qat_top_bits = (1 << ways) if ways < 6 else _WORD_BITS_64
        events = []
        for _ in range(n_faults):
            target = rng.choice(targets)
            step = rng.randrange(max_step)
            word = 0
            if target == "gpr":
                index = rng.randrange(_GPR_COUNT)
                bit = rng.randrange(_WORD_BITS_16)
            elif target == "mem":
                index = rng.randrange(mem_span)
                bit = rng.randrange(_WORD_BITS_16)
            elif target == "qreg":
                index = rng.randrange(_QAT_REG_COUNT)
                word = rng.randrange(qat_words)
                # Keep flips inside the AoB's live bits on the top word.
                bit = rng.randrange(
                    qat_top_bits if word == qat_words - 1 else _WORD_BITS_64
                )
            elif target == "pc":
                index = 0
                bit = rng.randrange(_WORD_BITS_16)
            else:  # latch
                index = rng.randrange(latch_stages)
                bit = rng.randrange(_WORD_BITS_16)
            events.append(FaultEvent(step, target, index, word, bit))
        events.sort(key=lambda e: (e.step, e.target, e.index, e.word, e.bit))
        return cls(seed=seed, events=tuple(events))

    def due(self, step: int) -> list[FaultEvent]:
        """Events scheduled exactly at ``step``."""
        return [e for e in self.events if e.step == step]

    def as_dict(self) -> dict:
        return {"seed": self.seed, "events": [e.as_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=data["seed"],
            events=tuple(FaultEvent.from_dict(e) for e in data["events"]),
        )


def apply_event(machine, event: FaultEvent, pipeline=None) -> None:
    """Flip the bit ``event`` names in ``machine`` (or a pipeline latch).

    ``pipeline`` is the owning :class:`PipelinedSimulator`, if any.  A
    ``pc`` event there flips the fetch PC as well, the register the next
    fetch reads.  ``latch`` events corrupt the PC captured in an
    in-flight stage record; on other simulators they degrade to an
    architectural PC flip.  Events also arrive from journals and
    ``--resume``, so a flip outside the 16-bit host state is refused.
    """
    if event.target in ("gpr", "mem", "pc", "latch"):
        limit = {"gpr": _GPR_COUNT, "mem": 1 << 16}.get(event.target)
        if not 0 <= event.bit < _WORD_BITS_16 or (
                limit is not None and not 0 <= event.index < limit):
            raise SimulatorError(
                f"{event.target} flip (index={event.index}, bit={event.bit}) "
                "is outside the 16-bit host state")
    if _flight.RECORDER.enabled:
        _flight.RECORDER.note_fault(
            event.target,
            f"step={event.step} index={event.index} "
            f"word={event.word} bit={event.bit}",
        )
    if _obs.active:
        _obs.current().metrics.counter(f"faults.injected.{event.target}").inc()
    if event.target == "gpr":
        machine.regs[event.index] ^= 1 << event.bit
    elif event.target == "mem":
        machine.mem[event.index] ^= 1 << event.bit
        # A direct write bypasses write_mem: a flipped program word
        # must not execute from a stale predecoded entry.
        machine.invalidate_predecode(event.index)
    elif event.target == "qreg":
        # Substrate-agnostic: the dense backend XORs the packed word, the
        # RE backend splits the containing run around a new flipped
        # chunk (chunk ints are never mutated).
        machine.flip_qreg_bit(event.index, event.word, event.bit)
    elif event.target == "pc":
        machine.pc ^= 1 << event.bit
        if pipeline is not None:
            # IF fetches from the pipeline's own PC register; EX
            # overwrites ``machine.pc`` with the PC of what it executes.
            pipeline._fetch_pc ^= 1 << event.bit
    elif event.target == "latch":
        rec = None
        if pipeline is not None:
            stages = pipeline._pipe
            rec = stages[event.index % len(stages)] or pipeline._fetch_current
        if rec is not None:
            rec.pc ^= 1 << event.bit
        else:
            machine.pc ^= 1 << event.bit
    else:
        raise ReproError(f"unknown fault target {event.target!r}")


def stuck_at_plan(netlist, seed: int, n_faults: int) -> list[tuple[int, bool]]:
    """Seeded single-stuck-at fault list for a gate netlist.

    Returns ``[(node, forced_value), ...]`` over the netlist's logic
    gates (constants and inputs are not faultable).  Apply one at a time
    via ``netlist.evaluate(inputs, stuck_at={node: value})`` and compare
    outputs against the fault-free evaluation to classify coverage.
    """
    nodes = netlist.logic_nodes()
    if not nodes:
        raise ReproError("netlist has no logic gates to fault")
    rng = random.Random(seed)
    return [(rng.choice(nodes), bool(rng.getrandbits(1))) for _ in range(n_faults)]
