"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public entry points of each layer of the program from
here, never from ``src/``: it swaps a timing wrapper onto the module or
class attribute the caller looks up, and puts the original back after
the op.  Coarse layers (an op, a simulator run, a campaign, a ledger
write) leave one span each -- name, start, end, parent, op id -- kept
in memory and written when the run ends.  Hot layers called thousands
of times per op (``exec_core.execute``, RE gate calls, ``ChunkStore``
gate ops) are folded into per-layer call counts and times instead of
spans, so tracing stays affordable.

A layer's self time is its wall time minus the time of the wrapped
layers it called.  Simulated counts come from the program's public
stats surfaces (``PipelineStats``, ``ChunkStore.stats()``, campaign
reports), with telemetry capture left off so the simulators keep their
fast paths.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: Layers whose inclusive time is the command's core call; the rest of
#: an op's wall time is CLI overhead (parsing, assembly, ledger, report).
CORE_LAYERS = ("cpu.pipeline.run", "cpu.fastpath.run", "faults.campaign",
               "apps.factor")


class Tracer:
    """Spans, self times, call counts and simulated counts for one run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stores: list = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._patches: list[tuple] = []
        self._next_id = 0
        self.op_id = -1

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, span: bool = True) -> float:
        end = time.perf_counter()
        self._stack.pop()
        wall = end - frame[2]
        name = frame[1]
        self.self_s[name] += wall - frame[3]
        self.incl_s[name] += wall
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += wall
        if span:
            self.spans.append((self.op_id, frame[0],
                               parent[0] if parent else None,
                               name, frame[2], end))
        return wall

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             after=None) -> None:
        """Time every call of ``owner.attr`` as layer ``name``.

        ``after(args, result)`` runs once the call returns, to read the
        layer's public stats.  :meth:`unwrap` restores the original.
        """
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.leave(frame, span)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer's entry points (see README.md for the map)."""
        import repro.apps
        import repro.asm
        from repro.cpu import fastpath, pipeline, qat_backend
        from repro.cpu.batch import BatchFunctionalSimulator
        from repro.faults import campaign
        from repro.obs import ledger
        from repro.pattern.chunkstore import ChunkStore

        self.wrap(repro.asm, "assemble", "asm.assemble")
        self.wrap(pipeline.PipelinedSimulator, "run", "cpu.pipeline.run",
                  after=self._after_pipeline)
        # The pipeline calls ``execute`` through its own module global.
        self.wrap(pipeline, "execute", "cpu.exec_core.execute", span=False)
        self.wrap(fastpath, "run_functional", "cpu.fastpath.run",
                  after=self._after_fastpath)
        self.wrap(campaign, "run_campaign", "faults.campaign",
                  after=self._after_campaign)
        self.wrap(campaign, "golden_run", "faults.golden")
        self.wrap(BatchFunctionalSimulator, "run", "cpu.batch.run",
                  after=self._after_batch)
        for gate in ("binary", "ccnot", "cnot", "cswap", "swap", "invert",
                     "zero", "one", "had", "meas", "next", "pop_after"):
            self.wrap(qat_backend.REQatBackend, gate,
                      "cpu.qat_backend.re_gate", span=False)
        self.wrap(ChunkStore, "__init__", "pattern.store_init", span=False,
                  after=lambda args, result: self.stores.append(args[0]))
        self.wrap(ChunkStore, "binop", "pattern.binop", span=False)
        self.wrap(repro.apps, "factor_word_level", "apps.factor")
        for cls, method in ((ledger.Ledger, "__init__"),
                            (ledger.Ledger, "record"),
                            (ledger.ShardJournal, "__init__"),
                            (ledger.ShardJournal, "begin"),
                            (ledger.ShardJournal, "record")):
            # Every write method ends in exactly one commit.
            self.wrap(cls, method, "obs.ledger",
                      after=None if method == "__init__"
                      else self._after_commit)

    # -- public stats surfaces ---------------------------------------------

    def _after_pipeline(self, args, stats) -> None:
        self.counts["pipeline.cycles"] += stats.cycles
        self.counts["pipeline.retired"] += stats.retired
        self.counts["pipeline.stall_cycles"] += (
            stats.stall_data + stats.stall_load_use + stats.stall_structural
            + stats.fetch_extra)
        self.counts["pipeline.branch_flushes"] += stats.branch_flushes

    def _after_commit(self, args, result) -> None:
        self.counts["ledger.commits"] += 1

    def _after_fastpath(self, args, retired) -> None:
        self.counts["fastpath.retired"] += retired

    def _after_batch(self, args, steps) -> None:
        self.counts["batch.lane_steps"] += int(steps.sum())

    def _after_campaign(self, args, report) -> None:
        for outcome in ("masked", "detected", "silent"):
            self.counts[f"faults.{outcome}"] += report["summary"][outcome]

    def collect_stores(self) -> None:
        """Fold the op's ChunkStores' stats into the counts."""
        for store in self.stores:
            stats = store.stats()
            self.counts["pattern.stores"] += 1
            self.counts["pattern.symbols"] += stats["symbols"]
            self.counts["pattern.gate_hits"] += stats["gate_hits"]
            self.counts["pattern.gate_misses"] += stats["gate_misses"]
        self.stores.clear()

    # -- one traced op -----------------------------------------------------

    def traced_op(self, op_id: int, call):
        """Run ``call()`` as traced op ``op_id``; returns (result, wall s,
        core-call s, op count snapshot)."""
        self.op_id = op_id
        before = dict(self.incl_s)
        counts_before = self.counts.copy()
        calls_before = self.calls.copy()
        self.install()
        frame = self.enter("op")
        try:
            result = call()
        finally:
            wall = self.leave(frame)
            self.unwrap()
        self.collect_stores()
        core = sum(self.incl_s[name] - before.get(name, 0.0)
                   for name in CORE_LAYERS)
        delta = self.counts - counts_before
        delta.update({f"calls.{k}": v
                      for k, v in (self.calls - calls_before).items()})
        return result, wall, core, delta


def self_time_table(tracer: Tracer) -> dict[str, dict]:
    """Per-layer self time, inclusive time and calls, for the span file."""
    return {name: {"self_s": tracer.self_s[name],
                   "inclusive_s": tracer.incl_s[name],
                   "calls": tracer.calls[name]}
            for name in sorted(tracer.self_s)}
