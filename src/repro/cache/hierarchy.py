"""Three-level inclusive cache hierarchy with per-stream accounting.

All simulated memory traffic -- application data, guest PT accesses, host
PT accesses -- flows through one shared hierarchy, so PTEs naturally
contend with data for capacity (the effect §3.3 highlights). Every access
carries a *stream tag* (``"data"``, ``"gpt"``, ``"hpt"``, ...) so the
experiments can report, per stream, how many accesses were served by each
level -- the simulator's equivalent of the paper's perf counters such as
"host page table accesses served by main memory".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from ..config import MachineConfig
from ..obs.trace import tracepoint
from ..units import CACHE_BLOCK_SHIFT
from .set_assoc import SetAssociativeCache

_tp_miss = tracepoint("cache.miss")


class AccessOutcome(enum.Enum):
    """Which level of the hierarchy served an access."""

    L1 = "L1"
    L2 = "L2"
    LLC = "LLC"
    MEMORY = "memory"

    # Members are singletons, so identity hashing is equivalent to the
    # default Enum hash for every dict keyed on outcomes -- and it is a
    # C-level slot instead of a Python call, which matters because the
    # hierarchy bumps ``served_by[outcome]`` on every simulated access.
    __hash__ = object.__hash__


@dataclass
class StreamCounters:
    """Per-stream tally of where accesses were served and cycles spent."""

    accesses: int = 0
    cycles: int = 0
    served_by: Dict[AccessOutcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in AccessOutcome}
    )

    @property
    def memory_accesses(self) -> int:
        """Accesses in this stream served by main memory."""
        return self.served_by[AccessOutcome.MEMORY]

    @property
    def memory_fraction(self) -> float:
        """Fraction of this stream's accesses served by main memory."""
        return self.memory_accesses / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """L1 + L2 + LLC with a flat DRAM behind them.

    The model is inclusive with fill-on-miss at every level and true-LRU
    within each level. Latency of an access is the hit latency of the level
    that served it (DRAM latency for full misses) -- lookup costs of the
    levels along the way are folded into those per-level figures, which is
    the standard first-order timing model.
    """

    def __init__(
        self,
        config: MachineConfig,
        shared_llc: "SetAssociativeCache" = None,
        optimized: bool = True,
    ) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        # L1/L2 are per-core private; the LLC may be shared between cores
        # (pass the same instance to every per-core hierarchy), which is
        # how co-runner cache contention reaches the measured benchmark.
        self.llc = shared_llc if shared_llc is not None else SetAssociativeCache(config.llc)
        self.streams: Dict[str, StreamCounters] = {}
        #: Which level served the most recent access; read by the
        #: cycle-attribution profiler to key walk steps by serving level.
        self.last_outcome: AccessOutcome = AccessOutcome.L1
        # Pre-resolved latencies: the hot path charges these without
        # re-reading the config dataclasses on every access.
        self._l1_latency = self.l1.config.latency_cycles
        self._l2_latency = self.l2.config.latency_cycles
        self._llc_latency = self.llc.config.latency_cycles
        self._memory_latency = config.memory_latency_cycles
        # Cached "data" StreamCounters; invalidated by reset_counters().
        self._data_counters: StreamCounters = None
        #: ``REPRO_NO_FASTPATH=1`` keeps the original layered probe-then-
        #: fill traversal as the reference implementation: instance-level
        #: rebinding, so the per-access mode check costs nothing.
        if not optimized:
            self.access_block = self._access_block_reference

    def counters(self, stream: str) -> StreamCounters:
        """Counters for ``stream`` (created on first use)."""
        counters = self.streams.get(stream)
        if counters is None:
            counters = StreamCounters()
            self.streams[stream] = counters
        return counters

    def access(self, addr: int, stream: str = "data") -> int:
        """Access byte address ``addr``; returns latency in cycles."""
        block = addr >> CACHE_BLOCK_SHIFT
        return self.access_block(block, stream)

    def access_block(self, block: int, stream: str = "data") -> int:
        """Access cache block ``block``; returns latency in cycles.

        Every level that misses is filled (inclusive hierarchy), so each
        level is visited once via
        :meth:`~repro.cache.set_assoc.SetAssociativeCache.access_fill`
        rather than probing on the way down and filling on the way back
        up -- same end state and counters, half the set lookups.
        """
        if self.l1.access_fill(block):
            outcome, latency = AccessOutcome.L1, self._l1_latency
        elif self.l2.access_fill(block):
            outcome, latency = AccessOutcome.L2, self._l2_latency
        elif self.llc.access_fill(block):
            outcome, latency = AccessOutcome.LLC, self._llc_latency
        else:
            outcome = AccessOutcome.MEMORY
            latency = self._memory_latency
            if _tp_miss.enabled:
                _tp_miss.emit(block=block, stream=stream)
        self.last_outcome = outcome
        counters = self.streams.get(stream)
        if counters is None:
            counters = self.counters(stream)
        counters.accesses += 1
        counters.cycles += latency
        counters.served_by[outcome] += 1
        return latency

    def _access_block_reference(self, block: int, stream: str = "data") -> int:
        """The original layered traversal: probe downward with
        :meth:`~repro.cache.set_assoc.SetAssociativeCache.access`, then
        fill upward with :meth:`~repro.cache.set_assoc.SetAssociativeCache.fill`.

        Kept verbatim as the ``REPRO_NO_FASTPATH=1`` reference
        implementation: it reaches exactly the same end state and counters
        as the folded path, which the speedup bench asserts byte-for-byte.
        """
        if self.l1.access(block):
            outcome, latency = AccessOutcome.L1, self.l1.latency
        elif self.l2.access(block):
            outcome, latency = AccessOutcome.L2, self.l2.latency
            self.l1.fill(block)
        elif self.llc.access(block):
            outcome, latency = AccessOutcome.LLC, self.llc.latency
            self.l2.fill(block)
            self.l1.fill(block)
        else:
            outcome = AccessOutcome.MEMORY
            latency = self.config.memory_latency_cycles
            self.llc.fill(block)
            self.l2.fill(block)
            self.l1.fill(block)
            if _tp_miss.enabled:
                _tp_miss.emit(block=block, stream=stream)
        self.last_outcome = outcome
        counters = self.counters(stream)
        counters.accesses += 1
        counters.cycles += latency
        counters.served_by[outcome] += 1
        return latency

    def access_data(self, addr: int) -> int:
        """Hot-path data access: ``access(addr, "data")`` with the
        all-levels-hit-in-L1 case inlined.

        The engine's interpreted ``_access`` calls this whenever the
        translation mirror exists -- for the batched core's residue
        replays and for profiled slices; the batched core's own full
        hits never reach it. An L1 hit is one set probe, an LRU
        refresh and three counter bumps -- byte-identical state
        transitions to the general path, minus the per-level dispatch.
        """
        block = addr >> CACHE_BLOCK_SHIFT
        l1 = self.l1
        ways = l1._sets[block % l1.num_sets]
        if block not in ways:
            return self.access_block(block, "data")
        del ways[block]
        ways[block] = None  # move to MRU position
        l1.hits += 1
        self.last_outcome = AccessOutcome.L1
        counters = self._data_counters
        if counters is None:
            counters = self._data_counters = self.counters("data")
        latency = self._l1_latency
        counters.accesses += 1
        counters.cycles += latency
        counters.served_by[AccessOutcome.L1] += 1
        return latency

    def flush(self) -> None:
        """Empty all levels (e.g. between measurement phases)."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()

    def reset_counters(self) -> None:
        """Zero per-stream counters, keeping cache contents warm."""
        self.streams.clear()
        self._data_counters = None

    def total_accesses(self) -> int:
        """Accesses across all streams."""
        return sum(c.accesses for c in self.streams.values())
