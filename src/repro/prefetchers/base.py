"""Prefetcher interface shared by PMP and all comparison prefetchers.

All prefetchers in the paper's evaluation sit at L1D and are trained on
L1D loads ("For a fair comparison, all prefetchers are placed at L1D").
They may request fills into L1D, L2C, or LLC (:class:`FillLevel`), which
is how PMP implements its threshold-per-level policy.

The engine calls :meth:`Prefetcher.on_access` for every demand access and
collects the returned :class:`PrefetchRequest` list; it also forwards L1D
evictions (:meth:`on_evict`) because the SMS capture framework ends a
region's accumulation when its data leaves the cache.  A :class:`SystemView`
gives prefetchers the live signals the paper's designs consume: free
prefetch-queue entries (PMP's issue throttle), MSHR headroom, and the DRAM
busy hint (DSPatch's policy switch).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol


class FillLevel(enum.IntEnum):
    """Target cache level of a prefetch; order matches 'closer to the core'."""

    L1D = 1
    L2C = 2
    LLC = 3

    def downgraded(self) -> "FillLevel":
        """One level further from the core (arbitration rule 3)."""
        return _DOWNGRADED[self]


#: ``FillLevel.downgraded`` as a table: PMP's arbitration asks per
#: prediction, and building the enum member per call was measurable.
_DOWNGRADED = {FillLevel.L1D: FillLevel.L2C, FillLevel.L2C: FillLevel.LLC,
               FillLevel.LLC: FillLevel.LLC}


@dataclass(frozen=True, slots=True)
class PrefetchRequest:
    """One prefetch target: a byte address and the level to fill."""

    address: int
    level: FillLevel = FillLevel.L2C


class SystemView(Protocol):
    """Live machine signals available to a hardware prefetcher."""

    def free_pq_entries(self, level: FillLevel) -> int:
        """Free prefetch-queue slots at a level."""

    def prefetch_headroom(self, level: FillLevel) -> int:
        """Prefetches a level can accept right now (PQ and MSHR limited)."""

    def dram_utilization(self) -> float:
        """Coarse DRAM busy fraction in [0, 1]."""


class NullSystemView:
    """Stand-in view for unit tests and offline training: always idle."""

    def free_pq_entries(self, level: FillLevel) -> int:
        """Unbounded PQ room."""
        return 1 << 20

    def prefetch_headroom(self, level: FillLevel) -> int:
        """Unbounded admission headroom."""
        return 1 << 20

    def dram_utilization(self) -> float:
        """Always-idle channel."""
        return 0.0


class Prefetcher:
    """Base class; concrete prefetchers override :meth:`on_access`.

    Subclasses should be pure policy: all machine state they may consult
    arrives via the ``view`` argument, which keeps them testable offline.

    **Hit-run protocol** (the ``simulate()`` fast path,
    :mod:`repro.sim.fastpath`): a prefetcher that opts in with
    ``supports_hit_runs = True`` lets the engine batch runs of ordinary
    L1 hits.  For each access in a candidate run the engine calls
    :meth:`hit_run_consume` instead of :meth:`on_access`; the hook must
    either *consume* the access — performing **exactly** the training
    mutations ``on_access`` would have performed for an L1 hit that
    returns no requests — or *decline* by returning False **without
    mutating any state**, in which case the engine cuts the run and
    replays the access through ``on_access`` on the event-driven path.
    ``hit_run_transparent = True`` additionally asserts that ``on_access``
    is a guaranteed no-op (no mutations, no requests), letting the fast
    path skip the per-access hook entirely.  Prefetchers that leave
    ``supports_hit_runs`` False simply disable the fast path — results
    are identical either way, only the speed differs.

    The engine actually drives the protocol through
    :meth:`hit_run_consume_block`, which receives the whole candidate
    run as NumPy arrays and must behave exactly like calling
    :meth:`hit_run_consume` per access left to right, stopping at the
    first decline.  The default implementation does literally that;
    prefetchers whose training is vectorizable (PMP's accumulation-table
    bit ORs) override it so a hit run costs array arithmetic instead of
    one Python call per access.
    """

    name = "none"
    supports_hit_runs = False
    hit_run_transparent = False

    def on_access(self, pc: int, address: int, cycle: float, hit: bool,
                  view: SystemView) -> list[PrefetchRequest]:
        """Observe one L1D demand load; return prefetches to issue now."""
        return []

    def hit_run_consume(self, pc: int, address: int) -> bool:
        """Train on one L1 hit inside a fast-path run, or decline.

        Only called when ``supports_hit_runs`` is True and
        ``hit_run_transparent`` is False.  See the class docstring for
        the consume-exactly-or-decline-untouched contract.
        """
        return True

    def hit_run_consume_block(self, pcs, addrs) -> int:
        """Train on a whole candidate hit run; returns the consumed
        prefix length.

        ``pcs``/``addrs`` are equal-length NumPy integer arrays.  Must be
        observably identical to calling :meth:`hit_run_consume` per
        access in order and stopping at the first decline — which is
        exactly what this default does.
        """
        consume = self.hit_run_consume
        pcs = pcs.tolist()
        addrs = addrs.tolist()
        for k, (pc, addr) in enumerate(zip(pcs, addrs)):
            if not consume(pc, addr):
                return k
        return len(addrs)

    def on_evict(self, line_address: int) -> None:
        """An L1D line was evicted (ends SMS-style pattern accumulation)."""

    def on_prefetch_fill(self, address: int, level: FillLevel) -> None:
        """A previously issued prefetch has been filled (optional feedback)."""

    def on_prefetch_useful(self, address: int, level: FillLevel) -> None:
        """A demand hit a prefetched line (optional feedback, used by RL/PPF)."""

    def on_prefetch_useless(self, address: int, level: FillLevel) -> None:
        """A prefetched line was evicted unused (optional feedback)."""


class NoPrefetcher(Prefetcher):
    """The non-prefetching baseline every NIPC is normalised against."""

    name = "none"
    # on_access is the base no-op, so hit runs need no per-access hook at
    # all — the fast path batches them with zero prefetcher work.
    supports_hit_runs = True
    hit_run_transparent = True
