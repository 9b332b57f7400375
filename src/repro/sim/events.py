"""Typed memory-system events and the synchronous observer bus.

Every side-channel notification in the hierarchy — demand lookups,
prefetch useful/useless/fill resolutions, evictions, inclusive
back-invalidations, dirty-victim writebacks, prefetch issues and
admission drops — has a typed event here.  The kernel does not need the
events to run: it writes its counters and calls the prefetcher's
feedback hooks at the site of each event.  It dispatches an event (as
its fields) only when the :class:`EventBus` has a subscriber for its
type, i.e. when an opt-in observer is attached (the
:class:`~repro.sim.observers.EventTrace`, the invariant auditor, a
test).  An unobserved run pays one truth test per event site.

The bus is deliberately synchronous and unbuffered: handlers run inline,
in subscription order, right after the kernel has written the counters
for the event and called the prefetcher, and before the publishing
timing code proceeds.  Subscribers therefore see the same stream, in the
same order, as when the counters themselves were bus subscribers.

Subscribers registered with :meth:`EventBus.subscribe` receive a fresh
event object per delivery, so they may keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..prefetchers.base import FillLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cache import CacheStats


@dataclass(slots=True)
class CacheAccess:
    """One demand lookup at one cache level (hit or miss)."""

    level: FillLevel
    line: int
    hit: bool
    is_write: bool
    cycle: float


@dataclass(slots=True)
class PrefetchFill:
    """A prefetched line was installed at a level (fill applied)."""

    level: FillLevel
    line: int
    cycle: float


@dataclass(slots=True)
class PrefetchUseful:
    """A demand touched a prefetched line (resident hit, or ``late`` when
    the demand merged with the prefetch still in flight)."""

    level: FillLevel
    line: int
    address: int
    late: bool
    cycle: float


@dataclass(slots=True)
class PrefetchUseless:
    """A prefetched line left a level unused.

    ``reason`` is ``"evicted"`` (capacity victim) or ``"flushed"``
    (still resident at end of run).  Back-invalidations of private copies
    are a separate event type (:class:`BackInvalidation`).
    """

    level: FillLevel
    line: int
    reason: str
    cycle: float


@dataclass(slots=True)
class Eviction:
    """A level chose a capacity victim while applying a fill."""

    level: FillLevel
    line: int
    prefetched: bool
    dirty: bool
    cycle: float


@dataclass(slots=True)
class BackInvalidation:
    """An inclusive LLC eviction removed a private cache's copy.

    Carries the private cache's name and its counter block so an
    observer can attribute the loss even when the invalidated cache
    belongs to *another core's* hierarchy (shared-LLC multicore runs).
    ``dirty`` marks a modified private copy — the evicting level must
    write the data back to DRAM, since the LLC copy it shadowed is gone.
    """

    cache_name: str
    line: int
    prefetched: bool
    dirty: bool
    cycle: float
    stats: "CacheStats"


@dataclass(slots=True)
class Writeback:
    """A dirty victim drained towards memory.

    ``absorbed`` is True when the next level down already held the line
    and simply turned dirty; False when the victim went to DRAM.
    """

    level: FillLevel
    line: int
    absorbed: bool
    cycle: float


@dataclass(slots=True)
class PrefetchIssued:
    """A prefetch was admitted into the memory system."""

    level: FillLevel
    line: int
    address: int
    cycle: float


@dataclass(slots=True)
class PrefetchDropped:
    """A prefetch was rejected at admission.

    ``reason`` is ``"resident"`` (line already at/above the target, or
    in flight there), ``"pq_full"`` or ``"mshr_full"``.
    """

    level: FillLevel
    line: int
    reason: str
    cycle: float


@dataclass(slots=True)
class HitRunRetired:
    """A vectorized block of ordinary L1 hits retired in one step.

    Published by the fast path (:mod:`repro.sim.fastpath`) when a run of
    ``count`` consecutive demand accesses — all L1 hits with no
    structural events — was executed as one NumPy block instead of
    ``count`` trips through the event kernel.  ``cycles`` and ``lines``
    are per-access arrays (issue cycle and cacheline of each access in
    trace order); ``cycle`` is the last access's issue cycle.

    Deliberately NOT in :data:`EVENT_TYPES`: it is a *reconciliation
    summary*, not a kernel event.  The fast path has already counted the
    ``count`` L1D hits itself; subscribers that account per-access state
    (event trace, invariant auditor) expand it into exactly the ``count``
    :class:`CacheAccess` records the slow path would have published, so
    listing it alongside ``CacheAccess`` in the generic catalogue would
    double-count the block.
    """

    level: FillLevel
    count: int
    cycles: object   # np.ndarray[float64] — per-access issue cycles
    lines: object    # np.ndarray[uint64] — per-access cachelines
    cycle: float     # issue cycle of the last access in the run


EVENT_TYPES = (
    CacheAccess,
    PrefetchFill,
    PrefetchUseful,
    PrefetchUseless,
    Eviction,
    BackInvalidation,
    Writeback,
    PrefetchIssued,
    PrefetchDropped,
)


class EventBus:
    """Minimal synchronous publish/subscribe keyed by event type.

    Publishers deliver an event as its fields, positionally, in the
    dataclass's field order — the kernel never builds an event object
    on its own account.  :meth:`subscribe_fields` registers a handler
    that takes those fields directly (the cheap form the invariant
    auditor uses); :meth:`subscribe` registers one that receives a
    fresh event object per delivery.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: dict[type, list[Callable]] = {}

    def handlers(self, event_type: type) -> list[Callable]:
        """The live list of field handlers for one event type.

        Hot publishers hold this list, test it for emptiness and call
        ``handler(*fields)`` for each entry only when it has
        subscribers; later subscribe / unsubscribe calls mutate the
        same list in place, so the reference never goes stale.
        """
        return self._subscribers.setdefault(event_type, [])

    def subscribe_fields(self, event_type: type,
                         handler: Callable) -> Callable[[], None]:
        """Register ``handler(*fields)`` for ``event_type``; returns an
        unsubscriber."""
        handlers = self.handlers(event_type)
        handlers.append(handler)

        def unsubscribe() -> None:
            if handler in handlers:
                handlers.remove(handler)

        return unsubscribe

    def subscribe(self, event_type: type, handler: Callable) -> Callable[[], None]:
        """Register ``handler(event)`` for ``event_type``; returns an
        unsubscriber."""
        def deliver(*fields) -> None:
            handler(event_type(*fields))

        return self.subscribe_fields(event_type, deliver)

    def publish(self, event: object) -> None:
        """Deliver ``event`` to every subscriber of its type, in order."""
        handlers = self._subscribers.get(type(event))
        if handlers:
            fields = [getattr(event, name) for name in event.__match_args__]
            for handler in handlers:
                handler(*fields)

    def has_listeners(self, event_type: type) -> bool:
        """True when at least one handler is subscribed to ``event_type``."""
        return bool(self._subscribers.get(event_type))
