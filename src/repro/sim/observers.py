"""Bus subscribers: the opt-in event trace.

The kernel counts at the site: per-level :class:`~repro.sim.cache.CacheStats`
counters, issued/dropped prefetch accounting and prefetcher feedback are
written by :mod:`repro.sim.level` and :mod:`repro.sim.hierarchy` where
each event happens, not by bus subscribers.  The bus carries events only
to opt-in observers:

* :class:`EventTrace` records a bounded event log plus per-component
  counters for run manifests, reports (:func:`repro.experiments.report`
  helpers) and heat maps (:func:`repro.analysis.heatmap.event_heatmap`).
* :class:`~repro.sim.invariants.InvariantAuditor` checks the directly
  written counters against its own event-derived shadows.

When neither is attached, no event is built or dispatched.

:class:`LevelStatsObserver`, :class:`PrefetcherBridge` and
:class:`PrefetchAccounting` were the always-on subscribers that used to
do the counting and feedback.  They have no handlers left; the names
stay importable because ``perfbench/tracing.py`` looks them up.
"""

from __future__ import annotations

from .events import EVENT_TYPES, EventBus, HitRunRetired


class LevelStatsObserver:
    """Retired: per-level counters are written at the event site."""


class PrefetcherBridge:
    """Retired: prefetcher feedback hooks are called at the event site."""


class PrefetchAccounting:
    """Retired: issued/dropped counters live on the ``Hierarchy``."""


class EventTrace:
    """Opt-in event log + per-component counters.

    Keeps a bounded log of ``(cycle, event, component, line)`` rows and a
    nested ``{event: {component: count}}`` counter table.  The counters
    are cheap enough to keep for a whole run; the log stops growing at
    ``max_events`` (``dropped_log_rows`` says how much was cut) so a
    long simulation cannot hold the whole event stream in memory.
    """

    def __init__(self, bus: EventBus | None = None,
                 max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.log: list[tuple[float, str, str, int]] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.dropped_log_rows = 0
        self._detach: list = []
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        """Subscribe to every event type on ``bus``."""
        for event_type in EVENT_TYPES:
            self._detach.append(bus.subscribe(event_type, self._record))
        # HitRunRetired is not in EVENT_TYPES (it is a reconciliation
        # summary, not a kernel event); it expands into the per-access
        # CacheAccess rows the slow path would have recorded.
        self._detach.append(bus.subscribe(HitRunRetired, self._on_hit_run))

    def detach(self) -> None:
        """Unsubscribe from everything previously attached."""
        for unsubscribe in self._detach:
            unsubscribe()
        self._detach.clear()

    def reset(self) -> None:
        """Clear the log and counters (warmup/measurement boundary)."""
        self.log.clear()
        self.counts.clear()
        self.dropped_log_rows = 0

    def _component_of(self, event) -> str:
        level = getattr(event, "level", None)
        if level is not None:
            return level.name
        return getattr(event, "cache_name", "system")

    def _record(self, event) -> None:
        kind = type(event).__name__
        component = self._component_of(event)
        per_component = self.counts.setdefault(kind, {})
        per_component[component] = per_component.get(component, 0) + 1
        if len(self.log) < self.max_events:
            self.log.append((event.cycle, kind, component,
                             getattr(event, "line", 0)))
        else:
            self.dropped_log_rows += 1

    def _on_hit_run(self, event: HitRunRetired) -> None:
        """Expand a retired hit run into its per-access CacheAccess rows.

        The snapshot contract is bit-identity with the event-driven path:
        ``count`` is added to the CacheAccess/level counter, and the log
        gains one ``(issue_cycle, "CacheAccess", level, line)`` row per
        access, honouring ``max_events`` exactly as ``_record`` does.
        """
        component = event.level.name
        per_component = self.counts.setdefault("CacheAccess", {})
        per_component[component] = per_component.get(component, 0) + event.count
        room = self.max_events - len(self.log)
        if room <= 0:
            self.dropped_log_rows += event.count
            return
        take = min(room, event.count)
        kind = "CacheAccess"
        self.log.extend(
            (cycle, kind, component, line)
            for cycle, line in zip(event.cycles[:take].tolist(),
                                   event.lines[:take].tolist()))
        self.dropped_log_rows += event.count - take

    def counter_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the ``{event: {component: count}}`` table (JSON-safe)."""
        return {kind: dict(per_component)
                for kind, per_component in sorted(self.counts.items())}

    def total(self, kind: str) -> int:
        """Total count of one event type across components."""
        return sum(self.counts.get(kind, {}).values())

    def summary_rows(self) -> list[tuple[str, str, int]]:
        """Flat ``(event, component, count)`` rows for table rendering."""
        return [(kind, component, count)
                for kind, per_component in sorted(self.counts.items())
                for component, count in sorted(per_component.items())]


def merge_counter_snapshots(totals: dict[str, dict[str, int]],
                            snapshot: dict[str, dict[str, int]] | None) -> None:
    """Accumulate one run's counter snapshot into ``totals`` in place."""
    if not snapshot:
        return
    for kind, per_component in snapshot.items():
        bucket = totals.setdefault(kind, {})
        for component, count in per_component.items():
            bucket[component] = bucket.get(component, 0) + count
