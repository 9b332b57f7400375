"""Persistent, content-addressed simulation result cache.

Every ``simulate()`` call the experiment engine makes is identified by a
content hash over everything that determines its output:

* the trace (name, seed, and the full packed access stream),
* the prefetcher (class plus its entire freshly-constructed state, which
  captures every config knob without per-prefetcher plumbing),
* the full :class:`~repro.sim.params.SystemConfig`,
* the warmup fraction and a cache-format version salt.

The key format is :func:`canonical`: a deterministic JSON view of the
object graph, hashed by :func:`fingerprint`.  It refuses what it cannot
name stably: a function, an object with no state, or a graph nested past
``_MAX_DEPTH`` raises ``TypeError`` rather than hashing a ``repr`` that
may carry a memory address (such a key would never hit across
processes).

**Fingerprint memo**: walking a prefetcher's state costs milliseconds
per key (Pythia's 4096×15 Q-table about 0.2 s), and an experiment
matrix builds the same few configurations once per trace.  So
:func:`prefetcher_fingerprint` memoises its result in the process,
keyed by a SHA-256 of the pickled state.  This is exact: equal pickle
bytes mean equal object graphs, hence the same canonical form; equal
states that pickle differently (say, dicts filled in another order) only
miss and recompute the same key.  Pickle bytes are not stable across
Python versions or hash seeds, so they key only the in-process memo,
never the cache.  A state that cannot be pickled bypasses the memo and
is fingerprinted directly.

Results are stored one JSON file per key under ``<dir>/results/``, in the
:meth:`SimResult.to_dict` form, so a warm-cache rerun of any experiment
matrix replays the exact numbers without a single new simulation.  The
hit/miss counters feed the per-experiment run manifests.

**Integrity**: every entry carries a SHA-256 checksum over its result
payload, verified on read.  An entry that fails to parse or to verify is
*quarantined* — moved to ``<dir>/quarantine/`` and counted (the run
manifest reports the count) — rather than silently treated as a miss and
deleted, so corruption is visible and the bytes stay available for
post-mortem.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from dataclasses import fields as dataclass_fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ..prefetchers.base import Prefetcher
from ..sim.stats import SimResult

#: Bump whenever SimResult semantics, simulator behaviour, or the entry
#: format changes in a way that invalidates stored numbers.  Version 2
#: added the per-entry integrity checksum (version-1 entries hash to
#: different keys, so they are never read — just dead files).
CACHE_VERSION = 2

log = logging.getLogger("repro.experiments.cache")

_MAX_DEPTH = 16

#: In-process fingerprint memo: SHA-256 of the pickled prefetcher state
#: -> its fingerprint.  Each value is a pure function of its key, so
#: sharing one memo across callers cannot change a result.  Emptied when
#: it reaches ``_MEMO_MAX`` entries.
_FINGERPRINT_MEMO: dict[bytes, str] = {}
_MEMO_MAX = 4096


def canonical(obj, depth: int = 0):
    """A deterministic, JSON-serialisable view of (nearly) any object.

    Used to fingerprint prefetcher state and system configs.  Enum check
    precedes int (FillLevel is an IntEnum); floats go through ``repr`` so
    distinct values never collide via formatting.  Raises ``TypeError``
    for an object it cannot name stably: one nested deeper than
    ``_MAX_DEPTH``, or one with no attribute state (a function, a bare
    ``object()``), whose ``repr`` would carry its address.
    """
    if depth > _MAX_DEPTH:
        raise TypeError(f"cannot fingerprint {type(obj).__qualname__}: "
                        f"nested deeper than {_MAX_DEPTH} levels")
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, Enum):
        return [type(obj).__name__, canonical(obj.value, depth + 1)]
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, bytes):
        return ["bytes", hashlib.sha256(obj).hexdigest()]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ["ndarray", str(data.dtype), list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(obj, (np.integer, np.bool_)):
        return int(obj)
    if isinstance(obj, np.floating):
        return ["f", repr(float(obj))]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: canonical(getattr(obj, f.name), depth + 1)
                 for f in dataclass_fields(obj)}]
    if isinstance(obj, dict):
        items = [[canonical(k, depth + 1), canonical(v, depth + 1)]
                 for k, v in obj.items()]
        return ["dict", sorted(items, key=_sort_key)]
    if isinstance(obj, (list, tuple)):
        return [canonical(item, depth + 1) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted((canonical(i, depth + 1) for i in obj),
                              key=_sort_key)]
    state = _instance_state(obj)
    if state is not None:
        return [type(obj).__qualname__, canonical(state, depth + 1)]
    raise TypeError(f"cannot fingerprint {type(obj).__qualname__}: "
                    "it has no attribute state to hash")


def _sort_key(item) -> str:
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def _instance_state(obj) -> dict | None:
    """Attribute dict of an arbitrary object (handles __slots__), if any."""
    state = getattr(obj, "__dict__", None)
    if state:
        return dict(state)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {name: getattr(obj, name) for name in slots
                if hasattr(obj, name)}
    return None


def fingerprint(obj) -> str:
    """SHA-256 hex digest of :func:`canonical`."""
    payload = json.dumps(canonical(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def prefetcher_fingerprint(prefetcher: Prefetcher) -> str:
    """Identity of a freshly-constructed prefetcher: class + initial state.

    Construction is deterministic for every prefetcher in the repo, so
    hashing the initial state distinguishes configurations (a
    ``PMP(PMPConfig(region_bytes=2048))`` hashes differently from the
    default) without requiring each class to declare its knobs.

    The result is memoised per process under a SHA-256 of the pickled
    ``[module, qualname, name, state]``; the value is always
    ``fingerprint()`` of those parts, so a memo hit returns the exact
    key a fresh walk would.  Sound because equal pickles mean equal
    states (no class in the repo customises its pickling to drop
    state); an equal state that pickles differently only misses.  A
    state that cannot be pickled skips the memo.
    """
    parts = [type(prefetcher).__module__, type(prefetcher).__qualname__,
             prefetcher.name, _instance_state(prefetcher) or {}]
    try:
        blob = pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return fingerprint(parts)
    memo_key = hashlib.sha256(blob).digest()
    key = _FINGERPRINT_MEMO.get(memo_key)
    if key is None:
        key = fingerprint(parts)
        if len(_FINGERPRINT_MEMO) >= _MEMO_MAX:
            _FINGERPRINT_MEMO.clear()
        _FINGERPRINT_MEMO[memo_key] = key
    return key


def result_checksum(result_dict: dict) -> str:
    """SHA-256 over the canonical JSON serialisation of a result payload."""
    payload = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CorruptCacheEntry(ValueError):
    """A cache file existed but failed parsing or checksum verification."""


class ResultCache:
    """Directory-backed store of :class:`SimResult`s keyed by content hash."""

    def __init__(self, directory: str | Path = ".repro-cache") -> None:
        self.directory = Path(directory)
        self.results_dir = self.directory / "results"
        self.quarantine_dir = self.directory / "quarantine"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries quarantined by this cache instance.
        self.corrupt = 0
        #: Structured {key, path, reason} record per quarantined entry.
        self.corrupt_events: list[dict] = []

    def _path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def _load_verified(self, path: Path) -> SimResult:
        """Parse one entry, verifying its integrity checksum."""
        with path.open() as fh:
            data = json.load(fh)
        stored = data["checksum"]
        actual = result_checksum(data["result"])
        if stored != actual:
            raise CorruptCacheEntry(
                f"checksum mismatch: stored {stored[:12]}…, "
                f"payload hashes to {actual[:12]}…")
        return SimResult.from_dict(data["result"])

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (counted, logged, kept for autopsy).

        Destinations are suffixed (``<key>.1.json``, ``<key>.2.json``…)
        when the name is taken: a key that is re-corrupted after being
        re-simulated must not overwrite the earlier evidence —
        recurring corruption of one key is exactly the post-mortem case
        the quarantine exists for.
        """
        self.corrupt += 1
        destination = self.quarantine_dir / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{path.stem}.{suffix}{path.suffix}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.replace(destination)
        except OSError:
            path.unlink(missing_ok=True)
            destination = None
        event = {"key": key, "path": str(destination or path),
                 "reason": reason}
        self.corrupt_events.append(event)
        log.warning("quarantined corrupt cache entry %s…: %s (moved to %s)",
                    key[:12], reason, destination or "nowhere; deleted")

    def get(self, key: str) -> SimResult | None:
        """The stored, integrity-checked result for a key, or None.

        Counts hits and misses; a corrupt entry is quarantined and
        counted separately (``corrupt`` / ``corrupt_events``), then
        reported as a miss so the job re-simulates.
        """
        path = self._path_for(key)
        try:
            result = self._load_verified(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self._quarantine(key, path, f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Persist one checksummed result (atomic via rename)."""
        path = self._path_for(key)
        tmp = path.with_suffix(".tmp")
        result_dict = result.to_dict()
        with tmp.open("w") as fh:
            json.dump({"version": CACHE_VERSION, "key": key,
                       "checksum": result_checksum(result_dict),
                       "result": result_dict}, fh)
        tmp.replace(path)

    def __len__(self) -> int:
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete all stored results; returns how many were removed."""
        removed = 0
        for path in self.results_dir.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
