"""Keyed LRU cache for stage-1 BV features.

The dominant cost of every experiment sweep is stage-1 feature
extraction (Log-Gabor bank -> MIM -> FAST -> descriptors).  Extraction
is a pure function of (point cloud, extraction configuration), and the
dataset regenerates any pair deterministically from (dataset config,
index) — so a feature is fully identified by::

    (dataset fingerprint, pair index, role, extraction fingerprint)

where role distinguishes the ego from the other vehicle.  Sweeps that
revisit the same frame pairs under configurations sharing the extraction
parameters (the ablation variants that only change RANSAC or stage-2
settings, Fig. 13's detector-profile comparison, repeated CLI runs in
one process) skip re-extraction entirely.

Entries are a few megabytes each (three float images plus descriptors),
so the cache is bounded LRU; the default of 64 entries covers a
32-pair sweep's two roles with room to spare.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.core.config import BBAlignConfig
from repro.simulation.dataset import DatasetConfig

__all__ = ["FeatureCache", "extraction_fingerprint", "dataset_fingerprint",
           "feature_key", "get_default_cache", "set_default_cache"]


class FeatureCache:
    """Bounded LRU mapping of feature keys to extracted features.

    ``max_entries=0`` disables storage (every ``get`` misses), which is
    how callers opt out of caching without branching on None.

    Bounds compose: eviction trims the least-recent entries until both
    ``max_entries`` and — when ``max_bytes > 0`` — the byte budget hold.
    Sizes are caller-reported via ``put(..., nbytes=...)`` (the cache
    cannot deep-size arbitrary feature objects); callers that never pass
    sizes get the historical entry-count-only behavior.
    """

    def __init__(self, max_entries: int = 64, *,
                 max_bytes: int = 0) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any | None:
        """Look up a key, refreshing its recency; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any, *, nbytes: int = 0) -> None:
        """Insert (or refresh) a key, evicting least-recent entries
        until the entry-count and byte budgets both hold.

        ``nbytes`` is the caller's estimate of the entry's footprint;
        an oversized single entry still gets stored (evicting everything
        else) so a hot item larger than the budget degrades to
        cache-of-one rather than thrash.
        """
        if self.max_entries == 0:
            return
        if key in self._entries:
            self.total_bytes -= self._sizes.get(key, 0)
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._sizes[key] = nbytes
        self.total_bytes += nbytes
        while (len(self._entries) > self.max_entries
               or (self.max_bytes and self.total_bytes > self.max_bytes
                   and len(self._entries) > 1)):
            evicted, _ = self._entries.popitem(last=False)
            self.total_bytes -= self._sizes.pop(evicted, 0)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        self._entries.clear()
        self._sizes.clear()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------
def extraction_fingerprint(config: BBAlignConfig) -> tuple:
    """Identity of everything that influences extracted BV features.

    Stage-1 extraction reads the projection, Log-Gabor, keypoint and
    descriptor settings and the ROI-culling parameters (the crop window
    itself derives from the pair's deterministic prior, so the
    configuration suffices); RANSAC, stage-2 and success parameters do
    not affect the features, so configurations differing only there
    share a fingerprint (and hence cache entries).
    Frozen-dataclass ``repr`` is deterministic and covers every field.
    """
    return (repr(config.bv_image), repr(config.log_gabor),
            config.keypoint_detector, repr(config.fast),
            repr(config.descriptor), repr(config.roi))


def dataset_fingerprint(config: DatasetConfig) -> tuple:
    """Identity of the per-index frame-pair generation.

    ``num_pairs`` is deliberately excluded: pairs generate independently
    per index, so datasets differing only in length share entries.
    """
    mix = tuple(sorted((kind.value, weight)
                       for kind, weight in config.scenario_mix.items()))
    return (config.seed, config.distance_range, mix,
            config.min_common_vehicles, config.max_attempts,
            repr(config.base_scenario))


def feature_key(dataset_fp: tuple, index: int, role: str,
                extraction_fp: tuple) -> tuple:
    """The full cache key for one vehicle's features of one pair."""
    return (dataset_fp, index, role, extraction_fp)


# ----------------------------------------------------------------------
# Process-default cache.  Parallel workers each hold their own default
# in their process; it persists across chunks (and across sweeps while
# the engine's pool is kept alive), which is what makes multi-variant
# studies skip re-extraction.
# ----------------------------------------------------------------------
_DEFAULT_CACHE = FeatureCache()


def get_default_cache() -> FeatureCache:
    """The process-wide default feature cache."""
    return _DEFAULT_CACHE


def set_default_cache(cache: FeatureCache) -> FeatureCache:
    """Replace the process-wide default (returns the previous one)."""
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous
