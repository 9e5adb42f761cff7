"""View recency as a set and a dict, as it stood before it became a grid,
verbatim: the oracle of ``test_lifecycle_recency.py``.

``OracleLifecycle`` materialises every chunk coordinate in view as a set
of tuples each over-cap tick, records the tick for each in a dict (loaded
or not), and sorts eviction candidates by ``(last seen, key)``, forgetting
a key when it evicts it.  Autosave, loading and the pinned/dirty/on-disk
rules are the real class's.  Nothing here is imported by ``src/``.
"""

from repro.persistence.lifecycle import ChunkLifecycle


class OracleLifecycle(ChunkLifecycle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_seen = {}
        #: Keys in eviction order, for the parity test to compare.
        self.evicted = []

    def tick(self, tick_index, report, anchors):
        count = self.world.loaded_chunk_count
        if count > self.peak_loaded_chunks:
            self.peak_loaded_chunks = count
        if self.store is not None:
            self._autosave(tick_index, report)
        if (
            self.eviction_enabled
            and self.world.loaded_chunk_count > self.max_loaded_chunks
        ):
            with self.tracer.span("evict"):
                in_view = self._in_view(anchors)
                for key in in_view:
                    self._last_seen[key] = tick_index
                self._evict(tick_index, in_view)

    def _in_view(self, anchors):
        in_view = set()
        for (ccx, ccz), view in anchors:
            reach = view + self.EVICT_MARGIN
            for cx in range(ccx - reach, ccx + reach + 1):
                for cz in range(ccz - reach, ccz + reach + 1):
                    in_view.add((cx, cz))
        return in_view

    def _evict(self, tick_index, in_view):
        over = self.world.loaded_chunk_count - self.max_loaded_chunks
        if over <= 0:
            return
        if (
            self.pinned is not None
            and tick_index - self._pinned_refresh_tick
            >= self.PIN_REFRESH_TICKS
        ):
            self._pinned_cache = self.pinned()
            self._pinned_refresh_tick = tick_index
        pinned = self._pinned_cache
        regenerable = self.world.generator is not None
        candidates = []
        dirty = set(self.world.dirty_keys())
        for key in self.world.loaded_keys():
            if key in in_view or key in pinned or key in dirty:
                continue
            if key not in self._on_disk:
                if self.store is not None or not regenerable:
                    continue
            candidates.append((self._last_seen.get(key, -1), key))
        candidates.sort()
        for _, key in candidates[:over]:
            self.world.unload_chunk(*key)
            self._last_seen.pop(key, None)
            self.chunks_evicted += 1
            self.evicted.append(key)
