"""Chunk lifecycle management: autosave scheduling and LRU streaming.

The :class:`ChunkLifecycle` is the policy layer between the in-memory
:class:`~repro.mlg.world.World` and the on-disk
:class:`~repro.persistence.store.RegionStore`.  Once per tick the game
loop hands it the tick index, the tick's :class:`WorkReport`, and the
players' view anchors, and it does two jobs:

**Autosave** — every ``autosave_interval_ticks`` the dirty-chunk backlog
is snapshotted and then written back *incrementally*, a bounded batch per
tick (like vanilla's per-tick chunk saving), each saved chunk charged to
``Op.CHUNK_SAVE`` (the Fig. 11 "Autosave" bucket).  Every
``full_flush_every``-th autosave instead writes the whole backlog in one
tick — the classic save-all tick spike the paper's tick-duration tails
show.

**Eviction** — when more than ``max_loaded_chunks`` chunks are resident,
clean chunks outside every player's view distance (plus a one-chunk
hysteresis margin) are dropped, least-recently-viewed first, so the
loaded-chunk count — and therefore ``World.nbytes`` — plateaus instead of
growing forever.  Two invariants hold unconditionally: a dirty chunk is
never evicted, and a chunk is only evicted when it can come back (it is
on disk, in the warm cache, or deterministically regenerable).  Recency
is a 2-D ``int32`` grid over chunk coordinates holding the last tick each
was in some player's view (-1: never): a view is one slice assignment, "in
view this tick" is ``grid[cx, cz] == tick_index`` over the loaded keys,
and the grid grows, keeping what it held, when a view leaves it.

Loads stream back in through the world's loader hook: store first, then
the read-only warm cache, then regeneration.  A hit is inflated, checked,
and decoded straight into the arena slot the world offers; a payload that
fails claims no slot.  Light is not in the payload: the world hands what
one ``ensure_chunks`` call loaded to ``relight`` as one list, after the
last decode, so a view's loads are decoded singly and lit together.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

import numpy as np

from repro.lifetimes import weak_method
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import Chunk, World
from repro.persistence.store import RegionStore
from repro.tracing.tracer import NULL_TRACER

__all__ = ["ChunkLifecycle"]

#: View anchor: ((chunk_x, chunk_z), view_distance) per connected player.
ViewAnchor = tuple[tuple[int, int], int]


class ChunkLifecycle:
    """Dirty tracking, autosave, and streaming for one server's world."""

    #: Chunks written per tick while draining an incremental autosave.
    SAVE_CHUNKS_PER_TICK = 16
    #: Hysteresis ring (in chunks) beyond the view distance that eviction
    #: leaves alone, so border-straddling players do not thrash.
    EVICT_MARGIN = 1
    #: Ticks between refreshes of the pinned (simulation-anchor) set.
    #: The anchors' one-chunk ring (16 blocks) comfortably outruns how
    #: far fluid fronts or entities can drift in this window, and it
    #: amortizes the pure-Python anchor walk across over-cap ticks.
    PIN_REFRESH_TICKS = 4
    #: Chunks of slack on every side when the recency grid (re)grows, so
    #: a walking player regrows it every 16 chunks, not every tick.
    GRID_PAD = 16

    def __init__(
        self,
        world: World,
        store: RegionStore | None = None,
        cache: RegionStore | None = None,
        *,
        autosave_interval_ticks: int = 900,
        full_flush_every: int = 6,
        max_loaded_chunks: int | None = None,
        relight: Callable[[list[Chunk]], object] | None = None,
        pinned: Callable[[], set[tuple[int, int]]] | None = None,
        tracer=None,
    ) -> None:
        if autosave_interval_ticks < 1:
            raise ValueError(
                f"autosave interval must be >= 1 tick: "
                f"{autosave_interval_ticks!r}"
            )
        if max_loaded_chunks is not None and max_loaded_chunks < 1:
            raise ValueError(
                f"max_loaded_chunks must be >= 1: {max_loaded_chunks!r}"
            )
        self.world = world
        self.store = store
        self.cache = cache
        self.autosave_interval_ticks = autosave_interval_ticks
        self.full_flush_every = full_flush_every
        self.max_loaded_chunks = max_loaded_chunks
        #: Extra chunks to exclude from eviction (active simulation
        #: anchors: fluid queues, redstone nets, entity positions).
        self.pinned = pinned
        #: Relights what one ``ensure_chunks`` call loaded.
        self.relight = relight
        #: Span tracer (the owning server's); lifecycle spans nest under
        #: the game loop's "lifecycle" phase span.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Chunks recoverable from disk with their current content.
        self._on_disk: set[tuple[int, int]] = set()
        if store is not None:
            self._on_disk.update(store.chunk_positions())
        if cache is not None:
            self._on_disk.update(cache.chunk_positions())
        self._pinned_cache: set[tuple[int, int]] = set()
        self._pinned_refresh_tick = -(10**9)
        self._pending_save: deque[tuple[int, int]] = deque()
        #: Chunks drained (and charged) this autosave cycle whose region
        #: file has not been written yet — flushed once per region.
        self._staged: list[Chunk] = []
        self._next_autosave_tick = autosave_interval_ticks
        self._autosave_index = 0
        #: Last tick each chunk coordinate was in a view, -1 for never;
        #: ``_seen[cx - x0, cz - z0]`` with ``(x0, z0) = _seen_origin``.
        #: Coordinates outside the grid have never been in a view.
        self._seen = np.full((0, 0), -1, np.int32)
        self._seen_origin = (0, 0)
        # -- counters (exported to iteration telemetry) --
        self.chunks_saved = 0
        self.chunks_loaded = 0
        self.chunks_evicted = 0
        self.autosaves = 0
        self.full_flushes = 0
        self.peak_loaded_chunks = 0
        # The world calls back into the lifecycle that holds it, so it
        # gets weak hooks: the pair is freed by refcount, not as a cycle.
        world.set_loader(
            weak_method(self._load),
            None if relight is None else weak_method(self._relight),
        )

    # -- introspection -------------------------------------------------------

    @property
    def eviction_enabled(self) -> bool:
        return self.max_loaded_chunks is not None

    @property
    def bytes_written(self) -> int:
        return self.store.bytes_written if self.store is not None else 0

    @property
    def bytes_read(self) -> int:
        read = self.store.bytes_read if self.store is not None else 0
        if self.cache is not None:
            read += self.cache.bytes_read
        return read

    def dirty_count(self) -> int:
        return self.world.dirty_count()

    def stats(self) -> dict[str, int]:
        """Counters for the iteration-telemetry ``world`` section."""
        return {
            "chunks_saved": self.chunks_saved,
            "chunks_loaded_from_disk": self.chunks_loaded,
            "chunks_evicted": self.chunks_evicted,
            "autosaves": self.autosaves,
            "full_flushes": self.full_flushes,
            "peak_loaded_chunks": self.peak_loaded_chunks,
            "final_loaded_chunks": self.world.loaded_chunk_count,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }

    # -- the per-tick driver -------------------------------------------------

    def tick(
        self,
        tick_index: int,
        report: WorkReport,
        anchors: Iterable[ViewAnchor],
    ) -> None:
        """Run one tick of lifecycle work (called by the game loop, with
        a ``tick_index`` that grows from call to call: "in view now" is
        "last seen at ``tick_index``")."""
        count = self.world.loaded_chunk_count
        if count > self.peak_loaded_chunks:
            self.peak_loaded_chunks = count
        if self.store is not None:
            self._autosave(tick_index, report)
        # Views are only stamped on ticks where eviction can actually
        # run: below the cap the whole pass — including the recency
        # bookkeeping — costs nothing.  Recency therefore freezes between
        # over-cap episodes, which only coarsens the LRU order among
        # chunks that were all last seen before the episode began.
        if self.eviction_enabled and count > self.max_loaded_chunks:
            with self.tracer.span("evict"):
                self._stamp_views(tick_index, anchors)
                self._evict(tick_index, count - self.max_loaded_chunks)

    # -- loading -------------------------------------------------------------

    def _load(
        self, cx: int, cz: int, create: Callable[[int, int], Chunk]
    ) -> Chunk | None:
        """The world's loader hook: store, then warm cache, else miss.
        A hit is decoded into the slot ``create`` claims."""
        chunk = None
        if self.store is not None:
            chunk = self.store.load_chunk(cx, cz, create)
        if chunk is None and self.cache is not None:
            chunk = self.cache.load_chunk(cx, cz, create)
        if chunk is None:
            return None
        self._on_disk.add((cx, cz))
        self.chunks_loaded += 1
        return chunk

    def _relight(self, chunks: list[Chunk]) -> None:
        self.relight(chunks)

    # -- autosave ------------------------------------------------------------

    def _needs_save(self, key: tuple[int, int], chunk: Chunk) -> bool:
        """Dirty, or never persisted (freshly generated counts as both)."""
        return chunk.dirty or key not in self._on_disk

    def _autosave(self, tick_index: int, report: WorkReport) -> None:
        from repro.persistence.region import chunk_to_region

        if tick_index >= self._next_autosave_tick:
            self._next_autosave_tick = tick_index + self.autosave_interval_ticks
            self._autosave_index += 1
            self.autosaves += 1
            # Leftover staged chunks from a cycle that did not finish
            # draining go to disk first, so the new backlog scan (which
            # keys off dirty flags) cannot double-enqueue them.
            self._flush_staged()
            backlog = sorted(
                # Dirty, or never persisted (see _needs_save).
                (self.world.loaded_keys() - self._on_disk)
                | set(self.world.dirty_keys()),
                # Region-major order: the incremental drain then touches
                # each region file once, not once per 16-chunk batch.
                key=lambda key: (chunk_to_region(*key), key),
            )
            full = (
                self.full_flush_every > 0
                and self._autosave_index % self.full_flush_every == 0
            )
            if full:
                # The save-all flush: the whole backlog in one tick.
                with self.tracer.span("save_all"):
                    self.full_flushes += 1
                    self._pending_save.clear()
                    written = self._write_chunks(self._collect(backlog))
                    report.add(Op.CHUNK_SAVE, written)
                return
            self._pending_save = deque(backlog)
        if self._pending_save:
            with self.tracer.span("autosave"):
                batch: list[tuple[int, int]] = []
                while (
                    self._pending_save
                    and len(batch) < self.SAVE_CHUNKS_PER_TICK
                ):
                    batch.append(self._pending_save.popleft())
                # Charge the work (deflate + serialize) on the tick it
                # happens, but buffer the region-file write until no more
                # of that region's chunks remain in the backlog — one
                # physical read-modify-write per region per cycle instead
                # of one per batch.  Staged chunks keep their dirty flag
                # (and thus their eviction protection) until they
                # actually hit disk.
                chunks = self._collect(batch)
                if chunks:
                    report.add(Op.CHUNK_SAVE, len(chunks))
                    self._staged.extend(chunks)
                remaining = {
                    chunk_to_region(*key) for key in self._pending_save
                }
                ready = [
                    chunk
                    for chunk in self._staged
                    if chunk_to_region(chunk.cx, chunk.cz) not in remaining
                ]
                if ready:
                    self._staged = [
                        chunk
                        for chunk in self._staged
                        if chunk_to_region(chunk.cx, chunk.cz) in remaining
                    ]
                    self._write_chunks(ready)

    def _collect(self, keys: list[tuple[int, int]]) -> list[Chunk]:
        """Resolve still-saveable chunks (drops vanished/cleaned ones)."""
        chunks: list[Chunk] = []
        staged = {(chunk.cx, chunk.cz) for chunk in self._staged}
        for key in keys:
            chunk = self.world.get_chunk(*key)
            if (
                chunk is not None
                and key not in staged
                and self._needs_save(key, chunk)
            ):
                chunks.append(chunk)
        return chunks

    def _write_chunks(self, chunks: list[Chunk]) -> int:
        """Physically persist chunks and mark them clean/recoverable."""
        if not chunks:
            return 0
        self.store.save_chunks(chunks)
        for chunk in chunks:
            chunk.dirty = False
            self._on_disk.add((chunk.cx, chunk.cz))
        self.chunks_saved += len(chunks)
        return len(chunks)

    def _flush_staged(self) -> None:
        if self._staged:
            staged, self._staged = self._staged, []
            self._write_chunks(staged)

    # -- eviction ------------------------------------------------------------

    def _stamp_views(
        self, tick_index: int, anchors: Iterable[ViewAnchor]
    ) -> None:
        """Record ``tick_index`` for every chunk coordinate (loaded or
        not) within a view plus the hysteresis margin."""
        seen, (x0, z0) = self._seen, self._seen_origin
        for (ccx, ccz), view in anchors:
            reach = view + self.EVICT_MARGIN
            xa, xb = ccx - reach, ccx + reach + 1
            za, zb = ccz - reach, ccz + reach + 1
            if (
                xa < x0 or za < z0
                or xb > x0 + seen.shape[0] or zb > z0 + seen.shape[1]
            ):
                self._grow_seen(xa, xb, za, zb)
                seen, (x0, z0) = self._seen, self._seen_origin
            seen[xa - x0 : xb - x0, za - z0 : zb - z0] = tick_index

    def _grow_seen(self, xa: int, xb: int, za: int, zb: int) -> None:
        """Regrow the recency grid to hold ``[xa, xb) × [za, zb)`` as well
        as what it holds."""
        old, (x0, z0) = self._seen, self._seen_origin
        pad = self.GRID_PAD
        xa, xb, za, zb = xa - pad, xb + pad, za - pad, zb + pad
        if old.size:
            xa, xb = min(xa, x0), max(xb, x0 + old.shape[0])
            za, zb = min(za, z0), max(zb, z0 + old.shape[1])
        grown = np.full((xb - xa, zb - za), -1, np.int32)
        if old.size:
            grown[
                x0 - xa : x0 - xa + old.shape[0],
                z0 - za : z0 - za + old.shape[1],
            ] = old
        self._seen, self._seen_origin = grown, (xa, za)

    def _last_seen(self, coords) -> list[int]:
        """The recency grid's entry for each ``(cx, cz)`` of ``coords``."""
        seen, origin = self._seen, self._seen_origin
        at = np.asarray(coords, np.int64).reshape(-1, 2) - origin
        inside = ((at >= 0) & (at < seen.shape)).all(axis=1)
        last = np.full(len(at), -1, np.int32)
        last[inside] = seen[at[inside, 0], at[inside, 1]]
        return last.tolist()

    def _evict(self, tick_index: int, over: int) -> None:
        """Unload the ``over`` least recently viewed evictable chunks."""
        # Active simulation state (fluid queues, redstone nets, entity
        # positions) reads terrain through the AIR-for-unloaded bulk
        # queries: evicting beneath it would diverge the simulation, not
        # just retime it.  Refreshed every few ticks — the anchors' ring
        # absorbs the staleness — so chronic over-cap phases don't pay
        # the full anchor walk every tick.
        if (
            self.pinned is not None
            and tick_index - self._pinned_refresh_tick
            >= self.PIN_REFRESH_TICKS
        ):
            self._pinned_cache = self.pinned()
            self._pinned_refresh_tick = tick_index
        # The arena's coordinate array, in the order of loaded_keys.
        last_seen = self._last_seen(self.world.loaded_coords())
        if min(last_seen) == tick_index:
            # Every loaded chunk was stamped this tick (no stamp is
            # later): all are in view, so nothing can go.
            return
        keys = list(self.world.loaded_keys())
        pinned = self._pinned_cache
        regenerable = self.world.generator is not None
        candidates: list[tuple[int, tuple[int, int]]] = []
        dirty = set(self.world.dirty_keys())
        for key, last in zip(keys, last_seen):
            # Stamped this tick: in view.
            if last == tick_index or key in pinned or key in dirty:
                continue
            if key not in self._on_disk:
                # With a store, a not-yet-persisted chunk waits for its
                # autosave (real servers save generated chunks before
                # unloading them); without one, deterministic
                # regeneration is the only way back — and chunks with
                # neither stay resident forever.
                if self.store is not None or not regenerable:
                    continue
            candidates.append((last, key))
        candidates.sort()
        x0, z0 = self._seen_origin
        for last, (cx, cz) in candidates[:over]:
            self.world.unload_chunk(cx, cz)
            if last >= 0:
                self._seen[cx - x0, cz - z0] = -1
            self.chunks_evicted += 1
