"""Redstone engine — simulated-construct logic (§2.2.2, §3.3.1).

Implements the terrain-simulation rules that power the paper's Farm-world
timers and the Lag-world machine: redstone wire power propagation, repeaters
(delayed propagation), observers (pulse on neighbor change), pistons (block
movement), and clock circuits.

Events are scheduled in **simulated microseconds**, not game ticks.  This is
the detail behind the paper's Lag-machine crash on AWS (§5.3): when a tick
overruns, every clock period that elapsed during the overrun becomes due at
once, so a server that cannot keep up sees its per-tick update volume grow —
positive feedback that ends in a tick long enough to time out every client.
A fast enough server stays subcritical and merely alternates between short
and long ticks, which maximizes ISR.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import (
    BlockChanges,
    World,
    face_neighbours,
    in_sorted,
    pack_cells,
    run_heads,
    unpack_cells,
)

__all__ = ["ClockCircuit", "RedstoneEngine", "PISTON_FACINGS", "REDSTONE_TICK_US"]

#: One redstone tick = two game ticks = 100 ms.
REDSTONE_TICK_US = 100_000

#: Piston facing table: aux value -> (dx, dy, dz).
PISTON_FACINGS = (
    (0, 1, 0),
    (0, -1, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 0, 1),
    (0, 0, -1),
)

#: Blocks a piston can push.
_PUSHABLE = frozenset(
    {
        Block.STONE,
        Block.COBBLESTONE,
        Block.DIRT,
        Block.SAND,
        Block.GRAVEL,
        Block.SLAB,
        Block.ICE,
    }
)


@dataclass
class ClockCircuit:
    """A free-running clock driving a wire net and a set of pistons.

    ``gate_count`` models the size of the attached logic-gate network: each
    pulse evaluates that many gates (the "high volume of simulation rule
    activations" the paper's Lag machine is built from).  ``sources`` are
    wire positions the pulse energizes; ``pistons`` toggle on each pulse.

    Clocks are scheduled either in simulated time (``period_us``; missed
    periods pile up when the server lags — the runaway ingredient) or in
    game ticks (``period_ticks``; one pulse every N executed ticks, stable
    at any speed — how scheduled block updates really work).
    """

    period_us: int = 0
    period_ticks: int = 0
    gate_count: int = 0
    sources: list[tuple[int, int, int]] = field(default_factory=list)
    pistons: list[tuple[int, int, int]] = field(default_factory=list)
    phase_us: int = 0
    phase_ticks: int = 0
    powered: bool = False
    fired_pulses: int = 0
    #: Work category the gate network's evaluations are charged to.
    #: Redstone-heavy timers use ``Op.REDSTONE``; update-suppression lag
    #: machines stress the generic block-update path (``Op.BLOCK_UPDATE``),
    #: which performance forks do not optimize.
    gate_op: str = Op.REDSTONE

    def __post_init__(self) -> None:
        if self.period_us <= 0 and self.period_ticks <= 0:
            raise ValueError(
                "a clock needs a positive period_us or period_ticks"
            )
        if self.period_us > 0 and self.period_ticks > 0:
            raise ValueError(
                "choose one scheduling mode: period_us or period_ticks"
            )
        if self.period_ticks > 0:
            # Normalize so the fire condition (tick % period == phase) can
            # actually match: a phase at or past the period would never
            # fire, silently muting the clock.
            self.phase_ticks %= self.period_ticks


class RedstoneEngine:
    """Executes redstone events due by the current simulated time."""

    #: Safety valve: at most this many backlogged pulses run per clock per
    #: tick.  By the time a clock is this far behind, the tick is already
    #: long past the client timeout, so capping only bounds host CPU.
    MAX_BACKLOG_PULSES = 64

    def __init__(self, world: World) -> None:
        self.world = world
        self._heap: list[tuple[int, int, int, tuple]] = []
        self._seq = 0
        self._clocks: list[ClockCircuit] = []
        #: Packed (:func:`pack_cells`) observer positions, sorted.
        self._observers = np.empty(0, np.int64)
        #: Total updates executed in the most recent tick.
        self.last_tick_updates = 0

    # -- construction ---------------------------------------------------------

    def add_clock(self, clock: ClockCircuit, now_us: int = 0) -> ClockCircuit:
        """Register a clock.

        Sim-time clocks get their first fire scheduled on the event heap;
        game-tick clocks are polled by :meth:`tick` against the tick index.
        """
        self._clocks.append(clock)
        if clock.period_us > 0:
            first = now_us + clock.phase_us + clock.period_us
            self._push(first, "clock", (len(self._clocks) - 1,))
        return clock

    def register_observer(self, x: int, y: int, z: int) -> None:
        """Track an observer block so neighbor changes emit pulses."""
        keys = np.append(self._observers, pack_cells(x, y, z))
        keys.sort()
        self._observers = keys[run_heads(keys)]

    @property
    def clocks(self) -> list[ClockCircuit]:
        return self._clocks

    def anchored_chunks(self) -> set[tuple[int, int]]:
        """Chunks referenced by live redstone state (eviction anchors):
        clock wire nets and pistons, scheduled event positions, and
        registered observers."""
        positions: set[tuple[int, int, int]] = set(
            zip(*(axis.tolist() for axis in unpack_cells(self._observers)))
        )
        for clock in self._clocks:
            positions.update(clock.sources)
            positions.update(clock.pistons)
        for _, _, _, (kind, payload) in self._heap:
            if kind != "clock":
                positions.add(payload[0])
        return {(x >> 4, z >> 4) for x, _y, z in positions}

    def _push(self, due_us: int, kind: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (int(due_us), self._seq, 0, (kind, payload)))

    # -- change notifications --------------------------------------------------

    def on_block_changes(self, changes: BlockChanges, now_us: int) -> None:
        """Feed the tick's block changes; observers near them emit pulses,
        change by change and each change's neighbours in
        :meth:`World.neighbors6` order."""
        if not self._observers.size or not len(changes):
            return
        near = pack_cells(*face_neighbours(changes.x, changes.y, changes.z))
        pulsed = near[in_sorted(near, self._observers)]
        for pos in zip(*(axis.tolist() for axis in unpack_cells(pulsed))):
            self._push(now_us + REDSTONE_TICK_US, "observer_pulse", (pos,))

    # -- execution --------------------------------------------------------------

    def tick(
        self, now_us: int, report: WorkReport, tick_index: int = 0
    ) -> int:
        """Run every event due at or before ``now_us``; returns update count.

        Game-tick-scheduled clocks fire here too, when
        ``tick_index % period_ticks == phase_ticks``.
        """
        updates = 0
        for clock in self._clocks:
            if (
                clock.period_ticks > 0
                and tick_index % clock.period_ticks == clock.phase_ticks
            ):
                updates += self._fire_clock(clock, now_us, report)
        fired_per_clock: dict[int, int] = {}
        while self._heap and self._heap[0][0] <= now_us:
            due_us, _, _, (kind, payload) = heapq.heappop(self._heap)
            if kind == "clock":
                (index,) = payload
                fired = fired_per_clock.get(index, 0)
                clock = self._clocks[index]
                if fired < self.MAX_BACKLOG_PULSES:
                    updates += self._fire_clock(clock, due_us, report)
                    fired_per_clock[index] = fired + 1
                # Reschedule from the *due* time so missed periods pile up.
                next_due = due_us + clock.period_us
                if next_due <= now_us and fired + 1 >= self.MAX_BACKLOG_PULSES:
                    next_due = now_us + clock.period_us
                self._push(next_due, "clock", payload)
            elif kind == "observer_pulse":
                (pos,) = payload
                updates += self._fire_observer(pos, due_us, report)
            elif kind == "wire_power":
                pos, power = payload
                updates += self._propagate(pos, power, due_us, report)
        self.last_tick_updates = updates
        return updates

    def _fire_clock(
        self, clock: ClockCircuit, now_us: int, report: WorkReport
    ) -> int:
        clock.powered = not clock.powered
        clock.fired_pulses += 1
        updates = clock.gate_count
        if clock.gate_count:
            report.add(clock.gate_op, clock.gate_count)
        power = 15 if clock.powered else 0
        for source in clock.sources:
            updates += self._propagate(source, power, now_us, report)
        for piston_pos in clock.pistons:
            updates += self._set_piston(piston_pos, clock.powered, report)
        return updates

    def _fire_observer(
        self, pos: tuple[int, int, int], now_us: int, report: WorkReport
    ) -> int:
        """An observer emits a short pulse into adjacent wires/pistons."""
        report.add(Op.REDSTONE, 1)
        x, y, z = pos
        updates = 1
        for nx, ny, nz in self.world.neighbors6(x, y, z):
            block = self.world.get_block(nx, ny, nz)
            if block == Block.REDSTONE_WIRE:
                updates += self._propagate((nx, ny, nz), 15, now_us, report)
            elif block == Block.PISTON:
                updates += self._set_piston((nx, ny, nz), True, report)
        return updates

    def _propagate(
        self,
        source: tuple[int, int, int],
        power: int,
        now_us: int,
        report: WorkReport,
    ) -> int:
        """BFS power propagation along wire from ``source``.

        Wires decrement power by one per block, relaxed to the *maximum*
        power reachable over any path (a long branch can no longer lock a
        weaker level into a wire that a shorter branch reaches later);
        repeaters re-emit full power after their delay (scheduled as a
        future event); pistons adjacent to a powered wire extend, and
        retract when the wire turns off.  ``power=0`` depropagates the
        whole connected net (see :meth:`_depropagate`).
        """
        world = self.world
        if world.get_block(*source) != Block.REDSTONE_WIRE:
            return 0
        if power <= 0:
            return self._depropagate(source, now_us, report)
        best: dict[tuple[int, int, int], int] = {source: power}
        frontier: deque[tuple[int, int, int]] = deque([source])
        evaluations = 0
        while frontier:
            pos = frontier.popleft()
            x, y, z = pos
            level = best[pos]
            evaluations += 1
            for nx, ny, nz in world.neighbors6(x, y, z):
                npos = (nx, ny, nz)
                block = world.get_block(nx, ny, nz)
                if block == Block.REDSTONE_WIRE:
                    candidate = level - 1
                    if candidate > best.get(npos, -1):
                        if npos not in best:
                            evaluations += 1
                        best[npos] = candidate
                        if candidate > 0:
                            frontier.append(npos)
                elif block == Block.REPEATER and level > 0:
                    delay_ticks = max(1, world.get_aux(nx, ny, nz) or 1)
                    # Re-emit at full power on the far side after the delay.
                    far = (2 * nx - x, 2 * ny - y, 2 * nz - z)
                    self._push(
                        now_us + delay_ticks * REDSTONE_TICK_US,
                        "wire_power",
                        (far, 15),
                    )
                    evaluations += 1
                elif block == Block.PISTON:
                    self._set_piston(npos, level > 0, report)
        for (x, y, z), level in best.items():
            world.set_aux(x, y, z, level)
        report.add(Op.REDSTONE, evaluations)
        return evaluations

    def _depropagate(
        self,
        source: tuple[int, int, int],
        now_us: int,
        report: WorkReport,
    ) -> int:
        """Zero aux power across the whole wire net connected to ``source``.

        The falling edge must walk as far as the rising edge did: zeroing
        only the source and its direct neighbors left every wire ≥2 blocks
        away energized forever, so a clock's off phase never actually
        turned its circuit off.  Repeaters forward the falling edge after
        their delay; pistons on the net retract.
        """
        world = self.world
        visited = {source}
        frontier: deque[tuple[int, int, int]] = deque([source])
        evaluations = 0
        while frontier:
            x, y, z = frontier.popleft()
            evaluations += 1
            world.set_aux(x, y, z, 0)
            for nx, ny, nz in world.neighbors6(x, y, z):
                npos = (nx, ny, nz)
                block = world.get_block(nx, ny, nz)
                if block == Block.REDSTONE_WIRE and npos not in visited:
                    visited.add(npos)
                    frontier.append(npos)
                elif block == Block.REPEATER:
                    delay_ticks = max(1, world.get_aux(nx, ny, nz) or 1)
                    far = (2 * nx - x, 2 * ny - y, 2 * nz - z)
                    self._push(
                        now_us + delay_ticks * REDSTONE_TICK_US,
                        "wire_power",
                        (far, 0),
                    )
                    evaluations += 1
                elif block == Block.PISTON:
                    self._set_piston(npos, False, report)
        report.add(Op.REDSTONE, evaluations)
        return evaluations

    def _set_piston(
        self, pos: tuple[int, int, int], extend: bool, report: WorkReport
    ) -> int:
        """Extend or retract a piston, moving a pushable block if present."""
        x, y, z = pos
        world = self.world
        if world.get_block(x, y, z) != Block.PISTON:
            return 0
        facing = PISTON_FACINGS[world.get_aux(x, y, z) % 6]
        hx, hy, hz = x + facing[0], y + facing[1], z + facing[2]
        head_block = world.get_block(hx, hy, hz)
        changed = 0
        if extend and head_block != Block.PISTON_HEAD:
            if head_block in _PUSHABLE:
                bx, by, bz = hx + facing[0], hy + facing[1], hz + facing[2]
                if world.get_block(bx, by, bz) == Block.AIR:
                    world.set_block(bx, by, bz, head_block)
                    changed += 1
            if world.get_block(hx, hy, hz) in (Block.AIR, head_block):
                world.set_block(hx, hy, hz, Block.PISTON_HEAD)
                changed += 1
        elif not extend and head_block == Block.PISTON_HEAD:
            world.set_block(hx, hy, hz, Block.AIR)
            changed += 1
        if changed:
            report.add(Op.BLOCK_ADD_REMOVE, changed)
            # Piston light occlusion changes are small and local; charge a
            # flat relight estimate instead of running the BFS.
            report.add(Op.LIGHTING, 48 * changed)
        report.add(Op.REDSTONE, 1)
        return changed + 1
