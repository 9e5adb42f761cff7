"""Game-wide constants of the MLG operational model (paper §2)."""

from __future__ import annotations

from repro.simtime import s_to_us

#: Game-loop frequency (ticks per second); §2.1: "typically set to 20 Hz".
TICK_RATE_HZ = 20
#: Tick budget in microseconds (50 ms at 20 Hz).
TICK_BUDGET_US = 50_000
#: Tick budget in milliseconds, the unit used in figures.
TICK_BUDGET_MS = 50.0
#: Response-time QoS thresholds (ms; §3.5.1, refs [38, 46]): above the
#: first players notice delay, above the second the game is unplayable.
NOTICEABLE_MS = 60.0
UNPLAYABLE_MS = 118.0

#: Horizontal chunk edge length in blocks.
CHUNK_SIZE = 16
#: World height in blocks (simulator uses a reduced-height world).
WORLD_HEIGHT = 128
#: Sea level: water fills terrain below this height.
SEA_LEVEL = 62

#: Default server view distance, in chunks, loaded around each player.
DEFAULT_VIEW_DISTANCE = 8

#: Clients disconnect after this long without receiving a keepalive (§5.3:
#: the Lag workload's tick-duration blowup makes connections time out).
CLIENT_TIMEOUT_US = s_to_us(30.0)
#: Keepalive emission interval.
KEEPALIVE_INTERVAL_US = s_to_us(1.0)

#: Random ticks per loaded chunk per game tick (drives plant growth).
RANDOM_TICK_SPEED = 3

#: Maximum light level.
MAX_LIGHT = 15
#: Mobs spawn only below this light level.
MOB_SPAWN_LIGHT_MAX = 8

#: Natural mob cap per loaded world (scaled by loaded chunks).
MOB_CAP = 70
#: Item entities despawn after this many seconds.
ITEM_DESPAWN_S = 300.0
