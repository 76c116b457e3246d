"""Workload definitions and their seeded schedules.

A workload fixes the traffic shape; :func:`make_schedule` turns it and a
seed into concrete inputs — per-peer send phases, the first-contact ramp,
and every pause (start, end) — so the same seed gives the same inputs.
Times are seconds relative to the generator's start instant ``t0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

#: 2W-FD safety margin α the SUT runs with (``{"2w-fd": 0.3}``).
ALPHA = 0.3
#: The monitor's liveness poll tick (library default, reported as context).
TICK = 0.02
#: SLA floor on query accuracy P_A for the ``bench`` tenant.  Any peer
#: that pauses falls below it, so breaches flow on every workload.
SLA_P_A = 0.99


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    peers: int
    interval: float  # Δi, seconds
    ramp: float  # first contacts spread evenly over this many seconds
    warm: float  # steady sending between the ramp and the window
    pause_s: float  # length of one pause
    pause_rate: float | None = None  # pauses/s over uniformly picked peers
    up_range: Tuple[float, float] | None = None  # flap: U(a, b) s up per cycle
    delta_every: float = 0.5  # status reader: `delta <cursor>` period
    metrics_every: float = 1.0  # status reader: `metrics` period

    @property
    def t_d(self) -> float:
        """Configured detection time Δi + α."""
        return self.interval + ALPHA

    @property
    def sla_t_d(self) -> float:
        """SLA ceiling on projected T_D (comfortably above Δi + α)."""
        return round(2.0 * self.t_d, 3)

    def params(self) -> dict:
        """The generated parameters, as reported with every result."""
        doc = {
            "peers": self.peers,
            "interval_s": self.interval,
            "beats_per_s_unpaused": round(self.peers / self.interval, 1),
            "ramp_s": self.ramp,
            "warm_s": self.warm,
            "pause_s": self.pause_s,
        }
        if self.pause_rate is not None:
            doc["pause_rate_per_s"] = self.pause_rate
        if self.up_range is not None:
            doc["up_s_uniform"] = list(self.up_range)
        doc["delta_every_s"] = self.delta_every
        doc["metrics_every_s"] = self.metrics_every
        return doc


# Sized for zero loss on a 2-core host: the monitor's periodic O(peers)
# work (SLA evaluation every 0.25 s, status renders, full collections)
# stalls its loop, and a stall longer than the ~280 datagrams the default
# socket buffer holds drops beats.  At 2000 peers x 0.1 s or 5000 x 1 s
# that happens every few hundred ms and loss, not the layers, sets every
# number.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fanin",
            "600 peers at 0.1 s (~5k beats/s), 150 0.6-s pauses/s, light status "
            "reader (delta 0.25 s, metrics 0.5 s): the per-datagram path "
            "(socket, admission, ingest, tracer) dominates",
            peers=600, interval=0.1, ramp=1.0, warm=1.5,
            pause_s=0.6, pause_rate=150.0, delta_every=0.25, metrics_every=0.5,
        ),
        Workload(
            "flap",
            "600 peers at 0.1 s, each U(1,3) s up then 1 s paused (~200 "
            "pauses/s, ~4k beats/s), light status reader: the detection path "
            "(poll expiry, QoS, broker, subscribe push) dominates",
            peers=600, interval=0.1, ramp=0.5, warm=1.5,
            pause_s=1.0, up_range=(1.0, 3.0), delta_every=0.25, metrics_every=0.5,
        ),
        Workload(
            "scrape",
            "2000 peers at 1 s (~1.8k beats/s), 150 1.6-s pauses/s, open-loop "
            "status reader (delta every 0.2 s, metrics every 0.5 s): O(peers) "
            "reads on the loop beside ingest",
            peers=2000, interval=1.0, ramp=2.0, warm=2.0,
            pause_s=1.6, pause_rate=150.0, delta_every=0.2, metrics_every=0.5,
        ),
    )
}


@dataclass
class Pause:
    """One scheduled pause and what the run observed of it."""

    peer: int
    start: float  # relative; slots due in [start, end) are skipped
    end: float
    last_send: float | None = None  # absolute send time of the last beat before
    resume_send: float | None = None  # absolute send time of the first beat after


@dataclass
class Schedule:
    phase: List[float]  # per-peer offset of its slots within each Δi
    start_at: List[float]  # per-peer first-contact time
    pauses: List[Pause]
    w0: float  # measured window [w0, w1)
    w1: float
    key: bytes  # the tenant's HMAC key
    by_peer: List[List[Pause]] = field(default_factory=list)


def make_schedule(w: Workload, seed: int, seconds: float) -> Schedule:
    rng = random.Random(seed)
    key = rng.randbytes(32)
    phase = [rng.uniform(0.0, w.interval) for _ in range(w.peers)]
    start_at = [w.ramp * i / w.peers for i in range(w.peers)]
    w0 = w.ramp + w.warm
    w1 = w0 + seconds
    # Every pause must be detected and recovered inside the window.
    last_start = w1 - (w.pause_s + 2 * w.t_d + 0.2)
    pauses: List[Pause] = []
    if w.pause_rate is not None:
        free_at = [w0] * w.peers
        n = max(1, int((last_start - w0) * w.pause_rate))
        for j in range(n):
            t = w0 + j / w.pause_rate
            while True:
                peer = rng.randrange(w.peers)
                if free_at[peer] <= t:
                    break
            pauses.append(Pause(peer, t, t + w.pause_s))
            # Not again until its trust is in and it has beaten a while.
            free_at[peer] = t + w.pause_s + 2 * w.t_d + w.interval
    else:
        lo, hi = w.up_range
        for peer in range(w.peers):
            t = w0 + rng.uniform(0.0, hi)
            while t <= last_start:
                pauses.append(Pause(peer, t, t + w.pause_s))
                t += w.pause_s + rng.uniform(lo, hi)
    by_peer: List[List[Pause]] = [[] for _ in range(w.peers)]
    for p in sorted(pauses, key=lambda p: p.start):
        by_peer[p.peer].append(p)
    return Schedule(phase, start_at, pauses, w0, w1, key, by_peer)
