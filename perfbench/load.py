"""The load generator: the beat sender and the observer.

- **beats** — :func:`send_beats` sends signed v2 heartbeats
  (``Heartbeat.encode_signed``) for every peer from one non-blocking UDP
  socket on an absolute open-loop schedule; a paused peer skips its
  slots, so its seq keeps advancing as after a partition.  It runs in a
  child process of its own (``python -m perfbench.load``, its result
  pickled to stdout) so that parsing a large status reply in the
  observer never turns into a burst of late beats.
- **observer** (:class:`LoadRun`) — one ``asubscribe_events`` stream with
  every event stamped on receipt; at most one short-lived status
  connection at a time (the open-loop status reader, plus the priming and
  closing fetches the correctness checks use); the SUT socket's
  ``rx_queue`` sampled from ``/proc/net/udp``.

Due, send and receipt times are all ``time.monotonic()`` — one
system-wide clock, the one the SUT's spans use too.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import socket
import subprocess
import sys
import time
from array import array
from typing import List, Tuple

from perfbench.workloads import WORKLOADS, make_schedule

RXQ_PERIOD = 0.01  # rx-queue sampling period (s)
STATUS_TIMEOUT = 5.0  # a status request slower than this counts as failed
TENANT = "bench"
#: Sleep only when the next beat is due further out than this; nearer
#: beats go out at once (a sleep costs more than the wait it saves).
SLEEP_MIN = 0.001


def udp_socket_stats(port: int) -> Tuple[int, int] | None:
    """``(rx_queue bytes, drops)`` of the IPv4 UDP socket bound to ``port``."""
    suffix = ":%04X" % port
    with open("/proc/net/udp") as fh:
        next(fh)
        for line in fh:
            cols = line.split()
            if cols[1].endswith(suffix):
                return int(cols[4].split(":")[1], 16), int(cols[-1])
    return None


def send_beats(workload: str, seed: int, seconds: float, port: int,
               t0: float) -> dict:
    """Send one workload's beats to ``127.0.0.1:port`` from ``t0`` on.

    Returns the counts (in total, in the window, per peer), every beat's
    lateness (send minus due), and per
    pause (in schedule order) the send times of the last beat before it
    and the first beat after it.
    """
    from repro.live.wire import Heartbeat

    w = WORKLOADS[workload]
    s = make_schedule(w, seed, seconds)
    names = [f"{TENANT}/p{i:05d}" for i in range(w.peers)]
    order = sorted(range(w.peers), key=s.phase.__getitem__)
    di = w.interval
    # First slot per peer: the first one due at or after its start_at.
    first = [
        max(0, -int(-(s.start_at[p] - s.phase[p]) // di)) for p in range(w.peers)
    ]
    cursor = [0] * w.peers  # next pending pause per peer
    last_send = [0.0] * w.peers
    sent = [0] * w.peers
    lateness = array("d")
    late = lateness.append
    w0, w1 = t0 + s.w0, t0 + s.w1
    sent_total = sent_window = 0
    clock, sleep = time.monotonic, time.sleep
    key = s.key
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(("127.0.0.1", port))
    send = sock.send
    try:
        k = 0
        while t0 + k * di < w1:
            base = t0 + k * di
            for p in order:
                due = base + s.phase[p]
                if due >= w1:
                    break
                if k < first[p]:
                    continue
                plist = s.by_peer[p]
                pause = None
                if cursor[p] < len(plist):
                    pause = plist[cursor[p]]
                    if due < t0 + pause.start:
                        pause = None
                    elif due < t0 + pause.end:
                        if pause.last_send is None:
                            pause.last_send = last_send[p]
                        continue
                now = clock()
                if due - now > SLEEP_MIN:
                    sleep(due - now)
                    now = clock()
                send(Heartbeat(names[p], k - first[p] + 1, now).encode_signed(key))
                late(now - due)
                last_send[p] = now
                sent[p] += 1
                sent_total += 1
                if due >= w0:
                    sent_window += 1
                if pause is not None:
                    pause.resume_send = now
                    cursor[p] += 1
            k += 1
    finally:
        sock.close()
    return {
        "sent_total": sent_total,
        "sent_window": sent_window,
        "sent_per_peer": sent,
        "lateness": lateness.tobytes(),
        "pause_sends": [(p.last_send, p.resume_send) for p in s.pauses],
    }


def start_sender(workload: str, seed: int, seconds: float, port: int,
                 t0: float) -> subprocess.Popen:
    """Launch :func:`send_beats` in a child process; its stdout carries
    the pickled result once the last beat is sent."""
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(root, "src"), root)))
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.load", workload, str(seed),
         repr(seconds), str(port), repr(t0)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=root,
    )


class LoadRun:
    """One workload's traffic against one SUT; raw observations only."""

    def __init__(self, w, sched, seed: int, seconds: float, udp_port: int,
                 status_port: int, *, measure_bytes: bool = False):
        self.w = w
        self.sched = sched
        self.seed = seed
        self.seconds = seconds
        self.udp_port = udp_port
        self.status_port = status_port
        self.measure_bytes = measure_bytes
        self.t0 = 0.0
        self.lateness = array("d")
        self.sent_total = 0
        self.sent_window = 0
        self.sent_per_peer: List[int] = []
        self.events: List[Tuple[float, dict]] = []  # (receipt time, event)
        self.rxq = array("d")  # rx_queue samples inside the window
        self.speed = array("d")  # calibration slice CPU time, µs
        # status requests: (kind, due, done or None on failure, entries, bytes)
        self.requests: List[tuple] = []
        self.replica = None
        self.status_errors: List[str] = []
        self.marks: List[tuple] = []
        self._events_task = None

    # -- events --------------------------------------------------------
    async def read_events(self, ready: asyncio.Event) -> None:
        from repro.fdaas.subscribe import asubscribe_events

        clock = time.monotonic
        append = self.events.append
        stream = asubscribe_events("127.0.0.1", self.status_port, 0)
        try:
            # The generator connects and subscribes on its first step;
            # give the server a moment to register the stream.
            first = asyncio.ensure_future(stream.__anext__())
            await asyncio.sleep(0.3)
            ready.set()
            append((clock(), await first))
            async for event in stream:
                append((clock(), event))
        except StopAsyncIteration:
            pass
        finally:
            await stream.aclose()

    async def close_events(self) -> None:
        self._events_task.cancel()
        try:
            await self._events_task
        except asyncio.CancelledError:
            pass

    # -- rx queue and window edges ---------------------------------------
    async def sample_rxq(self) -> None:
        w0, w1 = self.t0 + self.sched.w0, self.t0 + self.sched.w1
        await asyncio.sleep(max(0.0, w0 - time.monotonic()))
        while time.monotonic() < w1:
            stats = udp_socket_stats(self.udp_port)
            if stats is not None:
                self.rxq.append(stats[0])
            await asyncio.sleep(RXQ_PERIOD)

    async def sample_speed(self) -> None:
        """Time a fixed slice of pure-Python work (thread CPU time) every
        0.5 s over the window: how fast this host ran during the run, so
        runs on a host whose speed drifts can be read side by side."""
        w0, w1 = self.t0 + self.sched.w0, self.t0 + self.sched.w1
        await asyncio.sleep(max(0.0, w0 - time.monotonic()))
        while time.monotonic() < w1:
            t = time.thread_time()
            acc = 0
            for i in range(20000):
                acc += i * i % 7
            self.speed.append((time.thread_time() - t) * 1e6)
            await asyncio.sleep(0.5)

    async def mark_window(self, probe) -> None:
        """Call ``probe()`` at the window's open and close; keep
        ``(time, value)`` for each."""
        for edge in (self.sched.w0, self.sched.w1):
            await asyncio.sleep(max(0.0, self.t0 + edge - time.monotonic()))
            self.marks.append((time.monotonic(), probe()))

    # -- status --------------------------------------------------------
    async def request(self, kind: str, due: float):
        """One status request, timed from ``due``; failures are recorded."""
        from repro.live.status import afetch_delta, afetch_metrics

        try:
            if kind == "delta":
                doc = await afetch_delta(
                    "127.0.0.1", self.status_port, self.replica.cursor,
                    self.replica.instance, timeout=STATUS_TIMEOUT,
                )
                done = time.monotonic()
                if "delta" not in doc:
                    raise ValueError(f"not a delta document: {sorted(doc)[:5]}")
                # The server's body is exactly this serialization.
                nbytes = (
                    len(json.dumps(doc, sort_keys=True)) + 1
                    if self.measure_bytes else 0
                )
                self.replica.apply(doc)
                self.requests.append((kind, due, done, len(doc["peers"]), nbytes))
                return doc
            text = await afetch_metrics(
                "127.0.0.1", self.status_port, timeout=STATUS_TIMEOUT
            )
            self.requests.append((kind, due, time.monotonic(), 0, len(text)))
            return text
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            self.requests.append((kind, due, None, 0, 0))
            self.status_errors.append(f"{kind}: {exc!r}")
            return None

    async def status_reader(self) -> None:
        """Open-loop reader over the window: each request timed from when
        it was due, so one slow reply delays (and charges) the next."""
        w = self.w
        w0, w1 = self.t0 + self.sched.w0, self.t0 + self.sched.w1
        dues = []
        for kind, period in (("delta", w.delta_every), ("metrics", w.metrics_every)):
            t = w0 + period
            while t < w1:
                dues.append((t, kind))
                t += period
        dues.sort()
        for due, kind in dues:
            await asyncio.sleep(max(0.0, due - time.monotonic()))
            await self.request(kind, due)

    # -- the whole run -------------------------------------------------
    async def run(self, probe) -> None:
        """Drive the workload until the window closes; ``probe()`` (the
        SUT's CPU seconds and instructions) is read at both window edges."""
        from repro.live.delta import SnapshotReplica

        self.replica = SnapshotReplica()
        ready = asyncio.Event()
        self._events_task = asyncio.create_task(self.read_events(ready))
        await ready.wait()
        # Give the sender time to start before its first beat is due.
        self.t0 = time.monotonic() + 1.0
        proc = start_sender(self.w.name, self.seed, self.seconds,
                            self.udp_port, self.t0)
        loop = asyncio.get_running_loop()
        tasks = [
            asyncio.create_task(self.sample_rxq()),
            asyncio.create_task(self.sample_speed()),
            asyncio.create_task(self.mark_window(probe)),
        ]
        try:
            # Prime the replica once first contacts are in (a full listing).
            await asyncio.sleep(
                max(0.0, self.t0 + self.w.ramp + 0.5 - time.monotonic())
            )
            await self.request("delta", time.monotonic())
            tasks.append(asyncio.create_task(self.status_reader()))
            await asyncio.gather(*tasks)
            out, _ = await loop.run_in_executor(None, proc.communicate)
        finally:
            for task in tasks:
                task.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"beat sender exited with {proc.returncode}")
        result = pickle.loads(out)
        self.sent_total = result["sent_total"]
        self.sent_window = result["sent_window"]
        self.sent_per_peer = result["sent_per_peer"]
        self.lateness.frombytes(result["lateness"])
        for pause, (last, resume) in zip(self.sched.pauses, result["pause_sends"]):
            pause.last_send, pause.resume_send = last, resume


def main(argv=None) -> int:
    """``python -m perfbench.load WORKLOAD SEED SECONDS PORT T0``: the
    beat sender's process, as :func:`start_sender` launches it."""
    workload, seed, seconds, port, t0 = argv if argv is not None else sys.argv[1:]
    result = send_beats(workload, int(seed), float(seconds), int(port), float(t0))
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
