"""System under test for the loopback benchmark: one fdaas monitor process.

Builds exactly what ``repro-fd live monitor --tenants CFG --status-port 0``
builds — an :class:`~repro.fdaas.service.FdaasServer` over
``LiveMonitor(interval, ["2w-fd"], {"2w-fd": 0.3}, obs=Observability())``
with every other option at its library default — binds UDP and the TCP
status endpoint on ephemeral loopback ports, prints one line

    READY <udp_port> <status_port>

on stdout, and serves until SIGTERM.

With ``--trace PATH`` the host also records spans: the public methods the
benchmark attributes time to are wrapped on the instances built here (no
library code changes), a paced probe task measures event-loop lag, and
``gc.callbacks`` time collector pauses.  Spans stay in memory and are
written to ``PATH`` (``numpy.savez``) when the process exits.

Run from the repository root with ``PYTHONPATH=src``; ``perfbench/run.py``
launches it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import signal
import sys
import time
from array import array

# The wrapped layer boundaries: (label, owner, method).  ``tracer`` and
# ``qos`` belong to the Observability bundle, the rest to the pieces
# FdaasServer builds.  Every ingest entry point is wrapped, not only the
# default batched one, so a change of the default stays attributed.
LAYER_METHODS = (
    ("admit", "admission", "admit"),
    ("admit", "admission", "filter_arena"),
    ("ingest", "monitor", "ingest"),
    ("ingest", "monitor", "ingest_many"),
    ("ingest", "monitor", "ingest_arena"),
    ("tracer", "tracer", "record"),
    ("qos.on_event", "qos", "on_event"),
    ("qos.all_metrics", "qos", "all_metrics"),
    ("poll", "monitor", "poll"),
    ("sla", "sla", "evaluate"),
    ("broker.publish", "broker", "publish"),
    ("broker.document", "broker", "document"),
    ("status.delta", "monitor", "delta_snapshot"),
    ("status.metrics", "monitor", "render_metrics"),
)

#: Event-loop probe period (seconds) in traced runs.
PROBE_PERIOD = 0.01


class SpanRecorder:
    """In-memory spans: name, start, end, parent and two work counts.

    Columns are flat arrays so a traced run of a few hundred thousand
    spans costs a few megabytes and no per-span objects.
    """

    def __init__(self) -> None:
        self.names: list = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("d")  # per-call work count (datagrams, events...)
        self.extra = array("d")  # second count where a layer needs one
        self._stack: list = []
        self.probe_due = array("d")
        self.probe_lag = array("d")
        self.gc_pause = array("d")
        self.gc_start = array("d")

    def _wrap(self, label: str, fn, count):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        clock = time.monotonic
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, items, extra = self.parent, self.items, self.extra

        def wrapped(obj, *args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            items.append(0.0)
            extra.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(obj, *args, **kwargs)
                if count is not None:
                    items[idx], extra[idx] = count(obj, args, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapped

    def instrument(self, obj, methods) -> None:
        """Wrap ``methods`` — ``(label, name, count, impl)`` tuples — on
        this one instance.

        The instance's class is swapped for a slot-compatible subclass
        carrying the wrappers, so slotted classes (the tracer) work too
        and no other instance of the class is affected.  ``count(obj,
        args, result)`` returns the span's two work counts; ``impl``
        (usually None) replaces the class's function inside the span.
        """
        cls = type(obj)
        body = {"__slots__": ()}
        for label, name, count, impl in methods:
            fn = impl if impl is not None else getattr(cls, name)
            body[name] = self._wrap(label, fn, count)
        obj.__class__ = type(cls.__name__, (cls,), body)

    # -- runtime probes ------------------------------------------------
    async def probe_loop(self) -> None:
        """Paced absolute-deadline sleeper: records how late each wake is."""
        loop = asyncio.get_running_loop()
        due = loop.time() + PROBE_PERIOD
        while True:
            await asyncio.sleep(max(0.0, due - loop.time()))
            now = loop.time()  # time.monotonic(), like the spans
            self.probe_due.append(due)
            self.probe_lag.append(now - due)
            due += PROBE_PERIOD
            if due < now:
                due = now + PROBE_PERIOD

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.monotonic()
        elif phase == "stop":
            self.gc_start.append(self._gc_t0)
            self.gc_pause.append(time.monotonic() - self._gc_t0)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            items=np.frombuffer(self.items, dtype=np.float64),
            extra=np.frombuffer(self.extra, dtype=np.float64),
            probe_due=np.frombuffer(self.probe_due, dtype=np.float64),
            probe_lag=np.frombuffer(self.probe_lag, dtype=np.float64),
            gc_pause=np.frombuffer(self.gc_pause, dtype=np.float64),
            gc_start=np.frombuffer(self.gc_start, dtype=np.float64),
        )


# Work counts per span: (items, extra) from (instance, call args, result).
def _one(obj, args, result):
    return 1.0, 0.0


def _n_datagrams(obj, args, result):
    return float(len(args[0])), 0.0


def _arena_fill(obj, args, result):
    return float(args[0].last_fill), 0.0


def _n_dropped(obj, args, result):
    return float(result), 0.0


def _poll_expired(obj, args, result):
    stats = obj.last_poll_stats or {}
    return float(stats.get("n_expired", 0)), float(len(result))


def _doc_scanned(obj, args, result):
    # events returned vs. ring entries scanned to find them
    return float(len(result["events"])), float(len(obj._ring))


def _delta_entries(obj, args, result):
    return float(len(result.get("peers", ()))), 0.0


def _text_bytes(obj, args, result):
    return float(len(result)), 0.0


COUNTS = {
    ("admission", "admit"): _one,
    ("admission", "filter_arena"): _n_dropped,
    ("monitor", "ingest"): _one,
    ("monitor", "ingest_many"): _n_datagrams,
    ("monitor", "ingest_arena"): _arena_fill,
    ("monitor", "poll"): _poll_expired,
    ("broker", "document"): _doc_scanned,
    ("monitor", "delta_snapshot"): _delta_entries,
    ("monitor", "render_metrics"): _text_bytes,
}


def _all_metrics_materialized(qos, now):
    # The library yields lazily; materializing inside the span times the
    # QoS computation itself instead of the consumer's loop body.
    from repro.obs.qos import QoSHealth

    return iter(list(QoSHealth.all_metrics(qos, now)))


def _instrument(spans: SpanRecorder, owners: dict) -> None:
    grouped: dict = {}
    for label, owner, name in LAYER_METHODS:
        if owner in owners:
            impl = _all_metrics_materialized if name == "all_metrics" else None
            grouped.setdefault(owner, []).append(
                (label, name, COUNTS.get((owner, name)), impl)
            )
    for owner, methods in grouped.items():
        spans.instrument(owners[owner], methods)


async def serve(args) -> int:
    from repro.fdaas.service import FdaasServer
    from repro.fdaas.tenants import TenantRegistry
    from repro.live.monitor import LiveMonitor
    from repro.obs import Observability

    registry = TenantRegistry.load(args.tenants)
    spans = SpanRecorder() if args.trace else None
    obs = Observability()
    if spans is not None:
        # Before the monitor exists: it subscribes qos.on_event when built.
        _instrument(spans, {"tracer": obs.tracer, "qos": obs.qos})
    monitor = LiveMonitor(args.interval, ["2w-fd"], {"2w-fd": 0.3}, obs=obs)
    server = FdaasServer(monitor, registry, "127.0.0.1", 0, status_port=0)
    if spans is not None:
        # Before start(): the status endpoint binds its producers then.
        _instrument(spans, {
            "admission": server.admission,
            "monitor": monitor,
            "sla": server.sla,
            "broker": server.broker,
        })
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    probe = None
    async with server:
        if spans is not None:
            gc.callbacks.append(spans.gc_callback)
            probe = asyncio.create_task(spans.probe_loop())
        print(f"READY {server.address[1]} {server.status_address[1]}", flush=True)
        await stop.wait()
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
    if spans is not None:
        gc.callbacks.remove(spans.gc_callback)
        spans.save(args.trace)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", required=True, help="tenants config JSON")
    parser.add_argument("--interval", type=float, required=True, help="Δi [s]")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record spans and write them to PATH (.npz)")
    args = parser.parse_args(argv)
    return asyncio.run(serve(args))


if __name__ == "__main__":
    sys.exit(main())
