"""Turn one run's raw observations into metrics and correctness verdicts."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from perfbench.workloads import ALPHA, Schedule, Workload


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); NaN when empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def match_events(w: Workload, sched: Schedule, events, t0: float,
                 t_stop: float, lossy=frozenset()) -> dict:
    """Pair the subscribe stream's transitions with the pause schedule.

    Every peer must show: its first-contact ``trust``; then for each
    pause one ``suspect`` and, after its resume beat, one ``trust``; and
    after the load stops at most one final ``suspect``.  Anything else is
    a transition of a peer that was not paused.

    A peer in ``lossy`` had beats dropped by the kernel; in the paper's
    model a lost heartbeat may legitimately cause a wrong suspicion, so
    its deviations are counted as ``loss_mistakes``, not failures.
    Returns the latency samples and the counts.
    """
    ids = [ev.get("id") for _, ev in events]
    gaps = sum(1 for a, b in zip(ids, ids[1:]) if b != a + 1)
    if ids and ids[0] != 1:
        gaps += 1
    per_peer: Dict[str, List] = {}
    n_sla = 0
    for t, ev in events:
        if ev.get("type") == "sla":
            n_sla += 1
        elif ev.get("type") == "transition" and ev.get("tenant") == "bench":
            per_peer.setdefault(ev["peer"], []).append((t, ev["kind"]))
    td = w.interval + ALPHA
    lag: List[float] = []
    trust: List[float] = []
    counts = {"missing_suspect": 0, "missing_trust": 0, "spurious": 0,
              "never_trusted": 0}
    loss_mistakes = 0
    for peer in range(w.peers):
        evs = per_peer.get(f"p{peer:05d}", [])
        found = dict.fromkeys(counts, 0)
        i = 0
        if evs and evs[0][1] == "trust":
            i = 1
        else:
            found["never_trusted"] += 1
        for pause in sched.by_peer[peer]:
            start, end = t0 + pause.start, t0 + pause.end
            # Transitions before this pause's suspect are false suspicions.
            while i < len(evs) and evs[i][0] < start:
                found["spurious"] += 1
                i += 1
            if (i < len(evs) and evs[i][1] == "suspect" and evs[i][0] < end + td
                    and pause.last_send is not None):
                lag.append(evs[i][0] - (pause.last_send + td))
                i += 1
            else:
                found["missing_suspect"] += 1
            if (i < len(evs) and evs[i][1] == "trust"
                    and pause.resume_send is not None
                    and evs[i][0] > pause.resume_send):
                trust.append(evs[i][0] - pause.resume_send)
                i += 1
            else:
                found["missing_trust"] += 1
        rest = evs[i:]
        if rest and rest[-1][1] == "suspect" and rest[-1][0] >= t_stop:
            rest = rest[:-1]  # the load stopped: every peer goes suspect
        found["spurious"] += len(rest)
        if peer in lossy:
            loss_mistakes += sum(found.values())
        else:
            for key, n in found.items():
                counts[key] += n
    return {
        "detect_lag": lag,
        "trust": trust,
        **counts,
        "loss_mistakes": loss_mistakes,
        "id_gaps": gaps,
        "sla_events": n_sla,
    }


def layer_metrics(trace, w0: float, w1: float, cpu_s: float,
                  requests: Sequence[tuple]) -> Tuple[dict, dict]:
    """Per-layer metrics from the SUT's spans over the window [w0, w1).

    A span's self time is its duration minus its children's.  Busy
    fractions are self time per window second; ``loop.residual_frac`` is
    the share of the SUT's CPU over the window spent outside every
    wrapped span.  Returns the metrics and each span label's total self
    time (seconds).
    """
    import numpy as np

    names = [str(n) for n in trace["names"]]
    nid, start, end = trace["name_id"], trace["start"], trace["end"]
    parent, items, extra = trace["parent"], trace["items"], trace["extra"]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    in_win = (start >= w0) & (end < w1)
    span = w1 - w0

    def sel(label):
        if label not in names:
            return np.zeros(len(dur), dtype=bool)
        return (nid == names.index(label)) & in_win

    def busy(label):
        return float(self_t[sel(label)].sum() / span)

    def mean(values, scale=1.0):
        return float(values.mean() * scale) if len(values) else 0.0

    out: Dict[str, float] = {}
    out["loop.residual_frac"] = 1.0 - float(self_t[in_win].sum()) / cpu_s
    due = trace["probe_due"]
    lag = trace["probe_lag"][(due >= w0) & (due < w1)]
    out["loop.lag_ms_p99"] = float(np.percentile(lag, 99) * 1e3) if len(lag) else 0.0
    gc_in = (trace["gc_start"] >= w0) & (trace["gc_start"] < w1)
    pauses = trace["gc_pause"][gc_in]
    out["gc.pause_ms_max"] = float(pauses.max() * 1e3) if len(pauses) else 0.0
    out["gc.pause_ms_total"] = float(pauses.sum() * 1e3)

    admit = sel("admit")
    out["admit.calls"] = float(admit.sum())
    out["admit.us_per_call"] = mean(self_t[admit], 1e6)
    out["admit.busy_frac"] = busy("admit")

    ingest = sel("ingest")
    dgrams = float(items[ingest].sum())
    out["ingest.calls"] = float(ingest.sum())
    out["ingest.dgrams_per_call"] = dgrams / max(1.0, out["ingest.calls"])
    out["ingest.us_per_dgram"] = float(self_t[ingest].sum()) * 1e6 / max(1.0, dgrams)
    out["ingest.busy_frac"] = busy("ingest")

    out["tracer.records_per_dgram"] = float(sel("tracer").sum()) / max(1.0, dgrams)
    out["tracer.busy_frac"] = busy("tracer")
    out["qos.on_event_us"] = mean(self_t[sel("qos.on_event")], 1e6)
    out["qos.all_metrics_ms"] = mean(dur[sel("qos.all_metrics")], 1e3)

    poll = sel("poll")
    out["poll.calls"] = float(poll.sum())
    out["poll.ms_p99"] = (
        float(np.percentile(dur[poll], 99) * 1e3) if poll.any() else 0.0
    )
    out["poll.expired_per_call"] = mean(items[poll])
    out["poll.busy_frac"] = busy("poll")

    sla = sel("sla")
    out["sla.calls"] = float(sla.sum())
    out["sla.ms_p50"] = float(np.percentile(dur[sla], 50) * 1e3) if sla.any() else 0.0
    out["sla.ms_max"] = float(dur[sla].max() * 1e3) if sla.any() else 0.0
    out["sla.busy_frac"] = busy("sla")

    pub = sel("broker.publish")
    doc = sel("broker.document")
    out["broker.events"] = float(pub.sum())
    out["broker.publish_us"] = mean(self_t[pub], 1e6)
    out["broker.doc_us"] = mean(self_t[doc], 1e6)
    out["broker.doc_useful_ratio"] = float(items[doc].sum()) / max(1.0, float(extra[doc].sum()))

    delta = sel("status.delta")
    metrics = sel("status.metrics")
    out["status.delta_server_ms"] = mean(dur[delta], 1e3)
    out["status.delta_entries"] = mean(items[delta])
    delta_bytes = [r[4] for r in requests
                   if r[0] == "delta" and r[2] is not None and w0 <= r[1] < w1]
    out["status.delta_bytes"] = (
        float(sum(delta_bytes)) / len(delta_bytes) if delta_bytes else 0.0
    )
    out["status.metrics_server_ms"] = mean(dur[metrics], 1e3)
    out["status.metrics_bytes"] = mean(items[metrics])
    return out, {label: float(self_t[sel(label)].sum()) for label in names}
