"""Loopback end-to-end benchmark of the fdaas failure-detection service.

The system under test (``perfbench/sut.py``: exactly what ``repro-fd live
monitor --tenants CFG --status-port 0`` builds) runs as one process on
127.0.0.1; the load generator (``perfbench/load.py``) sends signed beats
from one UDP socket on an open-loop schedule and, from this process,
holds one subscribe stream and one status reader.  Run from the
repository root::

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced then with the SUT's layer boundaries wrapped in
spans, and reports the per-layer metrics plus the tracing overhead.
Human-readable detail goes first: load validity, correctness checks,
context, and every end-to-end metric by name with its unit and sample
count.  The last stdout line is one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` carrying the bounded metrics of
``BENCHMARK.json``.  Any failed correctness check makes ``correct``
false.  A run whose generator fell behind its schedule is invalid: its
numbers are discarded and it is measured again while time allows, else
the benchmark exits 3 without a result.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import math
import os
import platform
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.analyze import layer_metrics, match_events, pct  # noqa: E402
from perfbench.load import STATUS_TIMEOUT, TENANT, LoadRun, udp_socket_stats  # noqa: E402
from perfbench.workloads import ALPHA, SLA_P_A, TICK, WORKLOADS, make_schedule  # noqa: E402

OUT = ROOT / ".perfbench_out"
#: SUT launches per untraced run; setup_s is their median.
SETUP_LAUNCHES = 5
#: The generator fell behind when the 99th percentile of beat lateness
#: (send minus due) passed LATE_P99_FRAC of Δi, or any beat was later
#: than LATE_MAX_S — near α, where the generator itself could cause a
#: false suspicion.  Such a run is invalid.
LATE_P99_FRAC = 0.1
LATE_MAX_S = 0.25
READY_TIMEOUT = 60.0
#: A phase whose generator fell behind (on a shared host: another
#: tenant's burst, not the SUT) is measured again from the same inputs,
#: up to PHASE_ATTEMPTS times while the whole run stays within
#: RUN_DEADLINE_S.
PHASE_ATTEMPTS = 3
RUN_DEADLINE_S = 165.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Emitted in the result line and bounded in BENCHMARK.json: the metrics
#: that do not move with the host's speed — SUT work counted in
#: instructions rather than CPU seconds, memory, delivery, and the
#: timer-dominated detection lag — plus set-up time.
END_TO_END = (
    ("setup_s", "s"),
    ("kinstr_per_beat", "kinstr"),
    ("rss_mb", "MiB"),
    ("delivered_frac", "ratio"),
    ("detect_lag_ms_p50", "ms"),
)
#: Printed with every run, by name with unit and sample count, but not
#: bounded: CPU seconds and the CPU-bound latencies scale with the speed
#: of a shared host, which was seen to drift by up to 2x between minutes
#: (see ``host_calib_us_p50`` in the load line).
ALSO_PRINTED = (
    ("cpu_us_per_beat", "us"),
    ("loss_frac", "ratio"),
    ("trust_ms_p50", "ms"),
    ("trust_ms_p99", "ms"),
    ("detect_lag_ms_p99", "ms"),
    ("delta_ms_p50", "ms"),
    ("delta_ms_p90", "ms"),
    ("scrape_ms_p50", "ms"),
    ("scrape_ms_p90", "ms"),
)

PER_LAYER = (
    ("loop.residual_frac", "ratio"),
    ("loop.lag_ms_p99", "ms"),
    ("gc.pause_ms_max", "ms"),
    ("gc.pause_ms_total", "ms"),
    ("udp.rxq_bytes_p99", "bytes"),
    ("udp.drops", "count"),
    ("admit.calls", "count"),
    ("admit.us_per_call", "us"),
    ("admit.busy_frac", "ratio"),
    ("ingest.calls", "count"),
    ("ingest.dgrams_per_call", "count"),
    ("ingest.us_per_dgram", "us"),
    ("ingest.busy_frac", "ratio"),
    ("tracer.records_per_dgram", "count"),
    ("tracer.busy_frac", "ratio"),
    ("qos.on_event_us", "us"),
    ("qos.all_metrics_ms", "ms"),
    ("poll.calls", "count"),
    ("poll.ms_p99", "ms"),
    ("poll.expired_per_call", "count"),
    ("poll.busy_frac", "ratio"),
    ("sla.calls", "count"),
    ("sla.ms_p50", "ms"),
    ("sla.ms_max", "ms"),
    ("sla.busy_frac", "ratio"),
    ("broker.events", "count"),
    ("broker.publish_us", "us"),
    ("broker.doc_us", "us"),
    ("broker.doc_useful_ratio", "ratio"),
    ("status.delta_server_ms", "ms"),
    ("status.delta_bytes", "bytes"),
    ("status.delta_entries", "count"),
    ("status.metrics_server_ms", "ms"),
    ("status.metrics_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- the SUT process ----------------------------------------------------
class InstructionCounter:
    """User-mode instructions retired by one process, from the CPU's
    hardware counter (``perf_event_open``; no tool needed).  Unlike CPU
    seconds the count does not depend on how fast a shared host runs."""

    _SYSCALL = {"x86_64": 298, "aarch64": 241}

    def __init__(self, pid: int):
        nr = self._SYSCALL.get(platform.machine())
        if nr is None:
            raise OSError(f"perf_event_open: unsupported machine {platform.machine()}")
        attr = bytearray(128)  # struct perf_event_attr
        # type PERF_TYPE_HARDWARE, size, config PERF_COUNT_HW_INSTRUCTIONS
        struct.pack_into("IIQ", attr, 0, 0, len(attr), 1)
        struct.pack_into("Q", attr, 40, (1 << 5) | (1 << 6))  # exclude kernel, hv
        libc = ctypes.CDLL(None, use_errno=True)
        fd = libc.syscall(
            ctypes.c_long(nr), (ctypes.c_char * len(attr)).from_buffer(attr),
            ctypes.c_long(pid), ctypes.c_long(-1), ctypes.c_long(-1),
            ctypes.c_ulong(0),
        )
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"perf_event_open: {os.strerror(err)}")
        self.fd = fd

    def read(self) -> int:
        return struct.unpack("Q", os.read(self.fd, 8))[0]

    def close(self) -> None:
        os.close(self.fd)


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Sut:
    """One SUT process: launched, timed to readiness, stopped."""

    def __init__(self, tenants: Path, interval: float, trace: Path | None,
                 log: Path):
        cmd = [sys.executable, str(ROOT / "perfbench" / "sut.py"),
               "--tenants", str(tenants), "--interval", str(interval)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = log
        with open(log, "w") as err:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True
            )
        line = self._ready_line()
        self.setup_s = time.monotonic() - t0
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            self.stop()
            fail(f"SUT did not start: {line!r}; log: {self._log_tail()}")
        self.udp_port, self.status_port = int(parts[1]), int(parts[2])

    def _ready_line(self) -> str:
        import selectors

        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(READY_TIMEOUT):
                return ""
            return self.proc.stdout.readline().strip()
        finally:
            sel.close()

    def _log_tail(self) -> str:
        try:
            return self.log.read_text()[-2000:]
        except OSError:
            return "<no log>"

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


# -- one measured phase -------------------------------------------------
async def drive(w, sched, seed: int, seconds: float, sut: Sut,
                measure_bytes: bool) -> dict:
    from repro.live.status import afetch_status

    run = LoadRun(w, sched, seed, seconds, sut.udp_port, sut.status_port,
                  measure_bytes=measure_bytes)
    counter = InstructionCounter(sut.proc.pid)
    try:
        await run.run(lambda: (cpu_seconds(sut.proc.pid), counter.read()))
    finally:
        counter.close()
    t_stop = run.t0 + sched.w1
    # Every pause was recovered before the window closed.  Stop listening
    # now: once the load stops every peer goes suspect and then breaches
    # its P_A floor in one SLA tick — an end-of-run burst, not traffic.
    await run.close_events()
    # Let every peer's final deadline pass so the state is quiescent.
    settle = 2 * w.t_d + 0.3
    await asyncio.sleep(max(0.0, t_stop + settle - time.monotonic()))
    closing = {"t_stop": t_stop}
    try:
        closing["summary"] = await afetch_status(
            "127.0.0.1", sut.status_port, summary=True, timeout=STATUS_TIMEOUT
        )
        closing["delta_ok"] = await run.request("delta", time.monotonic()) is not None
        closing["full"] = await afetch_status(
            "127.0.0.1", sut.status_port, timeout=STATUS_TIMEOUT
        )
        closing["metrics"] = await run.request("metrics", time.monotonic())
    except (OSError, asyncio.TimeoutError) as exc:
        run.status_errors.append(f"closing fetch: {exc!r}")
    stats = udp_socket_stats(sut.udp_port)
    closing["drops"] = stats[1] if stats is not None else None
    closing["rss_mb"] = peak_rss_mb(sut.proc.pid)
    closing["run"] = run
    return closing


def run_phase(w, seed: int, seconds: float, tenants: Path,
              traced: bool, measure_bytes: bool, launches: int) -> dict:
    setups = []
    for _ in range(launches - 1):
        sut = Sut(tenants, w.interval, None, OUT / f"sut-{w.name}.log")
        setups.append(sut.setup_s)
        sut.stop()
    trace_path = OUT / f"trace-{w.name}.npz" if traced else None
    if trace_path is not None and trace_path.exists():
        trace_path.unlink()
    sut = Sut(tenants, w.interval, trace_path, OUT / f"sut-{w.name}.log")
    setups.append(sut.setup_s)
    sched = make_schedule(w, seed, seconds)
    try:
        closing = asyncio.run(drive(w, sched, seed, seconds, sut, measure_bytes))
    finally:
        code = sut.stop()
    if code != 0:
        fail(f"SUT exited with {code}; log: {sut._log_tail()}")
    closing["sched"] = sched
    closing["setups"] = setups
    if trace_path is not None:
        import numpy as np

        with np.load(trace_path) as data:
            closing["trace"] = {k: data[k] for k in data.files}
    return closing


# -- verdicts and metrics -----------------------------------------------
def evaluate(w, phase: dict) -> dict:
    from repro.obs.metrics import parse_exposition

    run, sched = phase["run"], phase["sched"]
    full = phase.get("full") or {}
    received = full.get("peers", {})
    lossy = {
        i for i, n in enumerate(run.sent_per_peer)
        if received.get(f"{TENANT}/p{i:05d}", {}).get("n_datagrams", 0) < n
    }
    ev = match_events(w, sched, run.events, run.t0, phase["t_stop"], lossy)
    checks = {}
    summary = phase.get("summary") or {}
    counters = summary.get("monitor", {}).get("counters", {})
    accepted = counters.get("accepted")
    drops = phase["drops"]
    lost = run.sent_total - accepted if accepted is not None else run.sent_total
    checks["accepted == sent - kernel drops"] = (
        accepted is not None and drops is not None
        and accepted == run.sent_total - drops
    )
    admission = summary.get("admission", {})
    checks["admission rejects == 0"] = admission.get("n_rejected") == 0
    checks["subscribe stream dropped == 0"] = ev["id_gaps"] == 0
    checks["one suspect per pause"] = ev["missing_suspect"] == 0
    checks["one trust per resume"] = ev["missing_trust"] == 0
    checks["first contact trusts; no transition of an unpaused peer"] = (
        ev["spurious"] == 0 and ev["never_trusted"] == 0
    )
    replica = run.replica
    checks["delta replica deep-equals full snapshot"] = (
        bool(full) and phase.get("delta_ok", False)
        and replica.peers == full.get("peers")
        and all(
            replica.head.get(k) == full.get(k)
            for k in ("schema", "interval", "detectors", "n_malformed", "n_events")
        )
        and replica.head.get("monitor", {}).get("counters")
        == full.get("monitor", {}).get("counters")
    )
    text = phase.get("metrics")
    exposition_ok = False
    if text is not None and accepted is not None:
        fams = parse_exposition(text)
        samples = fams.get("repro_heartbeats_accepted_total", {}).get("samples", {})
        exposition_ok = list(samples.values()) == [float(accepted)]
    checks["metrics exposition matches accepted count"] = exposition_ok
    checks["status requests all answered"] = not run.status_errors

    w0, w1 = run.t0 + sched.w0, run.t0 + sched.w1
    window_reqs = [r for r in run.requests if w0 <= r[1] < w1]
    delta_lat = [(r[2] - r[1]) * 1e3 for r in window_reqs
                 if r[0] == "delta" and r[2] is not None]
    scrape_lat = [(r[2] - r[1]) * 1e3 for r in window_reqs
                  if r[0] == "metrics" and r[2] is not None]
    (t_a, (cpu_a, ins_a)), (t_b, (cpu_b, ins_b)) = run.marks
    cpu_s = cpu_b - cpu_a
    per_beat = max(1, run.sent_window)
    n_pauses = len(sched.pauses)
    # Operations are what the service is asked to do: detect each pause,
    # recover each resume, answer each status request.  A beat the kernel
    # dropped is an input lost on the way (the paper's model has message
    # loss); it is measured by delivered_frac, not counted as a failure.
    n_failed = (
        ev["missing_suspect"] + ev["missing_trust"] + ev["spurious"]
        + ev["never_trusted"] + len(run.status_errors)
    )
    late_p99 = pct(run.lateness, 99)
    late_max = max(run.lateness) if run.lateness else 0.0
    samples = {"detect_lag": ev["detect_lag"], "trust": ev["trust"],
               "delta": delta_lat, "metrics": scrape_lat}
    checks["every latency metric has samples"] = all(samples.values())
    return {
        "checks": checks,
        "attempted": 2 * n_pauses + len(run.requests),
        "failed": n_failed,
        "valid": late_p99 <= LATE_P99_FRAC * w.interval and late_max <= LATE_MAX_S,
        "e2e": {
            "setup_s": (statistics.median(phase["setups"]), len(phase["setups"])),
            "kinstr_per_beat": ((ins_b - ins_a) / per_beat / 1e3, run.sent_window),
            "cpu_us_per_beat": (cpu_s / per_beat * 1e6, run.sent_window),
            "rss_mb": (phase["rss_mb"], 1),
            "loss_frac": (lost / max(1, run.sent_total), run.sent_total),
            "delivered_frac": (1.0 - lost / max(1, run.sent_total), run.sent_total),
            "trust_ms_p50": (pct(ev["trust"], 50) * 1e3, len(ev["trust"])),
            "trust_ms_p99": (pct(ev["trust"], 99) * 1e3, len(ev["trust"])),
            "detect_lag_ms_p50": (pct(ev["detect_lag"], 50) * 1e3, len(ev["detect_lag"])),
            "detect_lag_ms_p99": (pct(ev["detect_lag"], 99) * 1e3, len(ev["detect_lag"])),
            "delta_ms_p50": (pct(delta_lat, 50), len(delta_lat)),
            "delta_ms_p90": (pct(delta_lat, 90), len(delta_lat)),
            "scrape_ms_p50": (pct(scrape_lat, 50), len(scrape_lat)),
            "scrape_ms_p90": (pct(scrape_lat, 90), len(scrape_lat)),
        },
        "extra": {
            "kernel_drops": drops,
            "beats_sent": run.sent_total,
            "beats_in_window": run.sent_window,
            "window_s": t_b - t_a,
            "sut_cpu_s": cpu_s,
            "sut_cpu_frac": cpu_s / (t_b - t_a),
            "generator_late_ms_p99": late_p99 * 1e3,
            "generator_late_ms_max": late_max * 1e3,
            "host_calib_us_p50": pct(run.speed, 50),
            "rxq_bytes_p99": pct(run.rxq, 99),
            "rxq_bytes_max": max(run.rxq) if run.rxq else 0.0,
            "pauses": n_pauses,
            "peers_with_loss": len(lossy),
            "loss_mistakes": ev["loss_mistakes"],
            "setup_launches_s": [round(x, 4) for x in phase["setups"]],
            "sla_events": ev["sla_events"],
            "events_received": len(run.events),
        },
        "window": (w0, w1, cpu_s),
    }


def context(w) -> dict:
    import numpy

    def sysctl(name):
        try:
            return int(Path("/proc/sys/net/core", name).read_text())
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "net.core.rmem_default": sysctl("rmem_default"),
        "transport": "UDP + TCP over the loopback interface (127.0.0.1)",
        "sut": {
            "server": "FdaasServer over LiveMonitor, library defaults",
            "detector": "2w-fd",
            "alpha_s": ALPHA,
            "interval_s": w.interval,
            "poll_tick_s": TICK,
            "tenant": {"id": TENANT, "hmac": "sha256, 32-byte key",
                       "sla": {"t_d": w.sla_t_d, "p_a": SLA_P_A}},
        },
        "workload": dict(w.params(), name=w.name, why=w.why),
    }


def write_tenants(w, key: bytes) -> Path:
    from repro.fdaas.tenants import SLATargets, Tenant, TenantRegistry

    registry = TenantRegistry()
    registry.register(
        Tenant(TENANT, key=key, sla=SLATargets(t_d=w.sla_t_d, p_a=SLA_P_A))
    )
    path = OUT / f"tenants-{w.name}.json"
    registry.save(path)
    return path


def report(rows, units) -> None:
    for name, unit in units:
        value, n = rows[name]
        print(f"    {name:26s} {value:14.4f} {unit:6s} n={n}")


def _terminated(signum, frame) -> None:
    # Unwind through every ``finally`` so the SUT and the beat sender are
    # stopped and reaped before this process exits.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("run from the repository root: src/repro is missing")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    tenants = write_tenants(w, make_schedule(w, args.seed, args.seconds).key)
    print(f"context: {json.dumps(context(w), sort_keys=True)}")

    if args.trace:
        # Untraced reference first, then the traced run of the same inputs.
        phases = [("untraced reference", False, 1), ("traced", True, 1)]
    else:
        phases = [("untraced", False, SETUP_LAUNCHES)]
    results = []
    t_start = time.monotonic()
    for i, (label, traced, launches) in enumerate(phases):
        for attempt in range(1, PHASE_ATTEMPTS + 1):
            t_phase = time.monotonic()
            phase = run_phase(w, args.seed, args.seconds, tenants, traced,
                              traced, launches)
            result = evaluate(w, phase)
            extra = result["extra"]
            print(f"{label} run: workload {w.name}  seed {args.seed}  "
                  f"window {extra['window_s']:.2f} s  attempt {attempt}")
            print("  load: " + json.dumps(
                {k: round(v, 4) if isinstance(v, float) else v
                 for k, v in extra.items()}, sort_keys=True))
            if result["valid"]:
                break
            print(f"perfbench: INVALID {label} run (attempt {attempt}): the "
                  f"generator fell behind its schedule (late p99 "
                  f"{extra['generator_late_ms_p99']:.2f} ms, max "
                  f"{extra['generator_late_ms_max']:.2f} ms); its numbers "
                  f"are discarded", file=sys.stderr)
            # Measure again only if this phase and the ones after it still
            # fit in the run's time limit.
            spent = time.monotonic() - t_phase
            needed = spent * (len(phases) - i)
            if time.monotonic() - t_start + needed > RUN_DEADLINE_S:
                break
        if not result["valid"]:
            return 3
        results.append(result)
        for name, ok in result["checks"].items():
            print(f"  check {'PASS' if ok else 'FAIL'}  {name}")
        print("  end-to-end:")
        report(result["e2e"], END_TO_END)
        print("  also measured (not bounded: tracks host speed):")
        report(result["e2e"], ALSO_PRINTED)
    correct = all(ok for r in results for ok in r["checks"].values())
    base = results[0]
    if args.trace:
        w0, w1, cpu_s = result["window"]
        layers, self_s = layer_metrics(
            phase["trace"], w0, w1, cpu_s, phase["run"].requests
        )
        layers["udp.rxq_bytes_p99"] = extra["rxq_bytes_p99"]
        layers["udp.drops"] = float(extra["kernel_drops"] or 0)
        ref = base["e2e"]["kinstr_per_beat"][0]
        layers["trace.overhead_frac"] = result["e2e"]["kinstr_per_beat"][0] / ref - 1.0
        print("per-layer (traced run):")
        for name, unit in PER_LAYER:
            print(f"  {name:28s} {layers[name]:14.4f} {unit}")
        print("self time over the window, share of SUT CPU:")
        for label, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {label:28s} {s / cpu_s:8.4f}")
        print(f"  {'(residual)':28s} {layers['loop.residual_frac']:8.4f}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["e2e"][name][0], "unit": unit}
                   for name, unit in END_TO_END}
    for metric in metrics.values():
        if math.isnan(metric["value"]):  # no samples: already a failed check
            metric["value"] = 0.0
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
