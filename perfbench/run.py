#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CDNA simulator.

    python3 perfbench/run.py --workload cdna_tx_bulk --seed 1 --seconds 10 --trace 0

Builds the C++ driver (perfbench.cc) from the checkout's sources into
.bench_build/perfbench, runs one workload, derives the metrics declared
in BENCHMARK.json from the driver's raw measurements, checks the run's
correctness gate, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
and writes host-time spans as a Chrome trace to
.bench_build/traces/<workload>-seed<seed>.trace.json.  A run whose gate
fails reports correct=false and counts all its frames as failed.  Build
and run errors exit non-zero without printing a result.

The workloads and why each was chosen are recorded in workloads.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
DRIVER_TIMEOUT_S = 170

WORKLOADS = ("cdna_tx_bulk", "xen_tcp_incast", "cdna_rpc", "swpt_tcp_tx")

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "host_s_per_sim_s": "s/s",
    "host_s_per_sim_s_p95": "s/s",
    "events_per_frame": "events/frame",
    "peak_rss_mb": "MB",
    "sim_goodput_mbps": "Mb/s",
    "sim_lat_p50": "sim_us",
    "sim_lat_p99": "sim_us",
    "sim_lat_p999": "sim_us",
    "setup_s": "s",
}

PER_LAYER = {
    "sim.events_per_sim_s": "1/s",
    "sim.host_ns_per_event": "ns",
    "sim.pending_events_p50": "count",
    "sim.pending_events_max": "count",
    "sim.queue_ns_per_event": "ns",
    "sim.slices": "count",
    "sim.est_host_share_pct": "%",
    "mem.pci_transfers_per_frame": "1/frame",
    "mem.pci_ns_per_transfer": "ns",
    "mem.dma_ops_per_frame": "1/frame",
    "mem.grant_ops_per_frame": "1/frame",
    "mem.est_host_share_pct": "%",
    "nic.descriptors_per_frame": "1/frame",
    "nic.firmware_tasks_per_frame": "1/frame",
    "nic.phys_irqs_per_frame": "1/frame",
    "nic.mailbox_ns_per_event": "ns",
    "nic.est_host_share_pct": "%",
    "core.protection_enqueues_per_frame": "1/frame",
    "core.pages_pinned_per_frame": "1/frame",
    "core.mailbox_events_per_frame": "1/frame",
    "core.dma_violations": "count",
    "vmm.hypercalls_per_frame": "1/frame",
    "vmm.virt_irqs_per_frame": "1/frame",
    "vmm.domain_switches_per_frame": "1/frame",
    "vmm.swpt_doorbell_traps_per_frame": "1/frame",
    "vmm.swpt_desc_validated_per_frame": "1/frame",
    "vmm.swpt_validation_us_per_sim_s": "sim_us/sim_s",
    "os.bridge_packets_per_frame": "1/frame",
    "os.tx_backlog_peak": "count",
    "net.switch_drop_pct": "%",
    "net.switch_queue_peak_bytes": "bytes",
    "net.switch_ns_per_frame": "ns",
    "net.tcp_retx_pct": "%",
    "net.tcp_rto_per_sim_s": "1/s",
    "net.tcp_dup_acks_per_sim_s": "1/s",
    "net.goodput_over_wire": "ratio",
    "net.est_host_share_pct": "%",
    "cpu.hyp_pct": "%",
    "cpu.drv_pct": "%",
    "cpu.guest_pct": "%",
    "cpu.idle_pct": "%",
    "workload.rpc_achieved_over_offered": "ratio",
    "workload.rpc_timeout_pct": "%",
    "workload.flows_completed_per_sim_s": "1/s",
    "setup.construct_s": "s",
    "setup.start_s": "s",
    "report.end_measurement_ms": "ms",
    "trace.overhead_pct": "%",
    "host.raw_s_per_sim_s": "s/s",
    "host.ref_kernel_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    exe = BUILD_DIR / "perfbench"
    if not exe.exists():
        raise BenchError(f"build produced no {exe}")
    return exe


def run_build_step(cmd):
    # Build output goes to stderr: stdout carries only the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_driver(exe, args, trace_out):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out after {DRIVER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


# -------------------------------------------------------------- metrics --

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def frames(window):
    """Wire frames across the measured host's NIC ports, both ways.

    Every frame handed to a link or switch port, less the frames a
    switch tail-dropped before they reached an endpoint.  Each workload
    has one measured host and every frame starts or ends at one of its
    NICs, so this counts exactly the host's NIC-port frames.
    """
    d = window["delta"]
    return d.get("net.wire_frames", 0) - d.get("net.switch_drops", 0)


def window_sim_s(window):
    return window["slice_sim_s"] * len(window["slice_host_s"])


def normalized(host_s, ref_s, nominal_s):
    """Host seconds rescaled to the reference machine, one per sample.

    ref_s holds a reference-kernel time before the first sample and after
    each one.  Each sample is divided by the mean of the two reference
    times around it and multiplied by the kernel's nominal time, which
    cancels the host's throughput drift on a shared machine.
    """
    if len(ref_s) != len(host_s) + 1:
        raise BenchError("reference times do not bracket every sample")
    return [h / ((ref_s[i] + ref_s[i + 1]) / 2.0) * nominal_s
            for i, h in enumerate(host_s)]


def slice_rates(raw, window):
    """Normalized host seconds per simulated second, one per slice."""
    host = normalized(window["slice_host_s"], window["ref_s"],
                      raw["ref_nominal_s"])
    return [h / window["slice_sim_s"] for h in host]


def end_to_end(raw):
    w = raw["window"]
    report = json.loads(w["report"])
    rates = slice_rates(raw, w)
    setups = normalized(raw["setup_s"], raw["setup_ref_s"],
                        raw["ref_nominal_s"])
    p50, p99, p999 = w["latency_us"]
    return {
        "host_s_per_sim_s": statistics.median(rates),
        "host_s_per_sim_s_p95": percentile(rates, 95),
        "events_per_frame": w["events"] / frames(w),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_goodput_mbps": report["mbps"],
        "sim_lat_p50": p50,
        "sim_lat_p99": p99,
        "sim_lat_p999": p999,
        "setup_s": statistics.median(setups),
    }


def per_layer(raw):
    w = raw["window"]
    report = json.loads(w["report"])
    d = w["delta"]
    timed = raw["timed"]
    n_frames = frames(w)
    secs = window_sim_s(w)
    host_ns_per_frame = w["measure_host_s"] * 1e9 / n_frames

    def per_frame(key):
        return d.get(key, 0) / n_frames

    def share(ops_per_frame, ns_per_op):
        return 100.0 * ops_per_frame * ns_per_op / host_ns_per_frame

    def ratio(num, den):
        return num / den if den else 0.0

    tcp_sent = d.get("net.tcp_segs_sent", 0)
    requests = d.get("workload.rpc_requests", 0)
    switch_in = d.get("net.switch_frames_in", 0)
    m = {
        "sim.events_per_sim_s": w["events"] / secs,
        "sim.host_ns_per_event": w["measure_host_s"] * 1e9 / w["events"],
        "sim.pending_events_p50": statistics.median(w["pending"]),
        "sim.pending_events_max": max(w["pending"]),
        "sim.queue_ns_per_event": timed["queue_ns_per_event"],
        "sim.slices": len(w["slice_host_s"]),
        "sim.est_host_share_pct": share(w["events"] / n_frames,
                                        timed["queue_ns_per_event"]),
        "mem.pci_transfers_per_frame": per_frame("mem.pci_transfers"),
        "mem.pci_ns_per_transfer": timed["pci_ns_per_transfer"],
        "mem.dma_ops_per_frame": per_frame("mem.dma_ops"),
        "mem.grant_ops_per_frame": per_frame("mem.grant_ops"),
        "mem.est_host_share_pct": share(per_frame("mem.pci_transfers"),
                                        timed["pci_ns_per_transfer"]),
        "nic.descriptors_per_frame": per_frame("nic.descriptors"),
        "nic.firmware_tasks_per_frame": per_frame("nic.firmware_tasks"),
        "nic.phys_irqs_per_frame": per_frame("nic.phys_irqs"),
        "nic.mailbox_ns_per_event": timed["mailbox_ns_per_event"],
        "nic.est_host_share_pct": share(per_frame("core.mailbox_events"),
                                        timed["mailbox_ns_per_event"]),
        "core.protection_enqueues_per_frame":
            per_frame("core.protection_enqueues"),
        "core.pages_pinned_per_frame": per_frame("core.pages_pinned"),
        "core.mailbox_events_per_frame": per_frame("core.mailbox_events"),
        "core.dma_violations": d.get("core.dma_violations", 0),
        "vmm.hypercalls_per_frame": per_frame("vmm.hypercalls"),
        "vmm.virt_irqs_per_frame": per_frame("vmm.virt_irqs"),
        "vmm.domain_switches_per_frame": per_frame("vmm.domain_switches"),
        "vmm.swpt_doorbell_traps_per_frame":
            per_frame("vmm.swpt_doorbell_traps"),
        "vmm.swpt_desc_validated_per_frame":
            per_frame("vmm.swpt_desc_validated"),
        "vmm.swpt_validation_us_per_sim_s":
            report["swpt_validation_us"] / secs,
        "os.bridge_packets_per_frame": per_frame("os.bridge_packets"),
        "os.tx_backlog_peak": report["tx_backlog_peak"],
        "net.switch_drop_pct":
            100.0 * ratio(d.get("net.switch_drops", 0), switch_in),
        "net.switch_queue_peak_bytes": report["switch_queue_peak_bytes"],
        "net.switch_ns_per_frame": timed["switch_ns_per_frame"],
        "net.tcp_retx_pct":
            100.0 * ratio(d.get("net.tcp_segs_retransmitted", 0), tcp_sent),
        "net.tcp_rto_per_sim_s": d.get("net.tcp_rto_events", 0) / secs,
        "net.tcp_dup_acks_per_sim_s": d.get("net.tcp_dup_acks", 0) / secs,
        "net.goodput_over_wire": ratio(report["mbps"], report["wire_mbps"]),
        "net.est_host_share_pct": share(switch_in / n_frames,
                                        timed["switch_ns_per_frame"]),
        "cpu.hyp_pct": report["hyp_pct"],
        "cpu.drv_pct": report["drv_os_pct"] + report["drv_user_pct"],
        "cpu.guest_pct": report["guest_os_pct"] + report["guest_user_pct"],
        "cpu.idle_pct": report["idle_pct"],
        "workload.rpc_achieved_over_offered":
            ratio(report["rpc_achieved_rps"], report["rpc_offered_rps"]),
        "workload.rpc_timeout_pct":
            100.0 * ratio(d.get("workload.rpc_timeouts", 0), requests),
        "workload.flows_completed_per_sim_s":
            d.get("workload.flows_completed", 0) / secs,
        "setup.construct_s": statistics.median(raw["construct_s"]),
        "setup.start_s": statistics.median(raw["start_s"]),
        "report.end_measurement_ms": w["end_measurement_s"] * 1e3,
        "trace.overhead_pct": 100.0 * (
            statistics.median(slice_rates(raw, raw["traced_window"]))
            / statistics.median(slice_rates(raw, w)) - 1.0),
        "host.raw_s_per_sim_s": statistics.median(
            [h / w["slice_sim_s"] for h in w["slice_host_s"]]),
        "host.ref_kernel_ms": statistics.median(w["ref_s"]) * 1e3,
    }
    return m


# ----------------------------------------------------------------- gate --

def gate(raw):
    """Correctness checks of one run; returns the list of failures.

    Goodput and RPC balances use lifetime totals: a window can count
    bytes or responses whose wire crossing or request fell before it.
    """
    failures = []
    windows = [("window", raw["window"])]
    if "traced_window" in raw:
        windows.append(("traced_window", raw["traced_window"]))
    for name, w in windows:
        r = json.loads(w["report"])
        t = w["total"]
        if r["dma_violations"] or t.get("core.dma_violations", 0):
            failures.append(f"{name}: DMA violations")
        if r["protection_faults"] or t.get("vmm.protection_faults", 0):
            failures.append(f"{name}: protection faults")
        goodput = t.get("net.goodput_bytes", 0)
        wire = t.get("net.wire_payload_bytes", 0)
        if goodput > wire:
            failures.append(f"{name}: goodput {goodput} B > wire {wire} B")
        if r["wire_mbps"] > w["line_mbps"]:
            failures.append(f"{name}: wire {r['wire_mbps']} Mb/s > line "
                            f"rate {w['line_mbps']} Mb/s")
        answered = t.get("workload.rpc_responses", 0) + \
            t.get("workload.rpc_timeouts", 0)
        if answered > t.get("workload.rpc_requests", 0):
            failures.append(f"{name}: RPC responses + timeouts > requests")
        if w["events"] <= 0 or frames(w) <= 0:
            failures.append(f"{name}: no events or no wire frames")
    if "traced_window" in raw:
        pair = (raw["window"]["report"], raw["traced_window"]["report"])
    else:
        pair = tuple(raw["identity_reports"])
    if pair[0] != pair[1]:
        failures.append("traced report differs from the untraced report")
    return failures


def result(raw, trace):
    """The result object for a driver output."""
    failures = gate(raw)
    values = per_layer(raw) if trace else end_to_end(raw)
    units = PER_LAYER if trace else END_TO_END
    for name, v in values.items():
        if not math.isfinite(v):
            failures.append(f"metric {name} is not finite")
    for f in failures:
        log(f"GATE FAILED: {f}")
    attempted = int(frames(raw["window"]))
    correct = not failures
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0 if correct else max(attempted, 1),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        ap.error("--seconds must be 1..600 and --seed non-negative")
    try:
        exe = build()
        trace_out = None
        if args.trace:
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            trace_out = TRACE_DIR / \
                f"{args.workload}-seed{args.seed}.trace.json"
        raw = run_driver(exe, args, trace_out)
        out = result(raw, args.trace)
    except (BenchError, KeyError, ValueError, ZeroDivisionError) as e:
        log(f"error: {e!r}")
        return 1
    if args.trace:
        for name, s in raw["span_self"].items():
            log(f"span {name}: {s['count']} x, self {s['self_s']:.6f} s")
        log(f"spans written to {trace_out}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
