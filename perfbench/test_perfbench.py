"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

Builds the driver like run.py does, then runs short windows of the
workloads (a fraction of a host second each).
"""

import argparse
import copy
import functools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SHORT_S = 0.2


@functools.lru_cache(maxsize=None)
def driver():
    return run.build()


def fresh_raw(workload, seed, trace):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=SHORT_S,
                              trace=trace)
    return run.run_driver(driver(), args, None)


@functools.lru_cache(maxsize=None)
def cached_raw(workload, seed, trace):
    return fresh_raw(workload, seed, trace)


def raw(workload, seed, trace=0):
    return copy.deepcopy(cached_raw(workload, seed, trace))


def declared():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return bench


class MetricNames(unittest.TestCase):
    def test_printed_metrics_are_exactly_the_declared_ones(self):
        bench = declared()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                out = run.result(raw("cdna_rpc", 1, trace), trace)
                printed = {k: v["unit"] for k, v in out["metrics"].items()}
                want = {m["name"]: m["unit"] for m in bench[key]}
                self.assertEqual(printed, want)

    def test_workloads_agree_everywhere(self):
        names = [w["name"] for w in declared()["workloads"]]
        record = json.loads((HERE / "workloads.json").read_text())
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(names, [w["name"] for w in record["workloads"]])

    def test_command_prints_the_result_line_format(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cdna_rpc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertIs(line["correct"], True)
        self.assertIsInstance(line["attempted"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        for m in line["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertNotEqual(m["value"], 0)


class Gate(unittest.TestCase):
    def test_every_workload_passes(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.assertEqual(run.gate(raw(w, 1, trace)), [])

    def test_rejects_doctored_runs(self):
        def wire_below_goodput(r):
            t = r["window"]["total"]
            t["net.wire_payload_bytes"] = t["net.goodput_bytes"] - 1

        def dma_violation(r):
            report = json.loads(r["window"]["report"])
            report["dma_violations"] = 1
            r["window"]["report"] = json.dumps(report)

        def wire_above_line_rate(r):
            report = json.loads(r["window"]["report"])
            report["wire_mbps"] = r["window"]["line_mbps"] + 1
            r["window"]["report"] = json.dumps(report)

        def too_many_responses(r):
            t = r["window"]["total"]
            t["workload.rpc_responses"] = t["workload.rpc_requests"] + 1

        def traced_report_differs(r):
            r["identity_reports"][1] += " "

        for doctor in (wire_below_goodput, dma_violation,
                       wire_above_line_rate, too_many_responses,
                       traced_report_differs):
            with self.subTest(doctor=doctor.__name__):
                r = raw("cdna_rpc", 1)
                doctor(r)
                self.assertNotEqual(run.gate(r), [])
                out = run.result(r, 0)
                self.assertIs(out["correct"], False)
                self.assertEqual(out["failed"], out["attempted"])


class Determinism(unittest.TestCase):
    DETERMINISTIC = ("events_per_frame", "sim_goodput_mbps", "sim_lat_p50",
                     "sim_lat_p99", "sim_lat_p999")

    def test_same_seed_repeats_deterministic_metrics(self):
        a, b = raw("cdna_rpc", 1), fresh_raw("cdna_rpc", 1, 0)
        ma, mb = run.end_to_end(a), run.end_to_end(b)
        for name in self.DETERMINISTIC:
            self.assertEqual(ma[name], mb[name], name)
        self.assertEqual(a["window"]["report"], b["window"]["report"])
        self.assertEqual(a["window"]["delta"], b["window"]["delta"])

    def test_second_seed_changes_rpc_percentiles(self):
        one, two = raw("cdna_rpc", 1), raw("cdna_rpc", 2)
        self.assertNotEqual(one["window"]["latency_us"],
                            two["window"]["latency_us"])


if __name__ == "__main__":
    unittest.main()
