#!/usr/bin/env python3
"""Pin every deterministic output of the simulator to a SHA-256 manifest.

The manifest (tests/golden/outputs.sha256) holds one line per run:

  * every run (cell, seed) of every `cdna_sweep` preset, hashed from the
    run's entry in the sweep JSON document, as printed;
  * the `cdna_sim` fault matrix: 2-guest tx and rx cells of five I/O
    architectures under wire, firmware, guest and driver-domain faults,
    one line for the `--json` report and one for the `--stats-json` dump
    (less the line of the kernel's own `sim.pending_events` gauge).

Hashes cover the raw text, so reordered or duplicated keys move them;
documents are parsed only for run ids and key numbers, and a duplicate
key in any object is an error.

Each line reads `<sha256>  <run id>  <key numbers>`; the key numbers make
a mismatch readable without rerunning anything.

  outputs_manifest.py check --sweep BIN --sim BIN   # exit 1 on any mismatch
  outputs_manifest.py bless --sweep BIN --sim BIN   # rewrite the manifest

Re-blessing is for changes that are meant to move outputs; CHANGES.md
must then explain every moved run.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "tests", "golden", "outputs.sha256")

# Report keys printed beside each hash.
KEYS = ("mbps", "hyp_pct", "dma_violations", "frames_dropped",
        "tcp_retrans_segs")

FAULTS = ["--guests", "2", "--transport", "tcp", "--seconds", "0.2",
          "--drop-rate", "0.01", "--corrupt-rate", "0.01",
          "--dup-rate", "0.01", "--firmware-stall", "0@120:5",
          "--kill-driver-domain", "130", "--reboot-firmware", "1@140"]
ARCHS = {
    "native": ["--mode", "native"],
    "xen-intel": ["--mode", "xen", "--nic", "intel", "--kill-guest", "1@150"],
    "xen-rice": ["--mode", "xen", "--nic", "rice", "--kill-guest", "1@150"],
    "cdna": ["--mode", "cdna", "--kill-guest", "1@150"],
    "swpt": ["--mode", "swpt", "--kill-guest", "1@150"],
}

# Concurrent runs: each is one single-threaded simulator process.
JOBS = min(4, os.cpu_count() or 1)

# The longest presets start first so the worker pool's tail stays short.
SLOW_FIRST = ("tcp-loss", "availability", "fig3", "swpt", "fig4",
              "protection")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate JSON keys in {keys}")
    return dict(pairs)


def parse(text):
    return json.loads(text, object_pairs_hook=unique_keys)


def key_numbers(report):
    return " ".join(f"{k}={report[k]}" for k in KEYS if k in report)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def preset_lines(sweep, preset, tmp):
    out = os.path.join(tmp, preset + ".json")
    run([sweep, "--preset", preset, "-j", "1", "--quiet", "--out", out])
    with open(out) as f:
        text = f.read()
    doc = parse(text)
    # sim/sweep.cc prints each run as "    {" ... "    }," at indent 4.
    body = text.partition('  "runs": [\n')[2].partition("\n  ],\n")[0]
    blocks = body.removesuffix("\n    }").split("\n    },\n")
    if len(blocks) != len(doc["runs"]):
        raise RuntimeError(f"{preset}: {len(doc['runs'])} runs, "
                           f"{len(blocks)} printed run blocks")
    return [(f"{preset}|{r['cell']}|{r['seed']}", digest(block),
             key_numbers(r["report"]))
            for r, block in zip(doc["runs"], blocks)]


def sim_lines(sim, arch, direction, tmp):
    cell = f"{arch}/{direction}"
    stats = os.path.join(tmp, f"{arch}-{direction}.stats.json")
    out = run([sim, *ARCHS[arch], *FAULTS, "--direction", direction,
               "--json", "--stats-json", stats])
    report = parse(out)
    with open(stats) as f:
        text = f.read()
    dump = parse(text)
    # The event queue's own depth gauge measures the simulation kernel,
    # not the simulated system; kernel optimisations move it by design.
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith('"sim.pending_events":'))
    return [(f"cdna_sim|{cell}|report", digest(out), key_numbers(report)),
            (f"cdna_sim|{cell}|stats", digest(text),
             f"components={len(dump['components'])} time_ps={dump['time_ps']}")]


def generate(sweep, sim):
    presets = [line.split()[0]
               for line in run([sweep, "--list"]).splitlines() if line.strip()]
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        sweeps = {p: pool.submit(preset_lines, sweep, p, tmp)
                  for p in sorted(presets, key=lambda p: p not in SLOW_FIRST)}
        sims = [pool.submit(sim_lines, sim, a, d, tmp)
                for a in ARCHS for d in ("tx", "rx")]
        futures = [sweeps[p] for p in presets] + sims
        return [line for f in futures for line in f.result()]


def read_manifest():
    entries = {}
    with open(MANIFEST) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            sha, run_id, numbers = (line.rstrip("\n").split("  ", 2) + [""])[:3]
            entries[run_id] = (sha, numbers)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("check", "bless"))
    ap.add_argument("--sweep", required=True, help="cdna_sweep binary")
    ap.add_argument("--sim", required=True, help="cdna_sim binary")
    args = ap.parse_args()

    lines = generate(args.sweep, args.sim)
    if args.mode == "bless":
        with open(MANIFEST, "w") as f:
            f.write("# sha256  preset|cell|seed or cdna_sim|cell|output"
                    "  key numbers (tools/outputs_manifest.py)\n")
            for run_id, sha, numbers in lines:
                f.write(f"{sha}  {run_id}  {numbers}\n")
        print(f"blessed {len(lines)} runs into {os.path.normpath(MANIFEST)}")
        return 0

    pinned = read_manifest()
    fresh = {run_id: (sha, numbers) for run_id, sha, numbers in lines}
    bad = 0
    for run_id, (sha, numbers) in fresh.items():
        if run_id not in pinned:
            print(f"NEW      {run_id}\n  now:      {numbers}")
            bad += 1
        elif pinned[run_id][0] != sha:
            print(f"MISMATCH {run_id}\n  manifest: {pinned[run_id][1]}\n"
                  f"  now:      {numbers}")
            bad += 1
    for run_id, (_, numbers) in pinned.items():
        if run_id not in fresh:
            print(f"MISSING  {run_id}\n  manifest: {numbers}")
            bad += 1
    print(f"{len(pinned)} pinned runs, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
