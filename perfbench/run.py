"""Wall-clock benchmark of the platform: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Every measurement happens in a fresh interpreter (``child.py``), so
set-up time includes ``import repro``.  With ``--trace 0`` the run
starts three processes one after another, each for a third of the time
and each on its own input seed derived from ``--seed``; the end-to-end
metrics combine them (``stats.end_to_end``).  Every wall time is scaled
to a reference host speed by a fixed probe each process times between
its steps, because a shared host drifts between fast and slow stretches;
a line above the result gives the times as measured.  With ``--trace 1``
it runs the first input seed twice for half the time each, untraced and
traced, and reports the per-layer metrics of the traced process plus
the tracing overhead: traced vs untraced ``ops_per_s`` over the
identical window.
A process never stops before its workload's deterministic window is
done.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; each metric carries its unit.
Exits non-zero, printing no result, when a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from stats import (MIN_BEYOND, REFERENCE_PROBE_MS, beyond, end_to_end,
                   host_speed, tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# The names of workloads.WORKLOADS, listed here so that this process
# never imports the platform.
WORKLOADS = ("ingest", "stream", "study", "api")
PROCESSES = 3               # untraced processes per run
RUN_BUDGET_S = 170.0        # all processes of one run end within this
# A fixed string-hash seed gives every process the same dict and set
# layout, which would otherwise differ per process and move sub-ms ops
# by several percent.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class ChildFailed(RuntimeError):
    pass


def _child(args, seed: int, seconds: float, *, trace: int = 0,
           spans: str = "") -> dict:
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        command += ["--spans", spans]
    command += ["--t0", repr(time.monotonic())]
    process = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=CHILD_ENV,
        timeout=max(1.0, args.deadline - time.monotonic()))
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{args.workload}: child exited "
                          f"{process.returncode} with no result")
    result = json.loads(lines[-1])
    if process.returncode != 0:
        raise ChildFailed(f"{args.workload}: child exited "
                          f"{process.returncode}: "
                          f"{result.get('problems', result)}")
    return result


def input_seed(seed: int, process: int) -> int:
    """The input seed of one process of a run: distinct across runs."""
    return seed * PROCESSES + process


def _units(section: str) -> dict:
    with open(SPEC) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def _report(processes, values: dict, section: str) -> dict:
    units = _units(section)
    missing = sorted(set(units) - set(values))
    if missing:
        raise ChildFailed(f"metrics not measured: {missing}")
    return {"correct": not any(p["problems"] for p in processes),
            "attempted": sum(p["attempted"] for p in processes),
            "failed": sum(p["failed"] for p in processes),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_untraced(args) -> dict:
    share = args.seconds / PROCESSES
    processes = [_child(args, input_seed(args.seed, k), share)
                 for k in range(PROCESSES)]
    _describe(args, processes)
    measured = end_to_end(processes, scaled=False)
    print("as measured, before scaling to the reference host: "
          + ", ".join(f"{name} {measured[name]:.6g}" for name in
                      ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")))
    return _report(processes, end_to_end(processes), "end_to_end")


def run_traced(args) -> dict:
    half = args.seconds / 2
    seed = input_seed(args.seed, 0)
    untraced = _child(args, seed, half)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out",
                         f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = _child(args, seed, half, trace=1, spans=spans)
    values = dict(traced["layers"])
    # Both processes run the same deterministic window first; compare
    # their rates over it, so the overhead is measured on equal work, and
    # scale each to the reference host as the end-to-end rates are.
    rates = [p["window"]["ops"] / (p["window"]["wall_ns"] / 1e9)
             * host_speed(p) for p in (untraced, traced)]
    values["trace.untraced_ops_per_s"], values["trace.ops_per_s"] = rates
    values["trace.overhead_pct"] = 100.0 * (rates[0] / rates[1] - 1.0)
    _describe(args, [traced])
    print(f"spans written to {os.path.relpath(spans, ROOT)}", file=sys.stderr)
    return _report([traced], values, "per_layer")


def _describe(args, processes) -> None:
    """What the JSON line cannot carry: sample counts and the tail rule."""
    independent = sum(p["independent"] for p in processes)
    pct = processes[0]["tail_pct"]
    reasons = {}
    for p in processes:
        for reason, count in p["fail_reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    setups = ", ".join(f"{p['setup_s']:.3f}" for p in processes)
    probes = ", ".join(f"{p['probe_ms']:.3f}" for p in processes)
    print(f"{args.workload} seed {args.seed}: "
          f"{sum(len(p['walls_ms']) for p in processes)} ops in "
          f"{', '.join(str(p['steps']) for p in processes)} steps; "
          f"{independent} independent completions, tail p{pct} leaves "
          f"{beyond(independent, pct)} beyond (rule picks "
          f"p{tail_percentile(independent)}); set-ups {setups} s; "
          f"host probe {probes} ms (reference {REFERENCE_PROBE_MS} ms); "
          f"failures {reasons or 'none'}")
    mix = {}
    for p in processes:
        for kind, count in p["op_mix"].items():
            mix[kind] = mix.get(kind, 0) + count
    if mix:
        total = sum(mix.values())
        print("op mix: " + ", ".join(f"{kind} {100 * count / total:.1f}%"
                                     for kind, count in sorted(mix.items())))
    if beyond(independent, pct) < MIN_BEYOND:
        print(f"warning: fewer than {MIN_BEYOND} completions beyond "
              f"p{pct}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the health cloud platform")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.deadline = time.monotonic() + RUN_BUDGET_S
    try:
        report = run_traced(args) if args.trace else run_untraced(args)
    except (ChildFailed, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
