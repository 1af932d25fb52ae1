"""One workload process: set-up, timed phase, correctness checks.

Started by ``run.py`` in a fresh interpreter, so set-up time includes
``import repro``.  ``--t0`` is the parent's ``time.monotonic()`` just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux,
so the two processes share it).  ``--seed`` here is the input seed of
this one process.  Prints one JSON object of raw measurements as its
last stdout line; exits non-zero when the platform cannot be imported or
a check fails.

The timed phase runs steps until ``--seconds`` of reference-host time
(below) have passed, but never fewer than the workload's ``window``
steps, and always a whole number of its ``cycle`` of steps.  Everything
that must repeat exactly for a seed (the simulated latencies and clock
advance, peak memory, and every per-layer count) is taken over those
first ``window`` steps, whose work does not depend on how fast the
program runs.

Every 50 ms, between steps, the process times a fixed host probe
(:func:`probe_ns`); its median, ``probe_ms``, tells how fast the host
ran while this process measured.  Probe time counts in neither the ops
nor the timed phase.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from stats import REFERENCE_PROBE_MS

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write traced spans here (JSONL)")
    return parser.parse_args(argv)


# The host probe: a fixed mix of the kinds of work the platform does
# (interpreted Python with dict updates, a 512-bit modular power as in
# an RSA-CRT half, sha256 and JSON encoding), about 1.3 ms.
PROBE_LOOP = 3000
PROBE_MODULUS = (1 << 511) | 0x5BD1E995
PROBE_BASE = 0x9E3779B97F4A7C15
PROBE_EXPONENT = (1 << 510) | 0x27D4EB2F
PROBE_PAYLOAD = bytes(range(256)) * 16
PROBE_DOC = {"resourceType": "Observation", "id": "obs-1",
             "code": {"text": "HbA1c"},
             "valueQuantity": {"value": 7.1, "unit": "%"}}
PROBE_EVERY_NS = 50_000_000     # probe after a step once this has passed


def probe_ns() -> int:
    """Wall time of one host probe."""
    start = time.perf_counter_ns()
    total = 0
    table = {}
    for i in range(PROBE_LOOP):
        total += i * i % 7
        table[i & 255] = total
    pow(PROBE_BASE, PROBE_EXPONENT, PROBE_MODULUS)
    hashlib.sha256(PROBE_PAYLOAD).digest()
    for _ in range(20):
        json.dumps(PROBE_DOC, sort_keys=True)
    return time.perf_counter_ns() - start


def _timed_phase(workload, seconds, tracer):
    """Steps until ``seconds`` of op time on the reference host have
    passed.  The host probes run between steps and their time counts in
    neither the ops nor the phase.  The phase lasts longer on a slower
    host, so how much state the ops build up (usage records in ``api``)
    depends on the program's speed, not the host's."""
    clock = workload.clock
    records = []
    probes = []
    window = None
    steps = 0
    begin = time.perf_counter_ns()
    budget_ns = seconds * 1e9
    next_probe = begin
    probed_ns = 0
    sim_begin = clock.now
    while (steps < workload.window or steps % workload.cycle
           or time.perf_counter_ns() - begin - probed_ns < budget_ns):
        if not workload.has_next():
            if steps < workload.window:
                raise RuntimeError(f"inputs ran out after {steps} steps")
            break
        if tracer is not None:
            tracer.op = steps
        records.extend(workload.step(steps))
        steps += 1
        if time.perf_counter_ns() >= next_probe:
            probes.append(probe_ns())
            probed_ns += probes[-1]
            next_probe = time.perf_counter_ns() + PROBE_EVERY_NS
            speed = statistics.median(probes) / 1e6 / REFERENCE_PROBE_MS
            budget_ns = seconds * 1e9 * speed
        if steps == workload.window:
            if tracer is not None:
                tracer.recording = False
            window = {
                "ops": len(records),
                "wall_ns": time.perf_counter_ns() - begin - probed_ns,
                "sim_ms": [s * 1e3 for s in workload.sim_latencies(records)],
                "sim_elapsed_s": clock.now - sim_begin,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "counts": workload.window_counts(),
            }
    elapsed_ns = time.perf_counter_ns() - begin - probed_ns
    return records, steps, elapsed_ns, window, probes


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the platform: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import_s = time.monotonic() - args.t0
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0

    gc.collect()
    records, steps, elapsed_ns, window, probes = _timed_phase(
        workload, args.seconds, tracer)
    if tracer is not None:
        tracer.restore()
    problems = workload.tally.problems() + workload.check()

    result = {
        "problems": problems,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "fail_reasons": workload.tally.reasons,
        "steps": steps,
        "independent": len({r.group for r in records}),
        "tail_pct": workload.tail_pct,
        "import_s": import_s,
        "setup_s": setup_s,
        "elapsed_s": elapsed_ns / 1e9,
        "probe_ms": statistics.median(probes) / 1e6,
        "walls_ms": [r.wall_ns / 1e6 for r in records],
        "op_mix": workload.op_mix(),
        "window": window,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(window["wall_ns"])
        layers.update(window["counts"])
        layers["setup.import_ms"] = import_s * 1e3
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
