"""One benchmark round: a fresh interpreter that imports liejordan from the
checkout's src/, makes a workload's inputs, prints "ready", and then runs
and checks one pass of the workload's operations, one at a time.

Started by run.py, with PYTHONPATH set to the checkout's src/:

    python3 bench/worker.py <workload> <seed> <setup|run> <trace 0|1>

In run mode the last stdout line is one JSON object with the latencies
(wall, and scaled to the reference host speed; see speed.py), outcome
counts, peak RSS and (traced) spans and probes.
"""
from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent

import liejordan as lj  # noqa: E402  (import cost is part of set-up)

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import OFF, Tracer  # noqa: E402

MAX_REPORTED_FAILURES = 5


def main(argv) -> int:
    name, seed, mode, trace = argv
    if not Path(lj.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported liejordan from {lj.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name](workloads.load_golden(), ROOT)
    ops = wl.inputs(lj, random.Random(int(seed)))
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tr = Tracer() if trace == "1" else OFF
    probes = {}
    if tr.on:
        workloads.trace_inner_calls(tr)
        if hasattr(wl, "probes"):
            probes = wl.probes()
    latencies: list[int] = []
    meter = Speedometer()
    tally = {"ok": 0, "guard": 0, "input": 0, "crash": 0}
    defects = 0
    failures: list[str] = []
    for index, op in enumerate(ops):
        tr.op = index
        meter.before_op()
        with tr.span("op." + wl.kind(op)):
            t0 = perf_counter_ns()
            try:
                value, kind = wl.run(lj, op, tr), "ok"
            except lj.ResourceGuardError as exc:
                value, kind = str(exc), "guard"
            except ValueError as exc:
                value, kind = str(exc), "input"
            except Exception as exc:  # counted as a failed operation
                value, kind = repr(exc), "crash"
            latencies.append(perf_counter_ns() - t0)
        tally[kind] += 1
        verdict = wl.check(op, kind, value)
        if verdict == workloads.DEFECT:
            defects += 1
        elif verdict is not None:
            failures.append(verdict)

    who = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    print(json.dumps({
        "latencies_ns": latencies,
        "scaled_ns": meter.scaled(latencies),
        "slowness": meter.readings,
        "outcomes": tally,
        "defects": defects,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "spans": tr.spans if tr.on else [],
        "probes": probes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
