"""liejordan benchmark: one workload per call, untraced (end-to-end metrics)
or traced (per-layer metrics).

    python3 bench/run.py --workload point-queries --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of a liejordan checkout; the program is imported from its
src/.  Every operation runs in worker processes (bench/worker.py), one at a
time: a sequential closed loop with no threads.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment, sample counts, refusals and known defects.  Times
are scaled to a reference host speed (speed.py).  See bench/README.md for
the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import slowness  # noqa: E402
from tracing import duration_ns, summarize  # noqa: E402
from workloads import TRACED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
SETUP_PROBES = 5
P90_TAIL = 10  # samples that must lie beyond the 90th percentile
LOAD = ("one sequential closed-loop process at a time, no threads; "
        "cli latencies include interpreter start")
# Per-layer metrics computed by subtracting other timings (here: self time,
# a span's duration minus its child spans).
DERIVED = ("minfaithful.dp_ms", "finitegroup.scan_ms")


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "load": LOAD}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for knob in ("LIEJORDAN_MAX_RANK", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(knob, None)
    return env


def spawn(workload: str, seed: int, mode: str, trace: int = 0):
    """Start a worker; return ((set-up seconds, host slowness), result dict
    or None).

    Set-up is the wall time from starting the process until it reports that
    liejordan is imported and the inputs are made.  The host's slowness is
    measured just before the start, to scale it by.
    """
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(trace)]
    slow = slowness()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} worker exited with code {code}")
    return (setup, slow), (json.loads(rest.splitlines()[-1]) if mode == "run" else None)


def run_untraced(name: str, seed: int, seconds: float):
    """Rounds of one pass each, every round a fresh worker process, until the
    next round would end past `seconds`, and at least the workload's minimum,
    which leaves P90_TAIL samples beyond the 90th percentile."""
    wl = WORKLOADS[name]
    setups = [spawn(name, seed, "setup")[0] for _ in range(SETUP_PROBES)]
    results = []
    start = perf_counter()
    while True:
        setup, result = spawn(name, seed, "run")
        setups.append(setup)
        results.append(result)
        elapsed = perf_counter() - start
        n = len(results)
        if n >= wl.min_rounds and elapsed * (n + 1) / n > seconds:
            break

    scaled = latency_metrics(name, [ns for r in results for ns in r["scaled_ns"]])
    wall = latency_metrics(name, [ns for r in results for ns in r["latencies_ns"]])
    metrics = {
        **scaled,
        "setup_s": statistics.median(t / slow for t, slow in setups),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
    }
    info = {
        "workload": name, "seed": seed, "trace": 0, "env": environment(),
        "samples": sum(len(r["latencies_ns"]) for r in results),
        "rounds": len(results), "setup_samples": len(setups),
        "unscaled_wall": {**wall, "setup_s": statistics.median(t for t, _ in setups)},
        "host_slowness": _spread([x for r in results for x in r["slowness"]]),
        "outcomes": _sum_outcomes(results),
        "expected_refusals": wl.refusals,
        "known_defects": sum(r["defects"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:5],
    }
    return info, results, _with_units(metrics)


def latency_metrics(name: str, times_ns: list) -> dict:
    """Throughput and latency percentiles of one workload's operation times."""
    lat_ms = sorted(ns / 1e6 for ns in times_ns)
    n = len(lat_ms)
    k90 = math.ceil(0.9 * n)
    if n - k90 < P90_TAIL:
        raise BenchError(f"{name}: {n} samples leave fewer than {P90_TAIL} beyond p90")
    return {"ops_per_s": n / (sum(lat_ms) / 1000),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": lat_ms[k90 - 1]}


def _spread(values: list) -> dict | None:
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def _sum_outcomes(results) -> dict:
    total: dict[str, int] = {}
    for r in results:
        for k, v in r["outcomes"].items():
            total[k] = total.get(k, 0) + v
    return total


def _ms(spans, name) -> float:
    return sum(duration_ns(s) for s in spans if s[3] == name) / 1e6


def _self_ms(spans, name) -> float:
    """Total self time: the spans' durations minus their direct children's."""
    ids = {s[1] for s in spans if s[3] == name}
    children = sum(duration_ns(s) for s in spans if s[2] in ids)
    return _ms(spans, name) - children / 1e6


def _count(spans, key) -> int:
    return sum(s[6].get(key, 0) for s in spans)


def per_layer(spans: dict, probes: dict, defects: int) -> dict:
    """Per-layer metrics from one traced pass of every workload.

    Times are totals over the pass of the workload that exercises the layer,
    except cli.interpreter_ms and cli.import_ms, medians per fresh process.
    Counts are exact totals over the same pass.
    """
    lie, pq = spans["lie-search"], spans["point-queries"]
    fj, cli = spans["finite-jordan"], spans["cli"]
    return _with_units({
        "rootdata.build_root_datum_ms": _ms(lie, "rootdata.build_root_datum"),
        "rootdata.enumerate_ms": _ms(lie, "rootdata.enumerate_dominant_weights"),
        "rootdata.candidates": _count(lie, "rootdata.candidates"),
        "rootdata.coroots": _count(lie, "rootdata.coroots"),
        "rootdata.weyl_dim_us": _ms(pq, "rootdata.weyl_dim") * 1000,
        "center.center_classes_ms": _ms(pq, "center.center_classes"),
        "center.is_faithful_ms": _ms(pq, "center.is_faithful"),
        "center.classes": _count(pq, "center.classes"),
        "minfaithful.rdim_ms": _ms(lie, "minfaithful.rdim"),
        "minfaithful.dp_ms": _self_ms(lie, "minfaithful.rdim"),
        "minfaithful.dp_states": sum(2 ** s[6].get("center.classes", 0) for s in lie
                                     if s[3] == "center.center_classes"),
        "bounds.formula_us": _ms(pq, "bounds.formula") * 1000,
        "bounds.render_us": _ms(pq, "bounds.render") * 1000,
        "bounds.digits": _count(pq, "bounds.digits"),
        "bounds.digit_limit_defects": defects,
        "finitegroup.table_validate_ms": _ms(fj, "finitegroup.table_validate"),
        "finitegroup.perm_closure_ms": _ms(fj, "finitegroup.perm_closure"),
        "finitegroup.lattice_ms": _ms(fj, "finitegroup.all_subgroups"),
        "finitegroup.scan_ms": _self_ms(fj, "finitegroup.jordan_constant_with_witness"),
        "finitegroup.subgroups": _count(fj, "finitegroup.subgroups"),
        "finitegroup.order": _count(fj, "finitegroup.order"),
        "cli.interpreter_ms": statistics.median(probes["interpreter_ms"]),
        "cli.import_ms": statistics.median(probes["import_ms"]),
        "cli.main_ms": _ms(cli, "cli.main"),
    })


def run_traced(seed: int):
    """One traced pass of every workload: per-layer metrics need all layers."""
    results = {name: spawn(name, seed, "run", trace=1)[1] for name in TRACED}
    spans = {name: r["spans"] for name, r in results.items()}
    defects = sum(r["defects"] for r in results.values())
    metrics = per_layer(spans, results["cli"]["probes"], defects)
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-seed{seed}.json"
    summary = {name: summarize(s) for name, s in spans.items()}
    trace_file.write_text(json.dumps(
        {"seed": seed, "env": environment(), "per_layer": metrics, "derived": DERIVED,
         "summary": summary, "spans": spans}))
    info = {
        "seed": seed, "trace": 1, "env": environment(), "derived": DERIVED,
        "spans_file": str(trace_file.relative_to(ROOT)),
        "outcomes": _sum_outcomes(results.values()), "known_defects": defects,
        "failures": [f for r in results.values() for f in r["failures"]][:5],
        "share_of_op_time": {name: {k: row["share_of_op_time"] for k, row in s.items()
                                    if not k.startswith("op.")}
                             for name, s in summary.items()},
    }
    return info, list(results.values()), metrics


def verdict(results, metrics) -> dict:
    attempted = sum(len(r["latencies_ns"]) for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every benchmark workload untraced, then the traced pass, as a table."""
    every, metrics = [], {}
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        info, results, m = run_untraced(name, seed, seconds)
        every += results
        print(f"{name}: samples {info['samples']}, known defects {info['known_defects']}, "
              f"failures {info['failures']}")
        for key, v in m.items():
            print(f"  {key:<16} {v['value']:>12.4f} {v['unit']}")
            metrics[f"{name}.{key}"] = v
    info, results, layer = run_traced(seed)
    every += results
    print(f"per-layer (traced, spans in {info['spans_file']}):")
    for key, v in layer.items():
        tag = "  (derived)" if key in DERIVED else ""
        print(f"  {key:<32} {v['value']:>14.3f} {v['unit']}{tag}")
    metrics.update(layer)
    return verdict(every, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/liejordan/__init__.py", "tests/fixtures/corpus"):
        if not (ROOT / needed).exists():
            print(f"error: {needed} not found; run inside a liejordan checkout",
                  file=sys.stderr)
            return 2
    try:
        if args.workload == "all":
            out = run_all(args.seed, args.seconds)
        else:
            if args.trace:
                info, results, metrics = run_traced(args.seed)
            else:
                info, results, metrics = run_untraced(args.workload, args.seed, args.seconds)
            print(json.dumps(info))
            out = verdict(results, metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
