"""bench_e2e: one end-to-end benchmark over real TCP, with per-layer
attribution.  See README.md in this directory for the workloads, the
metric definitions and how to read a trace.

    python benchmarks/e2e/bench_e2e.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace [0|1|both]] [--out PATH] [--smoke]
    python benchmarks/e2e/bench_e2e.py --compare A.json B.json

Every metric prints as ``workload metric value unit``; the last line
of standard output is one JSON object for the benchmark driver
(``correct``, ``attempted``, ``failed``, ``metrics``) describing the
last workload run.  The exit code is non-zero when any status differs
from its expected decision, an aggregate differs from the plaintext
reference, or a staged client upload is not byte-identical to
``prepare_submissions``'.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
try:
    import repro  # noqa: F401 - honour an installed or PYTHONPATH copy
except ImportError:
    sys.path.insert(0, str(HERE.parent.parent / "src"))

import e2e_harness as harness  # noqa: E402
import e2e_probes as probes  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
#: default ``--seconds``; BENCHMARK.json's ``run_seconds``
RUN_SECONDS = 10.0
#: below this many CPUs a process-executor workload measures the
#: scheduler, not the program
PROCESS_MIN_CPUS = 2

#: name -> (unit, better, bound, how a run's samples become its value).
#: The bound is the share of the parent's value by which a later commit
#: may be worse (README, "Bounds").  "best" is the fastest session or
#: repeat of the run: on a shared host interference comes in bursts of
#: seconds and only ever slows a sample down, so the fastest one is the
#: steadiest estimate of what the program costs.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "median"),
    "client_prepare_ms_per_sub": ("ms", "lower", 0.25, "best"),
    "client_single_ms": ("ms", "lower", 0.25, "best"),
    "server_subs_per_s": ("1/s", "higher", 0.25, "best"),
    "server_cpu_ms_per_sub": ("ms", "lower", 0.25, "best"),
    "upload_bytes_per_sub": ("B", "lower", 0.01, "median"),
    # a peak is a maximum: the largest batch a server happens to form
    # sets it
    "peak_rss_mb": ("MiB", "lower", 0.25, "max"),
    "failed_share": ("ratio", "lower", 0.0, "median"),
}
#: metrics the clock decides; unresolved where the host cannot run the
#: workload's executor
WALL_CLOCK = ("setup_s", "server_subs_per_s", "server_cpu_ms_per_sub")
#: a time under 0.2 s may move by this much before it counts as worse
ABSOLUTE_FLOOR_S = 0.02


def host_info() -> dict:
    info = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        from repro.field import backend_name

        info["backend"] = backend_name()
    except Exception as exc:  # noqa: BLE001 - provenance only
        info["backend"] = f"unknown ({exc})"
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
            capture_output=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = "unknown"
    return info


def quartiles(samples) -> "tuple[float, float]":
    if len(samples) < 2:
        return float(samples[0]), float(samples[0])
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def summarize_end_to_end(spec, result: dict, cpu_count: int) -> dict:
    """Value, median, quartiles and sample count per end-to-end
    metric."""
    unresolved = None
    if spec.executor != "inline":
        if cpu_count < PROCESS_MIN_CPUS:
            unresolved = (
                f"executor {spec.executor!r} needs >= {PROCESS_MIN_CPUS} "
                f"CPUs, host has {cpu_count}"
            )
        elif not result["executor"].startswith(spec.executor):
            unresolved = (
                f"executor {spec.executor!r} fell back to "
                f"{result['executor']!r}"
            )
    out = {}
    for name, (unit, better, bound, how) in END_TO_END.items():
        samples = result["samples"][name]
        q1, q3 = quartiles(samples)
        if how == "median":
            value = statistics.median(samples)
        elif how == "max" or better == "higher":
            value = max(samples)
        else:
            value = min(samples)
        out[name] = {
            "unit": unit, "better": better, "bound": bound,
            "value": value, "aggregate": how, "n": len(samples),
            "median": statistics.median(samples), "q1": q1, "q3": q3,
        }
        if unresolved and name in WALL_CLOCK:
            out[name]["unresolved"] = unresolved
    return out


def run_one(name, seed, seconds, mode, smoke, cpu_count) -> dict:
    """One workload: the untraced run, the traced run, or both."""
    spec = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    repeats = 1 if smoke else harness.REPEATS
    entry = {
        "why": spec.why, "batch": spec.batch, "n_cap": spec.n_cap,
        "window": spec.window, "client_batch": spec.client_batch,
        "executor": spec.executor,
        "sealed": spec.sealed, "mixed": spec.mixed,
        "attempted": 0, "failed": 0, "correct": True,
    }
    if mode in ("0", "both"):
        result = harness.run_workload(spec, seed, seconds, repeats)
        entry["repeats"] = repeats
        entry["end_to_end"] = summarize_end_to_end(spec, result, cpu_count)
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["correct"] &= result["failed"] == 0
        for metric, row in entry["end_to_end"].items():
            note = "  # unresolved" if "unresolved" in row else ""
            print(f"{name} {metric} {row['value']:.6g} {row['unit']}{note}")
    if mode in ("1", "both"):
        traced = probes.run_traced(spec, seed, seconds)
        entry["per_layer"] = {}
        for metric, (unit, better) in probes.LAYER_METRICS.items():
            row = {
                "unit": unit, "better": better,
                "value": traced["per_layer"][metric],
            }
            if row["value"] is None:
                row["reason"] = traced["reasons"][metric]
            entry["per_layer"][metric] = row
        entry["staged_identical"] = traced["staged_identical"]
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        # A staged path that ran and disagreed is a failure; one that
        # could not run (a removed entry point) only nulls its metrics.
        entry["correct"] &= traced["failed"] == 0 and (
            traced["staged_identical"] or traced["staged_error"] is not None
        )
        for metric, row in entry["per_layer"].items():
            if row["value"] is None:
                print(f"{name} {metric} null {row['unit']}  # {row['reason']}")
            else:
                print(f"{name} {metric} {row['value']:.6g} {row['unit']}")
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed,
                        "spans": traced["spans"]})
        )
    return entry


def driver_line(entry: dict) -> str:
    """The benchmark driver's contract: one JSON object, numbers only.
    ``failed_share`` travels as ``failed``/``attempted``; a per-layer
    probe that could not run reports -1 (its reason is in the record)."""
    metrics = {}
    for metric, row in entry.get("end_to_end", {}).items():
        if metric != "failed_share":
            metrics[metric] = {"value": row["value"], "unit": row["unit"]}
    for metric, row in entry.get("per_layer", {}).items():
        value = -1.0 if row["value"] is None else row["value"]
        metrics[metric] = {"value": value, "unit": row["unit"]}
    return json.dumps({
        "correct": bool(entry["correct"]),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, the delta, the
    bound, and ok / worse / unresolved."""
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    n_worse = 0
    print("workload metric value_a value_b delta bound verdict")
    for name in a:
        for metric, row_a in a[name].get("end_to_end", {}).items():
            row_b = b.get(name, {}).get("end_to_end", {}).get(metric)
            if row_b is None:
                continue
            base, new, bound = row_a["value"], row_b["value"], row_a["bound"]
            loss = new - base if row_a["better"] == "lower" else base - new
            allowed = bound * abs(base)
            if row_a["unit"] == "s" and base < 0.2:
                allowed = max(allowed, ABSOLUTE_FLOOR_S)
            spread = (row_a["q3"] - row_a["q1"]) / base if base else 0.0
            if "unresolved" in row_a or "unresolved" in row_b:
                verdict = "unresolved"
            elif bound and spread > bound:
                verdict = "unresolved"
            elif loss > allowed:
                verdict = "worse"
                n_worse += 1
            else:
                verdict = "ok"
            delta = (new - base) / base if base else 0.0
            print(
                f"{name} {metric} {base:.6g} {new:.6g} {delta:+.2%} "
                f"{bound:.0%} {verdict}"
            )
    return 1 if n_worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", nargs="+", choices=list(WORKLOADS),
        default=list(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="measured seconds per workload run",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=["0", "1", "both"],
        help="0: end-to-end metrics only (default); 1: per-layer "
             "metrics only; no value: both",
    )
    parser.add_argument("--out", default=str(RESULTS / "BENCH_e2e.json"))
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at tiny size, one repeat, traced",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    mode = "both" if args.smoke else args.trace
    seconds = 0.5 if args.smoke else args.seconds
    host = host_info()
    record = {
        "benchmark": "bench_e2e",
        "host": host,
        "config": {
            "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
            "trace": mode, "field": "FIELD87", "n_servers": 2,
            "prg_compression": True,
        },
        "workloads": {},
    }
    entry = None
    for name in args.workload:
        entry = run_one(
            name, args.seed, seconds, mode, args.smoke, host["cpu_count"]
        )
        record["workloads"][name] = entry
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(driver_line(entry))
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    harness.adopt_orphans()
    try:
        code = main()
    finally:
        harness.reap_children()
    sys.exit(code)
