"""orbitdim benchmark: three closed-loop workloads, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each run starts its workload in child processes with PYTHONPATH set to the
checkout's ``src`` and BLAS threads pinned. ``--trace 0`` sets up nine
times (eight set-up-only children, then the measuring child) and prints the
end-to-end metrics; ``--trace 1`` starts one child that wraps orbitdim's
module boundaries and prints the per-layer metrics. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is the run record, also written under ``.perfbench_work``.

``--seconds`` fixes the number of whole passes from each workload's nominal
pass cost, so every run of a workload does the same ops whatever the speed
of the code under test. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: BLAS threads for this process and its children, set before numpy is
#: first imported. One thread keeps every op on one core, where the
#: calibration kernel measures the speed it gets; a second BLAS thread
#: competes with other tenants for the other core.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ORBITDIM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import calibrate  # noqa: E402  (these two use the stdlib and numpy only)
import tracer  # noqa: E402

WORKLOADS = ("grid", "dense", "evolve")

#: Seconds per pass on a 2-core x86 sandbox (Python 3.11, numpy 2.4,
#: OpenBLAS pinned to 1 thread) for the code as it was when the benchmark
#: was added.
NOMINAL_PASS_S = {"grid": 9.0, "dense": 22.0, "evolve": 8.0}
MIN_PASSES = 2
SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    names = tracer.metric_names() + ["orbit.closed_form_disagreements", "trace.overhead_frac"]
    units = {}
    for name in names:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_frac") or name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("_bytes_computed"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


class BenchError(RuntimeError):
    pass


def child_env(src: str) -> dict[str, str]:
    """This process's environment (BLAS threads already pinned) with the
    checkout's ``src`` as the only PYTHONPATH entry."""
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> tuple[float, list, dict]:
    """Start one worker, wait for it, and return its raw set-up time, the
    calibration kernel samples taken just before the start, and its result."""
    samples = [calibrate.kernel() for _ in range(3)]
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return result["ready"] - started, samples, result


def source_facts(src: str) -> dict:
    package = os.path.join(src, "orbitdim")
    lines = 0
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_orbitdim_lines": lines}


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def run(workload: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the record (metrics plus run facts)."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "orbitdim", "__init__.py")):
        raise BenchError("no src/orbitdim here: run from the root of an orbitdim checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(src)
    workdir = os.path.join(WORK_DIR, f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else ""))
    passes = MIN_PASSES if smoke else passes_for(workload, seconds)
    argv = ["--workload", workload, "--seed", str(seed), "--passes", str(passes),
            "--trace", str(trace), "--workdir", workdir, "--src", src]
    if smoke:
        argv.append("--smoke")

    children = [] if trace else [run_child(argv + ["--setup-only"], env, deadline)
                                 for _ in range(SETUP_REPEATS - 1)]
    children.append(run_child(argv, env, deadline))
    raw_setups = [raw for raw, _, _ in children]
    # One factor for the run, from the kernel samples before every child:
    # a child's own three samples are too few to track the host's speed.
    setup_factor = calibrate.interp_factor([k for _, samples, _ in children for k in samples])
    result = children[-1][2]

    if trace:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = dict(result["end_to_end"], setup_s=setup_factor * statistics.median(raw_setups))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"worker did not report {missing}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "setup_calibration_factor": setup_factor,
        "raw_setup_s_samples": raw_setups,
        "facts": dict(
            result["facts"],
            nproc=os.cpu_count(),
            affinity_cpus=len(os.sched_getaffinity(0)),
            blas_threads_pinned=BLAS_THREADS,
            **source_facts(src),
        ),
    }
    for key in ("ops_per_pass", "passes", "tail", "raw_wall_clock", "pass_raw_s", "calibration_median_s",
                "closed_form_disagreements_per_pass", "digests_checked", "trace"):
        if key in result:
            record[key] = result[key]
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def smoke() -> int:
    """Run every workload at smoke size, untraced and traced, and check that
    every metric BENCHMARK.json names is printed and every op is correct."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run(workload, seed=1, seconds=1, trace=trace, smoke=True)
            names = set(record["metrics"])
            missing = [n for n in expected[trace] if n not in names]
            extra = sorted(names - set(expected[trace]))
            good = record["correct"] and not missing and not extra
            ok &= good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({record['attempted']} ops, {record['failed']} failed"
                  + (f", missing {missing}" if missing else "") + (f", unlisted {extra}" if extra else "")
                  + (f", {record['failures'][:3]}" if record["failures"] else "") + ")")
            for name, metric in record["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smoke-size self-test of every workload")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
