"""One workload in one child process: set up, then run whole passes.

Started by ``run.py``; not meant to be run by hand. Set-up (interpreter
start, ``import orbitdim``, input generation) ends at the monotonic time
reported as ``ready``. A pass runs every op once, in a fixed order, as a
closed loop: each op's result is in hand before the next op starts.
Reference checks run after each pass, outside the timed region.

With ``--trace 1`` untraced and traced passes alternate, starting untraced,
so the tracing overhead is measured in the same process.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads  # imports orbitdim: part of the timed set-up
from calibrate import Calibrator


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has 10 samples above
    it, that percentile, and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": None}


#: Seconds between calibration kernel samples. Dense and evolve run at
#: most 30 ops a pass and their median and tail are latencies of single
#: ops, so every op is bracketed by samples (about 26 ms each, under 10%
#: of a pass). Bracketing grid's 1,489 ops would triple its pass; its
#: median is over thousands of samples, so a sample every 0.5 s will do.
CALIBRATION_INTERVAL_S = {"grid": 0.5, "dense": 0.0, "evolve": 0.0}


class Runner:
    def __init__(self, ops, interval_s: float, tracer=None) -> None:
        self.ops = ops
        self.tracer = tracer
        self.calibrator = Calibrator(interval_s)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.disagreements: list[int] = []
        self.traced_passes = 0

    def run_pass(self, traced: bool) -> tuple[list[float], list[float]]:
        """Run every op once; return its raw and calibrated latencies (s).

        The calibration kernel runs before the first op, after the last,
        and between ops once the workload's interval has passed since its
        last run; each op is scaled by the samples just before and after it.
        Traced ops get ids 0, 1, ... across traced passes.
        """
        gc.collect()
        tracer = self.tracer if traced else None
        base = self.traced_passes * len(self.ops)
        self.traced_passes += traced
        cal = self.calibrator
        results = []
        raw: list[float] = []
        marks: list[int] = []
        mark = cal.sample()
        clock = time.perf_counter
        for i, op in enumerate(self.ops):
            if cal.due():
                mark = cal.sample()
            if tracer is not None:
                tracer.begin(base + i)
            t0 = clock()
            try:
                results.append((op.call(), None))
            except Exception as exc:  # an op that raises is a failed op
                results.append((None, f"{type(exc).__name__}: {exc}"))
            raw.append(clock() - t0)
            marks.append(mark)
            if tracer is not None:
                tracer.end()
        cal.sample()
        scaled = [t * f for t, f in zip(raw, cal.factors(marks, [op.array_bound for op in self.ops]))]
        self._check(results)
        return raw, scaled

    def _check(self, results) -> None:
        disagreements = 0
        for i, (op, (result, error)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if error is None:
                try:
                    verdict = op.check(result)
                    error = None if verdict.ok else verdict.note
                    disagreements += verdict.disagreement
                except Exception as exc:  # a malformed result fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and op.cli:
                digest = hashlib.sha256(result.stdout.encode()).hexdigest()
                if self.digests.setdefault(i, digest) != digest:
                    error = "--json stdout differs from an earlier pass"
            if error is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.name}: {error}")
        self.disagreements.append(disagreements)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    orbitdim_dir = os.path.dirname(os.path.abspath(workloads.od.__file__))
    if os.path.dirname(orbitdim_dir) != os.path.abspath(args.src):
        print(f"orbitdim was imported from {orbitdim_dir}, not from {args.src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.BUILD[args.workload](args.seed, args.smoke, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out: dict = {"ready": ready, "ops_per_pass": len(ops)}
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        runner = Runner(ops, CALIBRATION_INTERVAL_S[args.workload], tracer)
        untraced, traced = [], []
        for k in range(args.passes):
            if k % 2:
                tracer.install()
                traced.append(runner.run_pass(traced=True))
                tracer.uninstall()
            else:
                untraced.append(runner.run_pass(traced=False))
        untraced_passes, traced_passes = len(untraced), len(traced)
        op_walls = [lat for raw, _ in traced for lat in raw]
        per_layer, details = tracer.summary(op_walls, traced_passes)
        plain = sum(sum(scaled) for _, scaled in untraced) / untraced_passes
        with_trace = sum(sum(scaled) for _, scaled in traced) / traced_passes
        per_layer["trace.overhead_frac"] = with_trace / plain - 1.0
        per_layer["orbit.closed_form_disagreements"] = float(statistics.median(runner.disagreements))
        spans_path = os.path.join(args.workdir, "spans.npz")
        tracer.save(spans_path)
        out.update(per_layer=per_layer, trace=dict(details, spans_file=spans_path),
                   passes={"untraced": untraced_passes, "traced": traced_passes})
    else:
        runner = Runner(ops, CALIBRATION_INTERVAL_S[args.workload])
        passes = [runner.run_pass(traced=False) for _ in range(args.passes)]
        raw = [lat for lats, _ in passes for lat in lats]
        scaled = [lat for _, lats in passes for lat in lats]
        tail, percentile, samples = _tail(scaled)
        completed = runner.attempted - runner.failed
        out.update(
            end_to_end={
                "ops_per_s": completed / sum(scaled),
                "op_p50_ms": 1e3 * statistics.median(scaled),
                "op_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": completed / runner.attempted,
            },
            raw_wall_clock={
                "ops_per_s": completed / sum(raw),
                "op_p50_ms": 1e3 * statistics.median(raw),
                "op_tail_ms": 1e3 * _tail(raw)[0],
            },
            tail={"percentile": percentile, "samples": samples},
            pass_raw_s=[sum(lats) for lats, _ in passes],
            calibration_median_s={
                "interp": statistics.median(i for i, _ in runner.calibrator.samples),
                "whole": statistics.median(w for _, w in runner.calibrator.samples),
            },
            passes={"untraced": args.passes, "traced": 0},
            closed_form_disagreements_per_pass=runner.disagreements,
        )
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        digests_checked=len(runner.digests),
        facts={
            "python": platform.python_version(),
            "numpy": workloads.np.__version__,
            "blas": _blas(),
            "orbitdim": orbitdim_dir,
        },
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
