"""Benchmark runner for rbmsens.

    python3 bench/run.py --workload sens-hr2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs one workload (``all`` runs each in a child
process in turn).  A run warms up with one unit, then repeats units of
the workload until their summed wall time reaches ``--seconds``, and
checks every unit's outputs outside the timed region.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json.
Unit times are given in multiples of a fixed reference computation
timed right before and after each unit (see ``reference.py``), because
the shared machine's speed drifts by up to a factor of two.  The set-up
time is the median of fresh interpreters timed through the run, in
seconds and as a multiple of the numpy import time of the same
interpreter.
The peak resident memory is read in a fresh interpreter that runs one
unit, so it holds the program's memory and none of the runner's.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics: span self and busy times, exact counts from the
engine's face logs, replays of the single-step functions, the
path-count scaling grid, raw seconds, path-steps per second counted
from the engine's outputs, and the tracing overhead.  The spans are
written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
counts units whose command failed or whose outputs did not check out,
and ``correct`` is also false when the check over all units of the run
pooled fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from reference import time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sens-hr2d", "halfline-1path", "simulate-ortho2d-64")

#: Fresh interpreters timed for setup_s, spread over the run so that
#: their median samples all of it.
SETUP_PROBES = 8

#: import rbmsens, load the scenario, validate it: everything a command
#: does before its first simulation call.  numpy is imported first and
#: timed on its own: its import is the first part of every set-up and
#: does not depend on the program, so the ratio of the two times, taken
#: in one interpreter, cancels most of the machine's drift.
SETUP_PROBE = r"""
import sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import rbmsens
cfg = rbmsens.load_config(sys.argv[2])
accepted = rbmsens.validate_cone(cfg.model).accepted
stable, _ = rbmsens.drift_stability_check(cfg.model)
elapsed = time.perf_counter() - start
if not (accepted and stable):
    sys.exit("scenario rejected")
print(repr(elapsed), repr(numpy_s))
"""

#: One unit of the workload in a fresh interpreter: its peak resident
#: memory is what a user running the command pays.  The outputs are
#: checked after the peak has been read.
MEMORY_PROBE = r"""
import json, resource, sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[3]](sys.argv[4])
seed = int(sys.argv[5])
workload.discard_outputs()
code = workload.run(seed)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"peak_mb": peak_kb / 1024.0,
                  "problems": workload.check(seed, code)}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def probe_setup(config_path: str) -> tuple[float, float]:
    """Set-up seconds of a fresh interpreter, and its numpy import seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), config_path],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    setup_s, numpy_s = proc.stdout.split()
    return float(setup_s), float(numpy_s)


class Loop:
    """Closed loop over units of one workload; counts every attempt."""

    def __init__(self, workload, seed_of):
        self.workload = workload
        self.seed_of = seed_of
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.estimates = []
        self.spent = 0.0   # wall time of the units run since the last reset

    def _next(self):
        index = self.index
        self.index += 1
        self.attempted += 1
        return index, self.seed_of(index)

    def _report(self, index, seed, problems) -> None:
        if problems:
            self.failed += 1
        for problem in problems:
            print(f"unit {index} (seed {seed}): {problem}", file=sys.stderr)

    def unit(self, tracer=None):
        """Run and check one unit; return a Sample, or None on failure."""
        index, seed = self._next()
        if tracer is not None:
            tracer.unit = index
        self.workload.discard_outputs()
        gc.collect()
        start = time.perf_counter()
        try:
            sample, code = self._timed(seed, tracer)
            problems = self.workload.check(seed, code)
            estimate = None if problems else self.workload.estimate()
            if estimate is not None:
                self.estimates.append(estimate)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.spent += time.perf_counter() - start
            return None
        self.spent += sample.wall
        self._report(index, seed, problems)
        return sample

    def memory_unit(self, workdir: str):
        """Run and check one unit in a fresh interpreter; return its peak MB."""
        index, seed = self._next()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", MEMORY_PROBE, str(SRC), str(BENCH),
                 self.workload.name, workdir, str(seed)],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            traceback.print_exc()
            self.failed += 1
            return None
        self._report(index, seed, result["problems"])
        return result["peak_mb"]

    def _timed(self, seed, tracer):
        before = time_reference()
        with tracer.patched() if tracer is not None else nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            code = self.workload.run(seed)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        ref = (before + time_reference()) / 2.0
        return Sample(wall, cpu, ref), code


@dataclass(frozen=True)
class Sample:
    """Wall and CPU time of one unit, and the reference time around it."""

    wall: float
    cpu: float
    ref: float


def run_plain(loop, seconds: float, workdir: str) -> dict:
    config_path = loop.workload.config_path
    setups = [probe_setup(config_path)]
    peak_mb = loop.memory_unit(workdir)
    warm = loop.unit()                            # warm-up
    loop.spent = 0.0
    unit_s = warm.wall if warm is not None else seconds
    probe_every = max(1, round(seconds / unit_s / (SETUP_PROBES - 1)))
    samples = []
    while loop.spent < seconds:
        if loop.index % probe_every == 0:
            setups.append(probe_setup(config_path))
        sample = loop.unit()
        if sample is not None:
            samples.append(sample)
    if not samples or peak_mb is None:
        raise RuntimeError("no unit ran to completion")
    n = f"median of {len(samples)} units"
    m = f"median of {len(setups)} fresh interpreters"
    return {
        "setup_s": (statistics.median(s for s, _ in setups), m),
        "setup_numpy_ratio": (statistics.median(s / n for s, n in setups), m),
        "wall_ref": (statistics.median(s.wall / s.ref for s in samples), n),
        "cpu_ref": (statistics.median(s.cpu / s.ref for s in samples), n),
        "peak_rss_mb": (peak_mb, "fresh interpreter running one unit"),
    }


def run_traced(loop, seconds: float, seed: int, spans_path: Path) -> dict:
    import spans
    tracer = spans.Tracer()
    loop.unit()                                   # warm-up
    loop.spent = 0.0
    plain, traced = [], []
    per_unit, counted = [], []
    replays = None
    while loop.spent < seconds:
        sample = loop.unit()
        if sample is not None:
            plain.append(sample)
        first_span = len(tracer.spans)
        sample = loop.unit(tracer)
        if sample is not None:
            traced.append(sample)
            metrics = spans.unit_span_metrics(tracer.spans[first_span:])
            metrics.update(spans.trajectory_metrics(tracer.kept))
            metrics["sim.csv_bytes"] = sum(
                os.path.getsize(f) for f in loop.workload.trajectory_files())
            solve_steps = spans.solve_steps(tracer.kept)
            solve_s = metrics["skorokhod.sp_solve_path.s"]
            metrics["skorokhod.sp_solve_path.msteps_per_s"] = (
                solve_steps / solve_s / 1e6 if solve_s else 0.0)
            counted.append(metrics["sim.path_steps"] + solve_steps)
            per_unit.append(metrics)
            if replays is None:
                replays = spans.replay_metrics(tracer.kept)
        tracer.kept.clear()
    if not plain or not traced:
        raise RuntimeError("no unit ran to completion")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(str(spans_path))

    out = {}
    for name in per_unit[0]:
        values = [m[name] for m in per_unit]
        median = (statistics.median_low if isinstance(values[0], int)
                  else statistics.median)
        out[name] = (median(values), f"median of {len(values)} traced units")
    for name, value in replays.items():
        out[name] = (value, "replay on the first traced unit")
    for name, value in spans.scaling_grid(seed).items():
        out[name] = (value, "hr2d horizon 0.5, median of 3")
    steps = statistics.median_low(counted)
    n = f"median of {len(plain)} untraced units"
    out["wall_s"] = (statistics.median(s.wall for s in plain), n)
    out["cpu_s"] = (statistics.median(s.cpu for s in plain), n)
    out["msteps_per_s"] = (statistics.median(steps / 1e6 / s.wall for s in plain),
                           f"{n}, {steps} path-steps counted in traced units")
    out["ref_s"] = (statistics.median(s.ref for s in plain + traced),
                    "median reference time around all units")
    out["trace_overhead"] = (
        statistics.median(s.wall / s.ref for s in traced)
        / statistics.median(s.wall / s.ref for s in plain) - 1.0,
        f"wall_ref of {len(traced)} traced vs {len(plain)} untraced units")
    out["trace.units"] = (len(traced), "traced units")
    if loop.estimates:
        errors = [e for e, _ in loop.estimates]
        se2 = statistics.fmean(se * se for _, se in loop.estimates)
        cpu = statistics.median(s.cpu for s in plain)
        out["estimators.se2_cpu"] = (se2 * cpu,
                                     f"mean stderr^2 of {len(errors)} units "
                                     "x median untraced cpu_s")
        out["estimators.abs_err"] = (statistics.fmean(errors),
                                     f"mean of {len(errors)} units")
    else:
        out["estimators.se2_cpu"] = (0.0, "no estimate in this workload")
        out["estimators.abs_err"] = (0.0, "no estimate in this workload")
    out["src_lines"] = (sum(len(p.read_text().splitlines())
                            for p in sorted(SRC.rglob("*.py"))), "src/**/*.py")
    return out


def run_workload(args) -> int:
    if not (SRC / "rbmsens" / "__init__.py").is_file():
        print(f"no rbmsens package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    import rbmsens
    if Path(rbmsens.__file__).resolve().parent != SRC / "rbmsens":
        print(f"imported rbmsens from {rbmsens.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, unit_seed

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](workdir)
        loop = Loop(workload, lambda index: unit_seed(args.seed, index))
        if args.trace:
            spans_path = (ROOT / ".bench_out"
                          / f"spans-{args.workload}-{args.seed}.json")
            measured = run_traced(loop, args.seconds, args.seed, spans_path)
        else:
            measured = run_plain(loop, args.seconds, workdir)
        run_problems = workload.run_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run_problems:
        print(f"run (seed {args.seed}): {problem}", file=sys.stderr)

    if set(measured) != set(declared):
        print("measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(measured) ^ set(declared))}", file=sys.stderr)
        return 2
    for name, unit in declared.items():
        value, note = measured[name]
        print(f"{args.workload:20s} {name:38s} {value:14.6g} {unit:14s} {note}")
    print(json.dumps({
        "correct": loop.failed == 0 and not run_problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        sys.stdout.flush()
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
