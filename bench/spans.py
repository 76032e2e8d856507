"""Spans around the calls into each rbmsens module, and layer replays.

The benchmark records spans from its own files: it replaces public
functions at the module attribute where each caller looks them up
(callers bind names with ``from .x import y``), so nothing inside the
package changes.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children; a module's busy time is the time covered by its
outermost spans.

The replays time single-step public functions (``sp_step``,
``derivative_step``, ``brownian_increments``) on inputs recovered from
the workload's own trajectories, because the engine's inner loop does
not call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import rbmsens

LAYERS = ("cli", "config", "geometry", "skorokhod", "derivative", "sim",
          "estimators")

#: (module, attribute looked up by the caller, span name, keep result)
PATCHES = (
    ("rbmsens.cli", "main", "cli.main", False),
    ("rbmsens.cli", "load_config", "config.load_config", False),
    ("rbmsens.cli", "validate_cone", "geometry.validate_cone", False),
    ("rbmsens.cli", "perturbed_model", "geometry.perturbed_model", False),
    ("rbmsens.cli", "simulate_joint", "sim.simulate_joint", True),
    ("rbmsens.cli", "simulate_rbm", "sim.simulate_rbm", True),
    ("rbmsens.cli", "write_trajectory_csv", "sim.write_trajectory_csv", False),
    ("rbmsens.cli", "fd_oracle", "estimators.fd_oracle", False),
    ("rbmsens.cli", "ipa_sensitivity", "estimators.ipa_sensitivity", False),
    ("rbmsens.cli", "stationary_estimate", "estimators.stationary_estimate", False),
    ("rbmsens.cli", "write_report_csv", "estimators.write_report_csv", False),
    ("rbmsens.estimators", "simulate_rbm", "sim.simulate_rbm", True),
    ("rbmsens.sim", "OperatorCache", "derivative.OperatorCache", False),
    ("rbmsens", "sp_solve_path", "skorokhod.sp_solve_path", True),
    ("rbmsens", "brownian_increments", "sim.brownian_increments", False),
)

#: Span names whose time per unit is reported, with the metric suffix.
SELF_TIMES = {
    "sim.simulate_joint": "sim.simulate_joint.s",
    "sim.simulate_rbm": "sim.simulate_rbm.s",
    "sim.write_trajectory_csv": "sim.write_trajectory_csv.s",
    "derivative.OperatorCache": "derivative.OperatorCache.s",
    "estimators.fd_oracle": "estimators.fd_oracle.self_s",
    "estimators.ipa_sensitivity": "estimators.ipa_sensitivity.s",
    "estimators.stationary_estimate": "estimators.stationary_estimate.s",
    "estimators.write_report_csv": "estimators.write_report_csv.s",
    "config.load_config": "config.load_config.s",
    "geometry.validate_cone": "geometry.validate_cone.s",
    "skorokhod.sp_solve_path": "skorokhod.sp_solve_path.s",
    "cli.main": "cli.main.self_s",
}
CALL_COUNTS = {
    "sim.simulate_joint": "sim.simulate_joint.calls",
    "sim.simulate_rbm": "sim.simulate_rbm.calls",
    "estimators.fd_oracle": "estimators.fd_oracle.calls",
    "geometry.perturbed_model": "geometry.perturbed_model.calls",
}


class Tracer:
    """In-memory span recorder; one unit of work shares one unit id."""

    def __init__(self):
        self.spans: list[list] = []   # [unit, id, parent, name, start, end]
        self.kept: list[tuple] = []   # (span name, args, result)
        self.unit = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [self.unit, len(self.spans), parent, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, keep: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept.append((name, args, result))
            return result
        return traced

    @contextmanager
    def patched(self):
        """Route the looked-up names through spans; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, keep in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, keep))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        keys = ("unit", "id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def unit_span_metrics(spans) -> dict[str, float]:
    """Self times, call counts and per-layer busy/self time of one unit."""
    by_id = {s[1]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]
    out = {metric: 0.0 for metric in SELF_TIMES.values()}
    out.update({metric: 0 for metric in CALL_COUNTS.values()})
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        name = s[3]
        layer = name.split(".", 1)[0]
        duration = s[5] - s[4]
        self_time = duration - child_time[s[1]]
        out[f"{layer}.self_s"] += self_time
        if name in SELF_TIMES:
            out[SELF_TIMES[name]] += self_time
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
        parent = s[2]
        while parent is not None and by_id[parent][3].split(".", 1)[0] != layer:
            parent = by_id[parent][2]
        if parent is None:
            out[f"{layer}.busy_s"] += duration
    return out


def engine_runs(kept):
    """(model, trajectories) of each kept simulate_* call."""
    return [(args[0], result) for name, args, result in kept
            if name.startswith("sim.simulate_")]


def solve_steps(kept) -> int:
    """Path-steps of the kept ``sp_solve_path`` results."""
    return sum(result.constrained.values.shape[0] - 1
               for name, _, result in kept
               if name == "skorokhod.sp_solve_path")


def trajectory_metrics(kept) -> dict[str, float]:
    """Exact counts over the face logs and arrays of one unit's engine runs."""
    steps = 0
    store = 0
    pushes = 0
    projections = 0
    face_steps = np.zeros(2, dtype=np.int64)
    face_sets = np.zeros(4, dtype=np.int64)
    for _, trajs in engine_runs(kept):
        for traj in trajs:
            log = traj.face_log[1:]
            steps += log.size
            store += sum(a.nbytes for a in (traj.times, traj.z, traj.ell,
                                            traj.face_log, traj.tau_all_faces,
                                            getattr(traj, "jac", None),
                                            traj.driver) if a is not None)
            pushes += int((np.diff(traj.ell, axis=0) > 0.0).any(axis=1).sum())
            for i in range(min(traj.dim, 2)):
                face_steps[i] += int(((log >> i) & 1).sum())
            face_sets += np.bincount(np.minimum(log, 3), minlength=4)[:4]
            if getattr(traj, "jac", None) is not None:
                projections += int(np.count_nonzero(log))
    return {
        "sim.path_steps": steps,
        "sim.store_bytes": store,
        "skorokhod.push_steps": pushes,
        "derivative.projections": projections,
        "sim.boundary_frac.face1": face_steps[0] / steps if steps else 0.0,
        "sim.boundary_frac.face2": face_steps[1] / steps if steps else 0.0,
        "sim.face_sets.1": int(face_sets[1]),
        "sim.face_sets.2": int(face_sets[2]),
        "sim.face_sets.12": int(face_sets[3]),
    }


def _median_time(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _evenly(items: list, limit: int) -> list:
    """An evenly spaced subset of at most ``limit`` items."""
    if len(items) <= limit:
        return items
    return [items[i] for i in np.linspace(0, len(items) - 1, limit).astype(int)]


def pushing_steps(kept):
    """(model, h_prev, delta_f) of every pushing step of the kept runs.

    The driver increment is recovered from the stored path as
    z[k+1] - R (ell[k+1] - ell[k]) - z[k].
    """
    steps = []
    for model, trajs in engine_runs(kept):
        for traj in trajs:
            dell = np.diff(traj.ell, axis=0)
            for k in np.flatnonzero((dell > 0.0).any(axis=1)):
                target = traj.z[k + 1] - model.reflections @ dell[k]
                steps.append((model, traj.z[k], target - traj.z[k]))
    return steps


def picard_iterations(model, h_prev, delta_f, tol=1e-12, max_iter=500) -> int:
    """Updates of w <- (Q w - q)^+ from w = 0 until the max-norm change <= tol.

    Computed here from the step's inputs, with the stopping rule of the
    program's per-step solve, so the count does not depend on the
    program's internals.
    """
    normals_t = model.normals.T
    q = normals_t @ (h_prev + delta_f)
    big_q = np.identity(model.dim) - normals_t @ model.reflections
    w = np.zeros(model.dim)
    for iteration in range(1, max_iter + 1):
        w_next = np.maximum(big_q @ w - q, 0.0)
        delta = float(np.abs(w_next - w).max())
        w = w_next
        if delta <= tol:
            return iteration
    return max_iter


def replay_metrics(kept, replay_steps: int = 1000) -> dict[str, float]:
    """Per-call cost of the single-step functions on the unit's own inputs."""
    out = {"skorokhod.sp_step.us": 0.0, "skorokhod.picard_iters_mean": 0.0,
           "skorokhod.picard_iters_max": 0,
           "derivative.derivative_step.us": 0.0,
           "sim.brownian_increments.s": 0.0}
    every = pushing_steps(kept)
    if every:
        iters = [picard_iterations(*step) for step in every]
        out["skorokhod.picard_iters_mean"] = float(np.mean(iters))
        out["skorokhod.picard_iters_max"] = int(max(iters))
        sample = _evenly(every, replay_steps)

        def steps():
            for model, h_prev, delta_f in sample:
                rbmsens.sp_step(model, h_prev, delta_f)
        out["skorokhod.sp_step.us"] = _median_time(steps) / len(sample) * 1e6

    projections = []
    for model, trajs in engine_runs(kept):
        for traj in trajs:
            if getattr(traj, "jac", None) is None:
                continue
            dell = np.diff(traj.ell, axis=0)
            for k in np.flatnonzero(traj.face_log[1:]):
                psi = rbmsens.psi_increment(model, traj.dt, np.zeros(model.dim),
                                            dell[k])
                projections.append((model, traj.jac[k], psi,
                                    int(traj.face_log[k + 1])))
    if projections:
        projections = _evenly(projections, replay_steps)
        caches = {}
        for model, *_ in projections:
            caches.setdefault(id(model), rbmsens.OperatorCache(model))
        states = [(caches[id(m)], rbmsens.DerivativeState(j), psi, mask)
                  for m, j, psi, mask in projections]

        def derivative_steps():
            for cache, state, psi, mask in states:
                rbmsens.derivative_step(cache, state, psi, mask)
        out["derivative.derivative_step.us"] = (
            _median_time(derivative_steps) / len(states) * 1e6)

    draws = [(traj.seed, traj.stream, traj.times.size - 1, traj.dt, traj.dim)
             for _, trajs in engine_runs(kept) for traj in trajs]
    if draws:
        def increments():
            for seed, stream, n_steps, dt, dim in draws:
                rbmsens.brownian_increments(rbmsens.RngContract(seed, stream),
                                            n_steps, dt, dim)
        out["sim.brownian_increments.s"] = _median_time(increments)
    return out


def scaling_grid(seed: int, horizon: float = 0.5) -> dict[str, float]:
    """Path-steps per second of both engines on hr2d at 1, 8 and 64 paths."""
    cfg = rbmsens.builtin_scenario("hr2d")
    out = {}
    for engine in ("simulate_rbm", "simulate_joint"):
        run = getattr(rbmsens, engine)
        for paths in (1, 8, 64):
            sim = replace(cfg.sim, horizon=horizon, burn_in=0.0,
                          n_paths=paths, seed=seed)
            wall = _median_time(lambda: run(cfg.model, sim))
            out[f"sim.{engine}.p{paths}.msteps_per_s"] = (
                paths * sim.n_steps() / wall / 1e6)
    return out
