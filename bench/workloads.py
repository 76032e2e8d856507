"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: a unit of work starts
when the previous one (and its check) has ended.  A unit drives the
program only through ``rbmsens.cli.main`` and public ``rbmsens`` names,
on a shortened copy of a builtin scenario written with ``emit_config``
(the command line cannot override the horizon).  Every unit gets its
own seed, derived from the benchmark seed, and passes it as ``--seed``.

The checks run outside the timed region and hold for any seed: the
sensitivity check rebuilds the per-path estimates and compares them in
pairs against their own spread, the others compare with oracles that
share no code with the engine.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace

import numpy as np

import rbmsens
from rbmsens import cli
from rbmsens.skorokhod import complementarity_gap


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_scenario(workdir: str, name: str, **sim_updates):
    """Emit builtin ``name`` with shortened sim settings; return (path, cfg).

    The returned config is the one loaded back from the file, so checks
    see exactly the numbers the command line sees.
    """
    cfg = rbmsens.builtin_scenario(name)
    cfg = replace(cfg, sim=replace(cfg.sim, **sim_updates))
    path = os.path.join(workdir, f"{name}.cfg")
    with open(path, "w") as fh:
        fh.write(rbmsens.emit_config(cfg))
    return path, rbmsens.load_config(path)


def read_report(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One named workload: scenario file, timed unit, output check."""

    name = ""
    scenario = ""
    command = ""
    sim_updates: dict = {}
    out_name = "report.csv"

    def __init__(self, workdir: str):
        self.config_path, self.cfg = write_scenario(workdir, self.scenario,
                                                    **self.sim_updates)
        self.out = os.path.join(workdir, self.out_name)

    def run(self, seed: int) -> int:
        """The timed unit; returns the command's exit code."""
        return cli.main(["--config", self.config_path, "--command",
                         self.command, "--seed", str(seed), "--out", self.out])

    def check(self, seed: int, code: int) -> list[str]:
        """Problems with the unit's outputs (empty when correct)."""
        raise NotImplementedError

    def estimate(self) -> tuple[float, float] | None:
        """(abs_err, stderr) of the last unit's estimate, if it has one."""
        return None

    def run_check(self) -> list[str]:
        """Problems found by pooling the checked units of a run."""
        return []

    def trajectory_files(self) -> list[str]:
        return []

    def discard_outputs(self) -> None:
        """Remove the last unit's files, so the next unit writes fresh ones.

        Rewriting a file truncated to zero makes ext4 start writeback on
        close, which put disk stalls of up to 14% into the wall time of
        the CSV-heavy workload; a user writing to a new path pays none.
        """
        for path in [self.out] + self.trajectory_files():
            if os.path.exists(path):
                os.remove(path)


class SensHr2d(Workload):
    """``sensitivity`` on hr2d: one joint pass plus four CRN-FD passes.

    Horizon 1 keeps units near half a second, so that a run holds some
    thirty of them; at horizon 3 a run held seven, and its median moved
    by 8-9% from run to run.  The paths start in the corner, so the
    traffic is more boundary-heavy than stationary: 10.8% of path-steps
    on a face and 3.47 Picard iterations per pushing step (maximum 22;
    means over ten seeds), against 8.0-8.8% and 3.2-3.3 (maximum 22-23)
    at horizon 10.

    The check rebuilds, for the unit's seed, the per-path IPA means and
    FD(eps/2) differences through ``simulate_joint``, ``perturbed_model``
    and ``simulate_rbm``.  The report must carry exactly their means and
    standard errors, and IPA - FD(eps/2) must lie within PAIRED_SIGMAS
    paired standard errors of zero, for each unit and for all units of a
    run pooled.  The pooled test is the one that catches a biased
    derivative: a bias widens the paired spread with it, so one unit's
    eight paths see it only at the t-ratio of the IPA estimate (3 to 8).
    """

    name = "sens-hr2d"
    scenario = "hr2d"
    command = "sensitivity"
    sim_updates = {"horizon": 1.0, "burn_in": 0.1, "n_paths": 8}
    PAIRED_SIGMAS = 4.0
    #: Allowed relative gap between report and rebuilt means (rounding only).
    TOL = 1e-9

    def __init__(self, workdir):
        super().__init__(workdir)
        self.differences = []   # per-path IPA - FD(eps/2) of each checked unit

    def paired_paths(self, seed: int):
        """Per-path IPA means and FD(eps/2) differences of the unit's seed."""
        cfg = self.cfg
        sim = replace(cfg.sim, seed=seed)
        functional = cfg.functional()

        def tail_mean(traj, series):
            return series[traj.times > sim.burn_in].mean()

        joint = rbmsens.simulate_joint(cfg.model, sim, x0=cfg.x0, j0=cfg.j0)
        ipa = np.array([tail_mean(t, np.einsum("kj,kj->k",
                                               functional.f_prime(t.z), t.jac))
                        for t in joint])
        eps = cfg.fd_epsilon / 2.0
        plus = rbmsens.simulate_rbm(rbmsens.perturbed_model(cfg.model, eps),
                                    sim, x0=cfg.x0)
        minus = rbmsens.simulate_rbm(rbmsens.perturbed_model(cfg.model, -eps),
                                     sim, x0=cfg.x0)
        fd = np.array([tail_mean(p, functional.f(p.z) - functional.f(m.z))
                       / (2.0 * eps) for p, m in zip(plus, minus)])
        return ipa, fd

    def paired_problems(self, diff, scope: str) -> list[str]:
        sigma = diff.std(ddof=1) / math.sqrt(diff.size)
        if abs(diff.mean()) <= self.PAIRED_SIGMAS * sigma:
            return []
        return [f"{scope}: mean IPA - FD(eps/2) over {diff.size} paths is "
                f"{diff.mean():.3g}, beyond {self.PAIRED_SIGMAS:g} paired "
                f"sigma = {self.PAIRED_SIGMAS * sigma:.3g}"]

    def check(self, seed, code):
        if code != 0:
            return [f"exit code {code}"]
        rows = read_report(self.out)
        eps = self.cfg.fd_epsilon
        layout = [(r["method"], r["fd_epsilon"]) for r in rows]
        if ([m for m, _ in layout] != ["ipa", "fd-crn", "fd-crn"]
                or float(layout[1][1]) != eps or float(layout[2][1]) != eps / 2):
            return [f"report rows {layout}, expected ipa and fd-crn at "
                    f"eps={eps:g} and eps/2"]
        ipa, fd = self.paired_paths(seed)
        problems = []
        for row, per_path in ((rows[0], ipa), (rows[2], fd)):
            got = (float(row["estimate"]), float(row["stderr"]))
            want = (per_path.mean(),
                    per_path.std(ddof=1) / math.sqrt(per_path.size))
            if not all(math.isclose(g, w, rel_tol=self.TOL, abs_tol=1e-15)
                       for g, w in zip(got, want)):
                problems.append(f"{row['method']} row (estimate, stderr) = "
                                f"{got}, rebuilt per-path values give {want}")
        self.differences.append(ipa - fd)
        return problems + self.paired_problems(ipa - fd, "unit")

    def run_check(self):
        if len(self.differences) < 2:
            return []
        return self.paired_problems(np.concatenate(self.differences),
                                    f"{len(self.differences)} units pooled")

    def estimate(self):
        rows = read_report(self.out)
        ipa, fd_half = float(rows[0]["estimate"]), float(rows[2]["estimate"])
        return abs(ipa - fd_half), float(rows[0]["stderr"])


class Halfline1Path(Workload):
    """``stationary`` on halfline with one path, then a whole-path solve phase.

    At horizon 12 the boundary-step share is already stationary: 4.6%
    (seed-to-seed SD 1.6%), against 4.4% at horizon 100.  The
    solve phase folds ``DRIVERS`` Euler drivers of ``DRIVER_STEPS``
    steps, drawn with ``brownian_increments``, through ``sp_solve_path``.
    Both phases are checked against the running-maximum oracle: the
    command's reported mean and error bar must equal the batch-means
    statistics of the oracle path built from the same noise stream.
    """

    name = "halfline-1path"
    scenario = "halfline"
    command = "stationary"
    sim_updates = {"horizon": 12.0, "burn_in": 1.2, "n_paths": 1}
    DRIVERS = 1
    DRIVER_STEPS = 10_000
    #: Batches of the command's single-path error bar.
    BATCHES = 32
    #: Allowed gap between the command and the oracle (rounding only).
    TOL = 1e-10

    def __init__(self, workdir):
        super().__init__(workdir)
        self.solved = []

    def driver(self, seed: int, stream: int, n_steps: int, start: float = 0.0):
        """Euler driver of the halfline model on stream (seed, stream)."""
        model, dt = self.cfg.model, self.cfg.sim.dt
        dw = rbmsens.brownian_increments(rbmsens.RngContract(seed, stream),
                                         n_steps, dt, 1)
        steps = model.drift[0] * dt + model.dispersion[0, 0] * dw[:, 0]
        return rbmsens.DiscretePath(dt * np.arange(n_steps + 1),
                                    start + np.concatenate([[0.0], np.cumsum(steps)]))

    def run(self, seed):
        code = super().run(seed)
        self.solved = []
        for stream in range(self.DRIVERS):
            driver = self.driver(seed, stream, self.DRIVER_STEPS)
            self.solved.append((driver, rbmsens.sp_solve_path(self.cfg.model, driver)))
        return code

    def oracle_estimate(self, seed: int) -> tuple[float, float]:
        """Mean and batch-means stderr of the oracle path on the command's noise.

        The command draws path 0 from stream (seed, 0) in the order
        ``brownian_increments`` does, so the running-maximum formula
        applied to that driver is the path the engine must produce.
        """
        sim = self.cfg.sim
        driver = self.driver(seed, 0, sim.n_steps(), float(self.cfg.x0[0]))
        z = rbmsens.sp_1d_oracle(driver).values[:, 0]
        series = self.cfg.functional_coefficients[0] * z[driver.times > sim.burn_in]
        series = series[series.size % self.BATCHES:]
        means = series.reshape(self.BATCHES, -1).mean(axis=1)
        return float(means.mean()), float(means.std(ddof=1) / math.sqrt(self.BATCHES))

    def check(self, seed, code):
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        rows = read_report(self.out)
        if [r["method"] for r in rows] != ["stationary"]:
            return [f"report methods {[r['method'] for r in rows]}"]
        got = (float(rows[0]["estimate"]), float(rows[0]["stderr"]))
        want = self.oracle_estimate(seed)
        if not all(abs(g - w) <= self.TOL for g, w in zip(got, want)):
            problems.append(f"(mean, stderr) = {got}, running-max oracle gives {want}")
        for k, (driver, result) in enumerate(self.solved):
            oracle = rbmsens.sp_1d_oracle(driver).values
            gap = float(np.max(np.abs(result.constrained.values - oracle)))
            if not gap <= self.TOL:
                problems.append(f"driver {k}: sp_solve_path differs from the "
                                f"running-max oracle by {gap:.3g}")
        return problems

    def estimate(self):
        """Error against the exact stationary mean s^2 / (2 mu) of the model."""
        row = read_report(self.out)[0]
        mu = -float(self.cfg.model.drift[0])
        exact = float(self.cfg.model.dispersion[0, 0]) ** 2 / (2.0 * mu)
        return abs(float(row["estimate"]) - exact), float(row["stderr"])


class SimulateOrtho2d64(Workload):
    """``simulate --out`` on ortho2d with 64 paths: one CSV per path.

    At horizon 0.5 (1,250 steps) the stored trajectories take 5.1 MB,
    about a tenth of the peak resident memory of a process that runs one
    unit, so a change to trajectory storage shows in ``peak_rss_mb``.
    """

    name = "simulate-ortho2d-64"
    scenario = "ortho2d"
    command = "simulate"
    sim_updates = {"horizon": 0.5, "burn_in": 0.0, "n_paths": 64}
    out_name = "traj.csv"

    def trajectory_files(self):
        base = self.out[:-len(".csv")]
        return [self.out] + [f"{base}_p{p}.csv"
                             for p in range(1, self.cfg.sim.n_paths)]

    def check(self, seed, code):
        if code != 0:
            return [f"exit code {code}"]
        cfg = self.cfg
        oracle = rbmsens.simulate_joint(cfg.model, replace(cfg.sim, seed=seed),
                                        x0=cfg.x0, j0=cfg.j0)
        problems = []
        header = ",".join(["t", "Z_1", "Z_2", "J_1", "J_2", "L_1", "L_2", "faces"])
        for p, (path, traj) in enumerate(zip(self.trajectory_files(), oracle)):
            with open(path) as fh:
                fh.readline()
                if fh.readline().rstrip("\n") != header:
                    problems.append(f"path {p}: header is not {header}")
                    continue
            data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
            expected = np.column_stack([traj.times, traj.z, traj.jac, traj.ell,
                                        traj.face_log.astype(float)])
            if data.shape != expected.shape or not np.array_equal(data, expected):
                problems.append(f"path {p}: {os.path.basename(path)} does not "
                                "round-trip to the simulate_joint arrays")
                continue
            pushing = traj.ell @ cfg.model.reflections.T
            result = rbmsens.SPResult(
                constrained=rbmsens.DiscretePath(traj.times, traj.z),
                pushing=rbmsens.DiscretePath(traj.times, pushing),
                local_time=rbmsens.DiscretePath(traj.times, traj.ell))
            gap = complementarity_gap(cfg.model, result)
            if not gap <= cfg.sim.face_tol:
                problems.append(f"path {p}: complementarity gap {gap:.3g} "
                                f"exceeds face_tol {cfg.sim.face_tol:g}")
        return problems


WORKLOADS = {w.name: w for w in (SensHr2d, Halfline1Path, SimulateOrtho2d64)}
