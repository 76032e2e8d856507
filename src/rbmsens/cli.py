"""Command line front end.

One scenario file (or a named builtin) drives every command:

    rbmsens --config builtin:halfline --command check
    rbmsens --config scen.cfg --command sensitivity --out report.csv

Commands: check, simulate, stationary, sensitivity, contraction,
lyapunov, sweep.  Exit codes: 0 success, 2 configuration problems
(including numbers that are not finite), 3 geometry rejection
(including unstable drift and couplings outside Q >= 0, rho(Q) < 1),
4 a ``lyapunov`` path that does not reach the origin by its horizon,
5 estimator misuse.  CSV bodies contain no timestamps, so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TextIO

from .config import ScenarioConfig, builtin_scenario, load_config
from .derivative import delta0_probes
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EstimationError, GeometryError, RbmError)
from .estimators import (REPORT_CSV_HEADER, SensitivityReport, fd_report,
                         ipa_sensitivity, stationary_estimate,
                         write_report_csv)
from .estimators import fd_oracle  # noqa: F401  (bench/spans.py wraps this name)
from .geometry import (ConeModel, drift_stability_check, perturbed_model,
                       validate_cone)
from .sim import (open_text_target, simulate_joint, simulate_rbm,
                  simulate_variants, write_trajectory_csv)
from .skorokhod import lyapunov_m

COMMANDS = ("check", "simulate", "stationary", "sensitivity", "contraction",
            "lyapunov", "sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_CONVERGENCE = 4
EXIT_ESTIMATION = 5

#: Where a command writes: the --out path, or stdout when it is omitted.
Target = str | TextIO


def _load_scenario(spec: str) -> ScenarioConfig:
    if spec.startswith("builtin:"):
        return builtin_scenario(spec.split(":", 1)[1])
    try:
        return load_config(spec)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {spec}") from None


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    sim = cfg.sim
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.paths is not None:
        updates["n_paths"] = args.paths
    if args.dt is not None:
        updates["dt"] = args.dt
    if updates:
        try:
            cfg = replace(cfg, sim=replace(sim, **updates))
        except ValueError as err:
            raise ConfigError(f"override rejected: {err}") from None
    return cfg


def _cmd_check(cfg: ScenarioConfig, out: Target) -> int:
    report = validate_cone(cfg.model)
    stable, w = drift_stability_check(cfg.model)
    lines = [report.summary()]
    lines.append(f"[{'ok' if stable else 'FAIL'}] drift-stable "
                 f"w={' '.join(f'{v:.6g}' for v in w)}")
    accepted = report.accepted and stable
    lines.append("accepted" if accepted else "rejected")
    with open_text_target(out) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if accepted else EXIT_GEOMETRY


def _cmd_simulate(cfg: ScenarioConfig, out: Target) -> int:
    trajs = simulate_joint(cfg.model, cfg.sim, x0=cfg.x0, j0=cfg.j0)
    if not isinstance(out, str):
        write_trajectory_csv(out, trajs[0])
        if len(trajs) > 1:
            print(f"# {len(trajs) - 1} further paths not shown; "
                  "use --out to write every stream", file=sys.stderr)
        return EXIT_OK
    stem, dot, ext = out.rpartition(".")
    base = stem if dot else out
    suffix = f".{ext}" if dot else ""
    for p, traj in enumerate(trajs):
        target = out if p == 0 else f"{base}_p{p}{suffix}"
        write_trajectory_csv(target, traj)
    return EXIT_OK


def _stationary_report(cfg: ScenarioConfig, functional,
                       trajs) -> SensitivityReport:
    """Stationary mean of ``functional`` over ``trajs``, run with cfg's knobs."""
    estimate, stderr = stationary_estimate(functional, trajs,
                                           burn_in=cfg.sim.burn_in)
    return SensitivityReport(
        estimate=estimate, stderr=stderr, n_paths=cfg.sim.n_paths,
        method="stationary", horizon=cfg.sim.horizon, burn_in=cfg.sim.burn_in,
        dt=cfg.sim.dt, seed=cfg.sim.seed)


def _validated_shift(model: ConeModel, alpha: float, what: str) -> ConeModel:
    """The model shifted by ``alpha``; GeometryError if it leaves the regime."""
    shifted = perturbed_model(model, alpha)
    report = validate_cone(shifted)
    if not report.accepted:
        raise GeometryError(f"{what} leaves the accepted regime:\n"
                            + report.summary())
    return shifted


def _cmd_stationary(cfg: ScenarioConfig, out: Target) -> int:
    trajs = simulate_rbm(cfg.model, cfg.sim, x0=cfg.x0)
    write_report_csv(out, [_stationary_report(cfg, cfg.functional(), trajs)])
    return EXIT_OK


def _cmd_sensitivity(cfg: ScenarioConfig, out: Target) -> int:
    """IPA plus CRN finite differences at eps and eps/2, in one pass.

    The base model (with the derivative recursion) and its four shifts
    +eps, -eps, +eps/2, -eps/2 run as variants on the same noise.
    """
    functional = cfg.functional()
    epsilons = (cfg.fd_epsilon, cfg.fd_epsilon / 2.0)
    shifted = [_validated_shift(cfg.model, alpha,
                                f"finite-difference shift {alpha:+g} "
                                "(reduce fd_epsilon)")
               for eps in epsilons for alpha in (eps, -eps)]
    joint, *fd_runs = simulate_variants([cfg.model, *shifted], cfg.sim,
                                        x0=cfg.x0, j0=cfg.j0, joint=True)
    reports = [ipa_sensitivity(functional, joint, burn_in=cfg.sim.burn_in)]
    for eps, plus, minus in zip(epsilons, fd_runs[0::2], fd_runs[1::2]):
        reports.append(fd_report(functional, plus, minus, cfg.sim, eps))
    write_report_csv(out, reports)
    return EXIT_OK


def _cmd_contraction(cfg: ScenarioConfig, out: Target) -> int:
    report = validate_cone(cfg.model)
    if not report.accepted:
        raise GeometryError("model rejected; contraction probes are only "
                            "defined in the accepted regime:\n"
                            + report.summary())
    table = delta0_probes(cfg.model, n_sequences=200, seed=cfg.sim.seed)
    delta0 = max(value for _, value in table)
    with open_text_target(out) as fh:
        fh.write(f"# delta0 = {delta0:.17g}\n")
        fh.write("sequence,norm\n")
        for seq, value in table:
            label = ">".join("+".join(str(i) for i in sorted(s)) for s in seq)
            fh.write(f"{label},{value:.17g}\n")
    return EXIT_OK


def _cmd_lyapunov(cfg: ScenarioConfig, out: Target) -> int:
    value = lyapunov_m(cfg.model, cfg.x0, dt=cfg.sim.dt)
    with open_text_target(out) as fh:
        fh.write(f"return_time\n{value:.17g}\n")
    return EXIT_OK


def _cmd_sweep(cfg: ScenarioConfig, out: Target) -> int:
    """Stationary estimate at every offset; all offsets run in one pass."""
    functional = cfg.functional()
    offsets = cfg.sweep_offsets
    shifted = [_validated_shift(cfg.model, offset, f"sweep offset {offset:g}")
               for offset in offsets]
    runs = simulate_variants(shifted, cfg.sim, x0=cfg.x0)
    with open_text_target(out) as fh:
        fh.write("alpha," + REPORT_CSV_HEADER + "\n")
        for offset, trajs in zip(offsets, runs):
            report = _stationary_report(cfg, functional, trajs)
            fh.write(f"{offset:.17g},{report.csv_row()}\n")
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "sensitivity": _cmd_sensitivity,
    "contraction": _cmd_contraction,
    "lyapunov": _cmd_lyapunov,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmsens",
        description="Reflected Brownian motion: simulation and sensitivities.")
    parser.add_argument("--config", required=True,
                        help="scenario file, or builtin:<name> "
                             "(halfline, ortho2d, hr2d, hr2d_refl)")
    parser.add_argument("--command", required=True, choices=COMMANDS,
                        help="what to run")
    parser.add_argument("--out", default=None,
                        help="output file (stdout when omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--paths", type=int, default=None,
                        help="override the scenario path count")
    parser.add_argument("--dt", type=float, default=None,
                        help="override the scenario step size")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_scenario(args.config)
        cfg = _apply_overrides(cfg, args)
        out = sys.stdout if args.out is None else args.out
        return _HANDLERS[args.command](cfg, out)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, DomainError) as err:
        print(f"geometry rejected: {err}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ConvergenceError as err:
        print(f"did not converge: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except EstimationError as err:
        print(f"estimation error: {err}", file=sys.stderr)
        return EXIT_ESTIMATION
    except RbmError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
