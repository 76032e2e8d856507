"""Scenario configuration: schema, parser, emitter, builtin registry.

A scenario file is a small INI-style document with four sections:

    [geometry]      dimension, normals, reflections
    [coefficients]  drift, drift_deriv, dispersion, dispersion_deriv,
                    reflection_deriv
    [sim]           name, dt, horizon, burn_in, n_paths, seed, face_tol,
                    decimate, x0, j0, fd_epsilon, sweep_offsets
    [functional]    kind, coefficients

Vectors are whitespace- or comma-separated numbers; a single number
broadcasts to every coordinate.  Matrices list rows separated by ';'
(or all entries flat, row-major); a single number means that multiple
of the identity.  Every number must be finite.  '#' starts a comment.
Parsing collects every problem with its line number and raises one
ConfigError, so a bad file is reported in full rather than one field
at a time; nothing is constructed from a file with errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .estimators import Functional, linear_functional, log1p_sum_functional
from .geometry import ConeModel
from .sim import SimConfig

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "emit_config",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]

_GEOMETRY_KEYS = {"dimension", "normals", "reflections"}
_COEFF_KEYS = {"drift", "drift_deriv", "dispersion", "dispersion_deriv",
               "reflection_deriv"}
_SIM_KEYS = {"name", "dt", "horizon", "burn_in", "n_paths", "seed",
             "face_tol", "decimate", "x0", "j0", "fd_epsilon",
             "sweep_offsets"}
_FUNCTIONAL_KEYS = {"kind", "coefficients"}
_SECTION_KEYS = {"geometry": _GEOMETRY_KEYS, "coefficients": _COEFF_KEYS,
                 "sim": _SIM_KEYS, "functional": _FUNCTIONAL_KEYS}

FUNCTIONAL_KINDS = ("linear", "log1p_sum")

_DEFAULT_SWEEP = (-0.1, -0.05, 0.0, 0.05, 0.1)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything one run needs: model, start, sim knobs, functional."""

    name: str
    model: ConeModel
    x0: np.ndarray
    j0: np.ndarray
    sim: SimConfig
    functional_kind: str
    functional_coefficients: np.ndarray | None
    fd_epsilon: float
    sweep_offsets: tuple[float, ...]

    def __post_init__(self):
        for field_name in ("x0", "j0"):
            arr = np.array(getattr(self, field_name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)
        if self.functional_coefficients is not None:
            arr = np.array(self.functional_coefficients, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "functional_coefficients", arr)

    def functional(self) -> Functional:
        if self.functional_kind == "linear":
            coeff = self.functional_coefficients
            if coeff is None:
                coeff = np.ones(self.model.dim)
            return linear_functional(coeff)
        if self.functional_kind == "log1p_sum":
            return log1p_sum_functional()
        raise ConfigError(f"unknown functional kind '{self.functional_kind}'")


def _number(raw: str) -> float:
    """A finite float; nan and inf raise ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{raw.strip()}'")
    return value


def _parse_vector(raw: str, dim: int) -> np.ndarray:
    parts = raw.replace(",", " ").split()
    values = [_number(p) for p in parts]
    if len(values) == 1:
        return np.full(dim, values[0])
    if len(values) != dim:
        raise ValueError(f"expected {dim} entries (or one to broadcast), "
                         f"got {len(values)}")
    return np.array(values)


def _parse_matrix(raw: str, dim: int) -> np.ndarray:
    raw = raw.strip()
    if ";" in raw:
        rows = [r for r in raw.split(";") if r.strip()]
        if len(rows) != dim:
            raise ValueError(f"expected {dim} rows separated by ';', got {len(rows)}")
        out = []
        for row in rows:
            entries = [_number(p) for p in row.replace(",", " ").split()]
            if len(entries) != dim:
                raise ValueError(f"row '{row.strip()}' has {len(entries)} "
                                 f"entries, expected {dim}")
            out.append(entries)
        return np.array(out)
    parts = raw.replace(",", " ").split()
    values = [_number(p) for p in parts]
    if len(values) == 1:
        return values[0] * np.identity(dim)
    if len(values) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries row-major (or one "
                         f"for a multiple of the identity), got {len(values)}")
    return np.array(values).reshape(dim, dim)


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario text; raise ConfigError listing every problem."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    problems: list[str] = []
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got '{line}'")
            continue
        if section is None:
            problems.append(f"line {lineno}: entry outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SECTION_KEYS[section]:
            problems.append(f"line {lineno}: unknown key '{key}' in [{section}]")
            continue
        if (section, key) in entries:
            first = entries[(section, key)][1]
            problems.append(f"line {lineno}: duplicate key '{key}' in "
                            f"[{section}] (first set on line {first})")
            continue
        entries[(section, key)] = (value, lineno)

    def take(section: str, key: str, parser, default=None, required=False):
        item = entries.pop((section, key), None)
        if item is None:
            if required:
                problems.append(f"missing required key '{key}' in [{section}]")
            return default
        value, lineno = item
        try:
            return parser(value)
        except (ValueError, TypeError) as err:
            problems.append(f"line {lineno}: [{section}] {key}: {err}")
            return default

    dim = take("geometry", "dimension", int, required=True)
    if dim is not None and dim < 1:
        problems.append("[geometry] dimension must be at least 1")
        dim = None

    if dim is None:
        raise ConfigError(problems or ["missing [geometry] dimension"])

    normals = take("geometry", "normals",
                   lambda v: _parse_matrix(v, dim), required=True)
    reflections = take("geometry", "reflections",
                       lambda v: _parse_matrix(v, dim), required=True)
    drift = take("coefficients", "drift",
                 lambda v: _parse_vector(v, dim), required=True)
    dispersion = take("coefficients", "dispersion",
                      lambda v: _parse_matrix(v, dim), required=True)
    drift_deriv = take("coefficients", "drift_deriv",
                       lambda v: _parse_vector(v, dim), default=np.zeros(dim))
    dispersion_deriv = take("coefficients", "dispersion_deriv",
                            lambda v: _parse_matrix(v, dim),
                            default=np.zeros((dim, dim)))
    reflection_deriv = take("coefficients", "reflection_deriv",
                            lambda v: _parse_matrix(v, dim),
                            default=np.zeros((dim, dim)))

    name = take("sim", "name", str, default="scenario")
    dt = take("sim", "dt", _number, default=1e-3)
    horizon = take("sim", "horizon", _number, default=100.0)
    burn_in = take("sim", "burn_in", _number, default=0.0)
    n_paths = take("sim", "n_paths", int, default=1)
    seed = take("sim", "seed", int, default=0)
    face_tol = take("sim", "face_tol", _number, default=1e-9)
    decimate = take("sim", "decimate", int, default=1)
    x0 = take("sim", "x0", lambda v: _parse_vector(v, dim),
              default=np.zeros(dim))
    j0 = take("sim", "j0", lambda v: _parse_vector(v, dim),
              default=np.zeros(dim))
    fd_epsilon = take("sim", "fd_epsilon", _number, default=0.05)
    sweep_offsets = take(
        "sim", "sweep_offsets",
        lambda v: tuple(_number(p) for p in v.replace(",", " ").split()),
        default=_DEFAULT_SWEEP)

    kind = take("functional", "kind", str, default="linear")
    if kind is not None and kind not in FUNCTIONAL_KINDS:
        problems.append(f"[functional] kind must be one of "
                        f"{', '.join(FUNCTIONAL_KINDS)}, got '{kind}'")
    coefficients = take("functional", "coefficients",
                        lambda v: _parse_vector(v, dim), default=None)
    if kind == "log1p_sum" and coefficients is not None:
        problems.append("[functional] coefficients only apply to kind=linear")

    if fd_epsilon is not None and not fd_epsilon > 0.0:
        problems.append("[sim] fd_epsilon must be positive")

    model = None
    if not problems:
        try:
            model = ConeModel(normals=normals, reflections=reflections,
                              drift=drift, dispersion=dispersion,
                              drift_deriv=drift_deriv,
                              dispersion_deriv=dispersion_deriv,
                              reflection_deriv=reflection_deriv)
        except GeometryError as err:
            problems.append(f"geometry rejected: {err}")
    sim = None
    if not problems:
        try:
            sim = SimConfig(dt=dt, horizon=horizon, burn_in=burn_in,
                            seed=seed, n_paths=n_paths, face_tol=face_tol,
                            decimate=decimate)
        except ValueError as err:
            problems.append(f"[sim] {err}")

    if problems:
        raise ConfigError(problems)
    if kind == "linear" and coefficients is None:
        coefficients = np.ones(dim)
    return ScenarioConfig(name=name, model=model, x0=x0, j0=j0, sim=sim,
                          functional_kind=kind,
                          functional_coefficients=coefficients,
                          fd_epsilon=fd_epsilon,
                          sweep_offsets=tuple(sweep_offsets))


def load_config(path) -> ScenarioConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _fmt_vector(vec) -> str:
    return " ".join(_fmt(v) for v in np.asarray(vec).ravel())


def _fmt_matrix(mat) -> str:
    return "; ".join(" ".join(_fmt(v) for v in row) for row in np.asarray(mat))


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a scenario as text that parses back to the same values."""
    model = cfg.model
    lines = [
        "[geometry]",
        f"dimension = {model.dim}",
        f"normals = {_fmt_matrix(model.normals)}",
        f"reflections = {_fmt_matrix(model.reflections)}",
        "",
        "[coefficients]",
        f"drift = {_fmt_vector(model.drift)}",
        f"drift_deriv = {_fmt_vector(model.drift_deriv)}",
        f"dispersion = {_fmt_matrix(model.dispersion)}",
        f"dispersion_deriv = {_fmt_matrix(model.dispersion_deriv)}",
        f"reflection_deriv = {_fmt_matrix(model.reflection_deriv)}",
        "",
        "[sim]",
        f"name = {cfg.name}",
        f"dt = {_fmt(cfg.sim.dt)}",
        f"horizon = {_fmt(cfg.sim.horizon)}",
        f"burn_in = {_fmt(cfg.sim.burn_in)}",
        f"n_paths = {cfg.sim.n_paths}",
        f"seed = {cfg.sim.seed}",
        f"face_tol = {_fmt(cfg.sim.face_tol)}",
        f"decimate = {cfg.sim.decimate}",
        f"x0 = {_fmt_vector(cfg.x0)}",
        f"j0 = {_fmt_vector(cfg.j0)}",
        f"fd_epsilon = {_fmt(cfg.fd_epsilon)}",
        f"sweep_offsets = {' '.join(_fmt(v) for v in cfg.sweep_offsets)}",
        "",
        "[functional]",
        f"kind = {cfg.functional_kind}",
    ]
    if cfg.functional_kind == "linear":
        lines.append(f"coefficients = {_fmt_vector(cfg.functional_coefficients)}")
    return "\n".join(lines) + "\n"


def _halfline() -> ScenarioConfig:
    model = ConeModel(normals=[[1.0]], reflections=[[1.0]], drift=[-1.0],
                      dispersion=[[1.0]], drift_deriv=[1.0])
    sim = SimConfig(dt=1e-3, horizon=2000.0, burn_in=200.0, seed=20260822,
                    n_paths=1)
    return ScenarioConfig(name="halfline", model=model, x0=np.zeros(1),
                          j0=np.zeros(1), sim=sim, functional_kind="linear",
                          functional_coefficients=np.ones(1), fd_epsilon=0.05,
                          sweep_offsets=_DEFAULT_SWEEP)


def _ortho2d() -> ScenarioConfig:
    model = ConeModel(normals=np.identity(2), reflections=np.identity(2),
                      drift=[-1.0, -1.0], dispersion=np.identity(2),
                      drift_deriv=[1.0, 0.0])
    sim = SimConfig(dt=4e-4, horizon=200.0, burn_in=20.0, seed=20260823,
                    n_paths=8)
    return ScenarioConfig(name="ortho2d", model=model, x0=np.zeros(2),
                          j0=np.zeros(2), sim=sim, functional_kind="linear",
                          functional_coefficients=np.ones(2), fd_epsilon=0.05,
                          sweep_offsets=_DEFAULT_SWEEP)


def _hr2d() -> ScenarioConfig:
    model = ConeModel(normals=np.identity(2),
                      reflections=[[1.0, -0.3], [-0.3, 1.0]],
                      drift=[-1.0, -1.0], dispersion=np.identity(2),
                      drift_deriv=[1.0, 0.0])
    sim = SimConfig(dt=5e-4, horizon=200.0, burn_in=20.0, seed=20260824,
                    n_paths=8)
    return ScenarioConfig(name="hr2d", model=model, x0=np.zeros(2),
                          j0=np.zeros(2), sim=sim, functional_kind="linear",
                          functional_coefficients=np.ones(2), fd_epsilon=0.05,
                          sweep_offsets=_DEFAULT_SWEEP)


def _hr2d_refl() -> ScenarioConfig:
    # perturbs the first reflection direction tangentially:
    # d_1(alpha) = (1, -0.3 - alpha); the normal-coordinate diagonal
    # of R' is zero so shifted models keep <d_i, n_i> = 1 exactly.
    model = ConeModel(normals=np.identity(2),
                      reflections=[[1.0, -0.3], [-0.3, 1.0]],
                      drift=[-1.0, -1.0], dispersion=np.identity(2),
                      reflection_deriv=[[0.0, 0.0], [-1.0, 0.0]])
    sim = SimConfig(dt=5e-4, horizon=200.0, burn_in=20.0, seed=20260825,
                    n_paths=8)
    return ScenarioConfig(name="hr2d_refl", model=model, x0=np.zeros(2),
                          j0=np.zeros(2), sim=sim, functional_kind="linear",
                          functional_coefficients=np.ones(2), fd_epsilon=0.05,
                          sweep_offsets=_DEFAULT_SWEEP)


BUILTIN_SCENARIOS = {
    "halfline": _halfline,
    "ortho2d": _ortho2d,
    "hr2d": _hr2d,
    "hr2d_refl": _hr2d_refl,
}


def builtin_scenario(name: str) -> ScenarioConfig:
    """Fetch a registered scenario by name."""
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ConfigError(f"unknown builtin scenario '{name}' "
                          f"(available: {known})") from None
    return factory()
