"""Exception types shared across the package.

Each class marks one failure surface: bad geometry, points outside the
domain, a deterministic path that did not reach its target in time,
malformed configuration, and estimator misuse.  The command line maps
them to distinct exit codes.
"""

from __future__ import annotations


class RbmError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(RbmError):
    """The cone data is structurally unusable (wrong shapes, singular
    normal matrix where an inverse is required, non-transversal
    reflection directions, weight vector not positive, Q = E - N^T R
    outside Q >= 0, rho(Q) < 1)."""


class DomainError(RbmError):
    """A point that should lie in the cone (or in the constraint
    subspace attached to it) does not."""


class ConvergenceError(RbmError):
    """An iterative routine did not reach its target within its budget.

    Raised by ``lyapunov_m`` when the noise-free path has not reached
    the origin by its horizon; the reflection solve is exact and never
    raises it.
    """


class ConfigError(RbmError):
    """A scenario configuration failed to parse or validate.

    ``problems`` lists every offending field with its line number, so
    one run reports all mistakes instead of the first.
    """

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class EstimationError(RbmError):
    """An estimator was called with unusable inputs (too little data
    for an error bar, mismatched random number streams for a paired
    comparison, and similar contract breaks)."""
