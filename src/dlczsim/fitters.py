"""Weighted least-squares fits used by the link experiments.

Three models: exponential decay R0*exp(-t/tau0) for memory retrieval, a line
through the origin for mode scaling, and A*(1 + V*cos(theta + theta0)) for
interference fringes. Weights default to inverse-variance for Poisson counts,
w = 1/max(y, 1).

The nonlinear models run a damped Gauss-Newton (Levenberg-Marquardt) loop that
stops when the relative parameter step falls below 1e-10 or after 200
iterations; `FitResult.converged` reports which. Parameter standard errors
come from the weighted-least-squares covariance s^2 (J^T W J)^-1.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError

__all__ = ["Samples", "FitResult", "fit_exponential", "fit_linear_origin", "fit_sinusoid"]

STEP_TOLERANCE = 1e-10
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class Samples:
    """Weighted (x, y) data points."""

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.shape != w.shape:
            raise ParameterError("x, y and weight must be 1-d arrays of equal length")
        if x.size < 2:
            raise ParameterError("at least 2 points are required")
        for name, values in (("x", x), ("y", y), ("weight", w)):
            if not np.isfinite(values).all():
                raise ParameterError(f"{name} values must be finite (no NaN or inf)")
        if not (w > 0).all():
            raise ParameterError("weights must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weight", w)

    @classmethod
    def from_xy(cls, x, y, weight=None) -> "Samples":
        """Build samples, defaulting to Poisson inverse-variance weights."""
        y = np.asarray(y, dtype=float)
        if weight is None:
            weight = 1.0 / np.maximum(y, 1.0)
        return cls(np.asarray(x, dtype=float), y, np.asarray(weight, dtype=float))

    @classmethod
    def from_csv(cls, path) -> "Samples":
        """Read columns x,y[,weight] (header row required)."""
        try:
            with open(Path(path), newline="") as fh:
                # a comment reads as an empty record, so records keep line numbers
                records = list(csv.reader("" if line.startswith("#") else line for line in fh))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        numbered = [(lineno, row) for lineno, row in enumerate(records, start=1) if row]
        if not numbered:
            raise ConfigError(f"{path}: empty CSV")
        header = numbered[0][1]
        cols = [c.strip().lower() for c in header]
        if cols not in (["x", "y"], ["x", "y", "weight"]):
            raise ConfigError(f"{path}: expected header x,y[,weight], got {header}")
        rows = []
        for lineno, row in numbered[1:]:
            if len(row) != len(cols):
                raise ConfigError(f"{path}:{lineno}: expected {len(cols)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed CSV value: {exc}") from exc
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        data = np.asarray(rows, dtype=float)
        weight = data[:, 2] if data.shape[1] > 2 else None
        return cls.from_xy(data[:, 0], data[:, 1], weight)


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with their uncertainties and solver diagnostics."""

    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    rss: float                  # weighted residual sum of squares
    converged: bool
    iterations: int

    def __post_init__(self):
        # an infinite stderr is the flat fringe's answer (no visibility to
        # measure); a NaN one, or any non-finite estimate, is no answer at all
        if not (all(map(math.isfinite, (*self.params.values(), self.rss)))
                and not any(map(math.isnan, self.stderr.values()))):
            raise ParameterError(f"the {self.model} fit of these values is not finite")


def _numeric(fit):
    """Raise ParameterError where ``fit``'s arithmetic or linear algebra fails."""
    @functools.wraps(fit)
    def guarded(samples: Samples) -> FitResult:
        try:
            return fit(samples)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            raise ParameterError(f"{fit.__name__} failed on these values: {exc}") from exc
    return guarded


def _covariance(jacobian: np.ndarray, weight: np.ndarray, rss: float) -> np.ndarray:
    m, p = jacobian.shape
    jtj = jacobian.T @ (weight[:, None] * jacobian)
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"singular normal equations: {exc}") from exc
    scale = rss / (m - p) if m > p else 0.0
    return cov * scale


def _levenberg_marquardt(model, jacobian, x0, samples: Samples):
    """Damped Gauss-Newton on weighted residuals. Returns (x, rss, converged, iters)."""
    x = np.asarray(x0, dtype=float)
    w = samples.weight
    damping = 1e-3
    residual = samples.y - model(x)
    rss = float(w @ residual ** 2)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(x)
        jtj = jac.T @ (w[:, None] * jac)
        grad = jac.T @ (w * residual)
        try:
            step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), grad)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(f"singular step equations: {exc}") from exc
        candidate = x + step
        cand_residual = samples.y - model(candidate)
        cand_rss = float(w @ cand_residual ** 2)
        if cand_rss <= rss:
            rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(candidate), 1e-300)))
            x, residual, rss = candidate, cand_residual, cand_rss
            damping = max(damping / 3.0, 1e-12)
            if rel_step < STEP_TOLERANCE:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    return x, rss, converged, iterations


@_numeric
def fit_exponential(samples: Samples) -> FitResult:
    """Fit y = r0 * exp(-x / tau0), seeded from a log-linear regression."""
    if samples.x.size < 3:
        raise ParameterError("exponential fit needs at least 3 points")
    if (samples.x < 0).any():
        raise ParameterError("exponential fit requires x >= 0")
    if (samples.y <= 0).any():
        raise ParameterError("exponential fit requires y > 0 for log seeding")
    if np.ptp(samples.x) == 0.0:
        raise ParameterError("all x values are equal; tau0 is unidentifiable")

    # log-linear seed: ln y = ln r0 - x / tau0
    coeffs = np.polyfit(samples.x, np.log(samples.y), 1, w=np.sqrt(samples.weight) * samples.y)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    if abs(slope) * np.ptp(samples.x) < 1e-9 * (1.0 + abs(intercept)):
        raise ParameterError("data are constant in x; tau0 -> infinity is unidentifiable")
    seed = np.array([math.exp(intercept), -1.0 / slope])

    def model(p):
        return p[0] * np.exp(-samples.x / p[1])

    def jacobian(p):
        decay = np.exp(-samples.x / p[1])
        return np.column_stack([decay, p[0] * decay * samples.x / p[1] ** 2])

    x, rss, converged, iterations = _levenberg_marquardt(model, jacobian, seed, samples)
    cov = _covariance(jacobian(x), samples.weight, rss)
    return FitResult(
        model="exponential",
        params={"r0": float(x[0]), "tau0": float(x[1])},
        stderr={"r0": float(np.sqrt(cov[0, 0])), "tau0": float(np.sqrt(cov[1, 1]))},
        rss=rss,
        converged=converged,
        iterations=iterations,
    )


@_numeric
def fit_linear_origin(samples: Samples) -> FitResult:
    """Fit y = slope * x through the origin (closed form)."""
    w, x, y = samples.weight, samples.x, samples.y
    sxx = float(w @ (x * x))
    if sxx == 0.0:
        raise ParameterError("all x values are 0; the slope is unidentifiable")
    slope = float(w @ (x * y)) / sxx
    residual = y - slope * x
    rss = float(w @ residual ** 2)
    dof = max(x.size - 1, 1)
    stderr = math.sqrt(rss / dof / sxx)
    return FitResult(
        model="linear_origin",
        params={"slope": slope},
        stderr={"slope": stderr},
        rss=rss,
        converged=True,
        iterations=1,
    )


@_numeric
def fit_sinusoid(samples: Samples) -> FitResult:
    """Fit y = A * (1 + V * cos(x + theta0)) with V constrained to [0, 1].

    The model is linear in (c0, c1, c2) = (A, A V cos theta0, -A V sin theta0),
    so the unconstrained optimum is a single weighted linear solve; a damped
    Gauss-Newton pass at V = 1 handles the rare boundary case.
    """
    if samples.x.size < 4:
        raise ParameterError("sinusoid fit needs at least 4 points")
    if np.ptp(samples.x) <= math.pi:
        raise ParameterError(
            f"phase coverage {np.ptp(samples.x):.3f} rad spans no more than half a period")

    design = np.column_stack([np.ones_like(samples.x), np.cos(samples.x), np.sin(samples.x)])
    sw = np.sqrt(samples.weight)
    scaled = design * sw[:, None]
    if np.linalg.cond(scaled) > 1e10:
        raise ParameterError("phase sampling leaves the fringe parameters degenerate")
    coeff, *_ = np.linalg.lstsq(scaled, samples.y * sw, rcond=None)
    c0, c1, c2 = (float(c) for c in coeff)

    residual = samples.y - design @ coeff
    rss = float(samples.weight @ residual ** 2)
    cov = _covariance(design, samples.weight, rss)

    amplitude = c0
    modulus = math.hypot(c1, c2)
    iterations = 1
    converged = True
    if amplitude <= 0.0:
        # no fringe at all (e.g. all-zero counts): report the flat solution
        vis, theta0 = 0.0, 0.0
        amplitude = max(amplitude, 0.0)
        stderr = {"amplitude": float(np.sqrt(cov[0, 0])), "visibility": math.inf, "theta0": math.inf}
    else:
        vis = modulus / amplitude
        theta0 = math.atan2(-c2, c1) if modulus > 0.0 else 0.0
        if vis > 1.0:
            amplitude, theta0, rss, converged, iterations = _refit_unit_visibility(
                samples, amplitude, theta0)
            vis = 1.0
        if modulus == 0.0:
            grad_v = np.array([0.0, 1.0 / amplitude, 1.0 / amplitude])
            grad_t = np.zeros(3)
        else:
            grad_v = np.array([-modulus / amplitude ** 2,
                               c1 / (modulus * amplitude),
                               c2 / (modulus * amplitude)])
            grad_t = np.array([0.0, c2 / modulus ** 2, -c1 / modulus ** 2])
        stderr = {
            "amplitude": float(np.sqrt(cov[0, 0])),
            "visibility": float(np.sqrt(grad_v @ cov @ grad_v)),
            "theta0": float(np.sqrt(grad_t @ cov @ grad_t)),
        }
    return FitResult(
        model="sinusoid",
        params={"amplitude": amplitude, "visibility": vis, "theta0": theta0},
        stderr=stderr,
        rss=rss,
        converged=converged,
        iterations=iterations,
    )


def _refit_unit_visibility(samples: Samples, amplitude: float, theta0: float):
    """Constrained branch: optimize A and theta0 with V pinned to 1."""

    def model(p):
        return p[0] * (1.0 + np.cos(samples.x + p[1]))

    def jacobian(p):
        return np.column_stack([
            1.0 + np.cos(samples.x + p[1]),
            -p[0] * np.sin(samples.x + p[1]),
        ])

    x, rss, converged, iterations = _levenberg_marquardt(
        model, jacobian, np.array([amplitude, theta0]), samples)
    return float(x[0]), float(x[1]), rss, converged, iterations + 1
