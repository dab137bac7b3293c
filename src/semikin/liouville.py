"""Classical phase-space transport along Hamilton characteristics.

Densities obey ∂ρ/∂t = -(p/m)∂ρ/∂x + U'(x)∂ρ/∂p, i.e. they are constant
along the trajectories of ẋ = p/m, ṗ = -U'(x).  The solver is
semi-Lagrangian: every target cell center is traced *backwards* through
the flow and the initial density is read off there with a single
bilinear interpolation — no resampling noise, positivity preserved,
measure conserved up to the interpolation bound.  Which flow kernel
runs follows from the potential:

  free, linear, harmonic:  the potential's closed-form `flow`, exact in
                           one call for any t (the feet of every sample
                           are mapped straight from the node mesh);
  any other smooth U:      velocity Verlet, symplectic and second order,
                           in ⌈|t|/dt⌉ steps (successive samples carry
                           the feet forward, so the Verlet work of a run
                           grows with its last sample time).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import PhaseSpaceDensity, phase_space_mass
from .errors import NumericalFailure
from .schrodinger import PotentialSpec

__all__ = [
    "HamiltonianSpec",
    "flow_map",
    "flow_jacobian",
    "liouville_samples",
    "evolve_liouville",
]

logger = logging.getLogger(__name__)

#: most steps one flow, or one scenario's longest sample, may take
_MAX_STEPS = 10**7
#: relative ρ₀ mass at the open-boundary points crossed by the backtrace
#: before the transport is declared to leak
_BOUNDARY_MASS_TOL = 1e-6


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(x, p) = p²/2m + U(x) with an analytically differentiable U."""

    mass: float
    potential: PotentialSpec

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not getattr(self.potential, "is_smooth", False):
            raise ValueError(
                "classical flow needs a smooth potential; sharp-flagged forms"
                " are not admissible"
            )

    def grad_x(self, x):
        return self.potential.derivative(x)


def _step_count(t: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if abs(t) / dt > _MAX_STEPS:
        raise ValueError(f"|t|/dt = {abs(t) / dt:.3g} exceeds {_MAX_STEPS}")
    return max(1, int(np.ceil(abs(t) / dt - 1e-12)))


def _closed_form(hamiltonian: HamiltonianSpec):
    """The potential's exact flow `flow(x, p, t, mass)`, or None."""
    return getattr(hamiltonian.potential, "flow", None)


def flow_map(x, p, t: float, dt: float, hamiltonian: HamiltonianSpec):
    """Hamilton flow (x, p) ↦ (X_t, P_t), elementwise over arrays.

    A potential with a closed-form `flow` is mapped exactly in one call;
    any other takes ⌈|t|/dt⌉ velocity-Verlet steps that split t evenly.
    Negative `t` runs the reversed flow; `dt` is the (positive) bound on
    the step magnitude, and it is checked on both paths.
    """
    if t == 0.0:
        return np.array(x, copy=True), np.array(p, copy=True)
    n = _step_count(t, dt)
    x = np.array(x, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    exact = _closed_form(hamiltonian)
    if exact is not None:
        return exact(x, p, t, hamiltonian.mass)
    step = t / n
    for _ in range(n):
        p = p - 0.5 * step * hamiltonian.grad_x(x)
        x = x + step * p / hamiltonian.mass
        p = p - 0.5 * step * hamiltonian.grad_x(x)
    return x, p


def flow_jacobian(
    x0: float, p0: float, t: float, hamiltonian: HamiltonianSpec,
    dt: float | None = None, eps: float | None = None,
) -> float:
    """Determinant of the flow map's Jacobian by central differences.

    Liouville's theorem makes this 1 for the exact flow; the closed forms
    and Verlet, being symplectic, reproduce that to roundoff-plus-O(ε²).
    """
    if t == 0.0:
        return 1.0
    if dt is None:
        dt = abs(t) / 1024.0
    if eps is None:
        eps = 1e-4 * max(abs(x0), abs(p0), 1.0)
    xs = np.array([x0 + eps, x0 - eps, x0, x0])
    ps = np.array([p0, p0, p0 + eps, p0 - eps])
    fx, fp = flow_map(xs, ps, t, dt, hamiltonian)
    dxdx = (fx[0] - fx[1]) / (2.0 * eps)
    dpdx = (fp[0] - fp[1]) / (2.0 * eps)
    dxdp = (fx[2] - fx[3]) / (2.0 * eps)
    dpdp = (fp[2] - fp[3]) / (2.0 * eps)
    return float(dxdx * dpdp - dxdp * dpdx)


def _axis_corners(frac, n: int, periodic: bool):
    """Lower/upper neighbour indices and upper weight for one axis.

    Open axes return raw indices that may fall outside [0, n); the caller
    masks those corners to a zero contribution.
    """
    i0 = np.floor(frac).astype(np.int64)
    w = frac - i0
    if periodic:
        return i0 % n, (i0 + 1) % n, w
    return i0, i0 + 1, w


def _bilinear(values: np.ndarray, fx, fp, periodic_x: bool):
    nx, np_ = values.shape
    ax, bx, wx = _axis_corners(fx, nx, periodic_x)
    ap, bp, wp = _axis_corners(fp, np_, False)

    def corner(ix, ip):
        ok = (ip >= 0) & (ip < np_)
        if not periodic_x:
            ok &= (ix >= 0) & (ix < nx)
        return np.where(ok, values[np.clip(ix, 0, nx - 1), np.clip(ip, 0, np_ - 1)], 0.0)

    return (
        (1.0 - wx) * (1.0 - wp) * corner(ax, ap)
        + wx * (1.0 - wp) * corner(bx, ap)
        + (1.0 - wx) * wp * corner(ax, bp)
        + wx * wp * corner(bx, bp)
    )


def _leaked_fraction(values: np.ndarray, fx, fp, periodic_x: bool) -> float:
    """Mass fraction a backtrace would pull from beyond the open boundary.

    Feet that exit the hull read ρ = 0; the data they *should* have read
    is estimated by ρ₀ at the hull-clipped foot, weighted by how deep
    the foot penetrates (in cells, capped at one).  Feet that merely
    graze the hull by rounding noise therefore contribute ~nothing.
    """
    nx, np_ = values.shape
    pen = np.maximum(np.maximum(-fp, fp - (np_ - 1)), 0.0)
    if not periodic_x:
        pen = pen + np.maximum(np.maximum(-fx, fx - (nx - 1)), 0.0)
    pen = np.minimum(pen, 1.0)
    if not np.any(pen > 0.0):
        return 0.0
    total = float(np.sum(values))
    if total <= 0.0:
        return 0.0
    edge = _bilinear(
        values,
        np.clip(fx, 0.0, nx - 1.0),
        np.clip(fp, 0.0, np_ - 1.0),
        periodic_x,
    )
    return float(np.sum(pen * edge) / total)


def liouville_samples(
    rho0: PhaseSpaceDensity,
    hamiltonian: HamiltonianSpec,
    times: Sequence[float],
    dt: float | None = None,
    periodic_x: bool = False,
) -> Iterator[PhaseSpaceDensity]:
    """Yield ρ(tᵢ) = ρ₀(Φ₋ₜᵢ(z)) at every time of `times`, in order.

    A closed-form flow maps the feet of every sample straight from the
    node mesh in one call.  Under Verlet the backtrace feet of tᵢ are
    those of tᵢ₋₁ carried back over the interval,
    Φ₋ₜᵢ = Φ₋₍ₜᵢ₋ₜᵢ₋₁₎ ∘ Φ₋ₜᵢ₋₁, so the Verlet work grows with the last
    time, not with the sum of the times.  Either way ρ₀ itself is
    interpolated exactly once per sample, so no interpolation diffusion
    builds up.  `dt` bounds the Verlet step of every interval (default:
    one step per interval).  When each interval is a whole number of
    `dt`, the Verlet steps, and so the feet, are bit for bit those of
    one flow from t = 0; otherwise only the step split differs, within
    the O(dt²) Verlet bound.  A sample at t = 0 is ρ₀ itself.
    """
    g = rho0.grid
    nodes = np.meshgrid(g.x_centers, g.p_centers, indexing="ij")
    feet, t_prev = nodes, 0.0
    from_nodes = _closed_form(hamiltonian) is not None
    for t in times:
        if t != t_prev:
            start, delta = (nodes, t) if from_nodes else (feet, t - t_prev)
            feet = flow_map(*start, -delta, abs(delta) if dt is None else dt, hamiltonian)
            t_prev = t
        if t == 0.0:
            # zero-length transport is the identity; skip the interpolation
            # so t = 0 samples reproduce the initial data exactly
            yield PhaseSpaceDensity(grid=g, values=rho0.values.copy(), time=rho0.time)
            continue
        feet_x, feet_p = feet
        if not (np.all(np.isfinite(feet_x)) and np.all(np.isfinite(feet_p))):
            raise NumericalFailure("backtraced characteristics are not finite")
        fx = (feet_x - g.x_centers[0]) / g.window_width
        fp = (feet_p - g.p_centers[0]) / g.p_spacing

        leak = _leaked_fraction(rho0.values, fx, fp, periodic_x)
        if leak > _BOUNDARY_MASS_TOL:
            raise NumericalFailure(
                f"backtrace leaves the grid across boundary cells holding"
                f" {leak:.3g} of the mass (tolerance {_BOUNDARY_MASS_TOL})"
            )

        out = PhaseSpaceDensity(
            grid=g, values=_bilinear(rho0.values, fx, fp, periodic_x), time=rho0.time + t
        )
        m0 = phase_space_mass(rho0)
        if m0 > 0.0:
            drift = (phase_space_mass(out) - m0) / m0
            logger.debug("liouville mass drift over t=%g: %.3e", t, drift)
        yield out


def evolve_liouville(
    rho0: PhaseSpaceDensity,
    hamiltonian: HamiltonianSpec,
    t: float,
    dt: float | None = None,
    periodic_x: bool = False,
) -> PhaseSpaceDensity:
    """Transport ρ₀ for time t: ρ(z, t) = ρ₀(Φ₋ₜ(z)).

    `dt` bounds the Verlet step of a backtrace with no closed form
    (default: one step); the density itself is interpolated exactly
    once.  With `periodic_x` the spatial axis wraps; otherwise both axes
    are open and a backtrace that exits the grid while ρ₀ holds
    noticeable boundary mass raises `NumericalFailure`.  This is the one-sample case of
    `liouville_samples`.
    """
    return next(liouville_samples(rho0, hamiltonian, (t,), dt, periodic_x))

