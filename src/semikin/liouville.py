"""Classical phase-space transport along Hamilton characteristics.

Densities obey ∂ρ/∂t = -(p/m)∂ρ/∂x + U'(x)∂ρ/∂p, i.e. they are constant
along the trajectories of ẋ = p/m, ṗ = -U'(x).  The solver is
semi-Lagrangian: every target cell center is traced *backwards* through
the flow and the initial density is read off there with a single
bilinear interpolation — no resampling noise, positivity preserved,
measure conserved up to the interpolation bound.  The interpolation is
a `TransportStencil`: a gather index array and weight array, (4, nx, np)
each, plus a leak plane where feet leave an open edge, all built once
from the feet.  The grid's topology decides the edges: p is open, and
x is open unless the grid is periodic in x, where feet wrap.  It moves
value arrays, never densities, so arrays that all move by the same
interval (the Strang half-steps of `kinetics.boltzmann_samples`) share
one backtrace and one stencil, and each sample generator builds, and so
validates, its sample densities itself.  The Hamiltonian is
p²/2m + U(x) in one unit system: every transport entry point takes the
potential U and reads m from its density's grid, and only `flow_map`
and `flow_jacobian`, which map points rather than grids, take m.  Which
flow kernel runs follows from the potential:

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

from .core import PhaseSpaceDensity, PhaseSpaceGrid, phase_space_mass
from .errors import NumericalFailure
from .schrodinger import PotentialSpec

__all__ = [
    "flow_map",
    "flow_jacobian",
    "TransportStencil",
    "liouville_samples",
    "evolve_liouville",
]

logger = logging.getLogger(__name__)

#: most steps one flow, or one scenario's longest sample, may take
_MAX_STEPS = 10**7
#: relative ρ₀ mass at the open-boundary points crossed by the backtrace
#: before the transport is declared to leak
_BOUNDARY_MASS_TOL = 1e-6


def _step_count(t: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if abs(t) / dt > _MAX_STEPS:
        raise ValueError(f"|t|/dt = {abs(t) / dt:.3g} exceeds {_MAX_STEPS}")
    return max(1, int(np.ceil(abs(t) / dt - 1e-12)))


def _admissible(potential: PotentialSpec, mass: float) -> None:
    """Refuse a mass that is not positive and finite, and a potential not
    flagged smooth: the classical flow needs U' everywhere."""
    if not (np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if not getattr(potential, "is_smooth", False):
        raise ValueError(
            "classical flow needs a smooth potential; sharp-flagged forms"
            " are not admissible"
        )


def flow_map(x, p, t: float, dt: float, potential: PotentialSpec, mass: float):
    """Hamilton flow (x, p) ↦ (X_t, P_t) of H = p²/2m + U, elementwise
    over arrays.

    A potential with a closed-form `flow` is mapped exactly in one call;
    any other takes ⌈|t|/dt⌉ velocity-Verlet steps that split t evenly.
    Negative `t` runs the reversed flow; `dt` is the (positive) bound on
    the step magnitude, and it is checked on both paths.  It maps points,
    not a grid, so it takes m itself; a non-positive or non-finite m,
    and a potential not flagged smooth, are refused with `ValueError`.
    """
    _admissible(potential, mass)
    if t == 0.0:
        return np.array(x, copy=True), np.array(p, copy=True)
    n = _step_count(t, dt)
    x = np.array(x, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    if hasattr(potential, "flow"):
        return potential.flow(x, p, t, mass)
    step = t / n
    for _ in range(n):
        p = p - 0.5 * step * potential.derivative(x)
        x = x + step * p / mass
        p = p - 0.5 * step * potential.derivative(x)
    return x, p


def flow_jacobian(
    x0: float, p0: float, t: float, potential: PotentialSpec, mass: float,
    dt: float | None = None, eps: float | None = None,
) -> float:
    """Determinant of the Jacobian of `flow_map` at one point, for mass m,
    by central differences.

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
    fx, fp = flow_map(xs, ps, t, dt, potential, mass)
    dxdx = (fx[0] - fx[1]) / (2.0 * eps)
    dpdx = (fp[0] - fp[1]) / (2.0 * eps)
    dxdp = (fx[2] - fx[3]) / (2.0 * eps)
    dpdp = (fp[2] - fp[3]) / (2.0 * eps)
    return float(dxdx * dpdp - dxdp * dpdx)


def _nodes(grid: PhaseSpaceGrid):
    """The node mesh: every (x₀, p₀) cell center, x along axis 0."""
    return np.meshgrid(grid.x_centers, grid.p_centers, indexing="ij")


def _axis_corners(frac, n: int, periodic: bool):
    """(index, weight) of the lower and the upper neighbour on one axis.

    On an open axis a neighbour off the edge has weight 0 and an index
    clipped onto the grid.
    """
    i0 = np.floor(frac).astype(np.int64)
    w = frac - i0
    neighbours = ((i0, 1.0 - w), (i0 + 1, w))
    if periodic:
        return [(i % n, wi) for i, wi in neighbours]
    return [(np.clip(i, 0, n - 1), wi * ((i >= 0) & (i < n))) for i, wi in neighbours]


def _corners(fx, fp, grid: PhaseSpaceGrid):
    """(flat index, weight) of the four bilinear corners on `grid`, each
    (4, nx, np); the x axis wraps where the grid is periodic in x.

    The corners come in `_gather`'s summation order, so a stencil read
    has the bits of evaluating the bilinear formula in one expression.
    """
    nx, np_ = grid.shape
    index = np.empty((4, nx, np_), dtype=np.int64)
    weight = np.empty((4, nx, np_))
    xs = _axis_corners(fx, nx, grid.periodic_x)
    ps = _axis_corners(fp, np_, False)
    for k, ((ix, wx), (ip, wp)) in enumerate((x, p) for p in ps for x in xs):
        index[k] = ix * np_ + ip
        weight[k] = wx * wp
    return index, weight


def _gather(index, weight, values: np.ndarray) -> np.ndarray:
    """Bilinear read of `values` at the feet `index` and `weight` came from."""
    return np.sum(weight * values.ravel().take(index), axis=0)


@dataclass(frozen=True)
class TransportStencil:
    """ρ ↦ ρ(Φ₋ₜ(z)) on one grid as a precomputed bilinear gather.

    Built once from the backtrace feet of the node mesh, it holds the
    four corners of every foot (`_corners`) and, when a foot leaves an
    open edge, the `leak` plane: how much each node's ρ counts towards
    the mass a backtrace would pull from beyond the boundary.  The
    grid's topology decides which edges are open: p always, x unless
    the grid is periodic in x, where the feet wrap.  Feet that
    exit the hull read ρ = 0; the data they *should* have read is
    estimated by ρ at the hull-clipped foot, weighted by how deep the
    foot penetrates (in cells, capped at one), so feet that merely graze
    the hull by rounding noise contribute ~nothing.  It reads arrays
    only: `move` runs the leak check on a value array of the grid's
    shape and then the gather, so any number of arrays moved by the same
    interval on the same grid get the check and the bits of one fresh
    transport each.  The caller keeps the grid and the time.
    """

    index: np.ndarray
    weight: np.ndarray
    leak: np.ndarray | None

    @classmethod
    def at_feet(cls, grid: PhaseSpaceGrid, feet) -> TransportStencil:
        """The stencil reading ρ at `feet`, the backtraced nodes of `grid`."""
        feet_x, feet_p = feet
        if not (np.all(np.isfinite(feet_x)) and np.all(np.isfinite(feet_p))):
            raise NumericalFailure("backtraced characteristics are not finite")
        nx, np_ = grid.shape
        fx = (feet_x - grid.x_centers[0]) / grid.window_width
        fp = (feet_p - grid.p_centers[0]) / grid.p_spacing
        pen = np.maximum(np.maximum(-fp, fp - (np_ - 1)), 0.0)
        if not grid.periodic_x:
            pen = pen + np.maximum(np.maximum(-fx, fx - (nx - 1)), 0.0)
        pen = np.minimum(pen, 1.0)
        index, weight = _corners(fx, fp, grid)
        if not np.any(pen > 0.0):
            return cls(index, weight, None)
        edge_index, edge_weight = _corners(
            np.clip(fx, 0.0, nx - 1.0), np.clip(fp, 0.0, np_ - 1.0), grid
        )
        leak = np.bincount(
            edge_index.ravel(), (pen * edge_weight).ravel(), minlength=nx * np_
        ).reshape(grid.shape)
        return cls(index, weight, leak)

    @classmethod
    def backtrace(
        cls, grid: PhaseSpaceGrid, potential: PotentialSpec, t: float
    ) -> TransportStencil:
        """The stencil of one `flow_map` backtrace of the node mesh over t
        (one Verlet step where there is no closed form), with m read from
        the grid's constants."""
        feet = flow_map(*_nodes(grid), -t, abs(t), potential, grid.constants.mass)
        return cls.at_feet(grid, feet)

    def move(self, values: np.ndarray) -> np.ndarray:
        """ρ values of the grid's shape transported over the stencil's
        interval, after the leak check on their mass."""
        if values.shape != self.index.shape[1:]:
            raise ValueError(f"values of shape {values.shape} do not fit the stencil's grid")
        if self.leak is not None:
            total = float(np.sum(values))
            leaked = float(np.sum(self.leak * values)) / total if total > 0.0 else 0.0
            if leaked > _BOUNDARY_MASS_TOL:
                raise NumericalFailure(
                    f"backtrace leaves the grid across boundary cells holding"
                    f" {leaked:.3g} of the mass (tolerance {_BOUNDARY_MASS_TOL})"
                )
        return _gather(self.index, self.weight, values)


def liouville_samples(
    rho0: PhaseSpaceDensity,
    potential: PotentialSpec,
    times: Sequence[float],
    dt: float | None = None,
) -> Iterator[PhaseSpaceDensity]:
    """Yield ρ(tᵢ) = ρ₀(Φ₋ₜᵢ(z)) at every time of `times`, in order, for
    H = p²/2m + U with m read from ρ₀'s grid.

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
    the O(dt²) Verlet bound.  A sample at t = 0 is ρ₀ itself.  A
    potential `flow_map` refuses is refused here, at the call, before
    any sample is asked for.
    """
    _admissible(potential, rho0.grid.constants.mass)
    return _samples(rho0, potential, times, dt)


def _samples(rho0, potential, times, dt):
    g = rho0.grid
    nodes = _nodes(g)
    feet, t_prev = nodes, 0.0
    from_nodes = hasattr(potential, "flow")
    m0 = phase_space_mass(rho0)
    for t in times:
        if t != t_prev:
            start, delta = (nodes, t) if from_nodes else (feet, t - t_prev)
            step = abs(delta) if dt is None else dt
            feet = flow_map(*start, -delta, step, potential, g.constants.mass)
            t_prev = t
        if t == 0.0:
            # zero-length transport is the identity; skip the interpolation
            # so t = 0 samples reproduce the initial data exactly
            yield PhaseSpaceDensity(grid=g, values=rho0.values.copy(), time=rho0.time)
            continue
        stencil = TransportStencil.at_feet(g, feet)
        out = PhaseSpaceDensity(grid=g, values=stencil.move(rho0.values), time=rho0.time + t)
        if m0 > 0.0:
            drift = (phase_space_mass(out) - m0) / m0
            logger.debug("liouville mass drift over t=%g: %.3e", t, drift)
        yield out


def evolve_liouville(
    rho0: PhaseSpaceDensity,
    potential: PotentialSpec,
    t: float,
    dt: float | None = None,
) -> PhaseSpaceDensity:
    """Transport ρ₀ for time t: ρ(z, t) = ρ₀(Φ₋ₜ(z)), with m read from
    ρ₀'s grid.

    `dt` bounds the Verlet step of a backtrace with no closed form
    (default: one step); the density itself is interpolated exactly
    once.  The grid's topology decides the edges: on a grid periodic in
    x the spatial axis wraps, otherwise both axes are open, and a
    backtrace that exits an open edge while ρ₀ holds noticeable boundary
    mass raises `NumericalFailure`.  This is the one-sample case of
    `liouville_samples`.
    """
    return next(liouville_samples(rho0, potential, (t,), dt))
