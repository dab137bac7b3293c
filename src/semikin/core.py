"""Grids, units and phase-space bookkeeping shared by every solver.

The package works on two mutually consistent grids, which carry the
run's unit system (the phase-space grid copies the spatial grid's):

* a uniform spatial grid  x_j = x_min + j·dx,  j = 0 … n-1,  with n a
  power of two so spectral transforms stay exact (its discrete Fourier
  dual, p_k = 2πħ k / L with L = n·dx, is built in FFT order by the
  `schrodinger` module), and
* a coarse phase-space grid of windows of width Δx (an integer number of
  spatial cells) times momentum cells of width 2Δp, with the default
  coarse-graining relation  Δx·Δp = πħ  so each cell covers one Planck
  area  Δx·(2Δp) = 2πħ.

Densities on the coarse grid are integrated with the state-counting
measure  dx·dp/(2πħ); `phase_space_mass` is the discrete form
Σ ρ·Δx·Δp_cell/(2πħ).  With the default relation every coarse cell then
carries unit weight, so the mass of a windowed-transform density of a
unit-norm wavefunction comes out as 1/Δx — exactly 1 when the window
width is the unit of length (see the envelope module notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PhysicalConstants",
    "SpatialGrid",
    "PhaseSpaceGrid",
    "PhaseSpaceDensity",
    "phase_space_mass",
    "l2_norm",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system of a run; the defaults are natural units ħ = m = e = 1."""

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "charge"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of a power-of-two point count in the units of `constants`."""

    x_min: float
    dx: float
    n: int
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self) -> None:
        if not np.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got {self.x_min!r}")
        if self.dx <= 0.0 or not np.isfinite(self.dx):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Coarse (x₀, p₀) grid of windows × momentum cells.

    x_centers are the midpoints of contiguous windows of width
    `window_width` (an integer multiple of the fine dx).  p_centers are
    spaced by `p_spacing`; each cell is the half-open interval
    [p₀ - Δp, p₀ + Δp) with Δp = `p_halfwidth`.  The default
    construction uses Δx·Δp = πħ, i.e. p_spacing = 2Δp = 2πħ/Δx, which
    tiles momentum without gaps at one state per cell.  `periodic_x`
    makes the x axis a ring; otherwise it is open, as p always is.
    """

    x_centers: np.ndarray
    window_width: float
    p_centers: np.ndarray
    p_halfwidth: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    periodic_x: bool = False

    def __post_init__(self) -> None:
        if self.window_width <= 0.0:
            raise ValueError("window width must be positive")
        if self.p_halfwidth <= 0.0:
            raise ValueError("momentum half-width must be positive")
        if self.x_centers.ndim != 1 or self.p_centers.ndim != 1:
            raise ValueError("cell centers must be one-dimensional arrays")

    @property
    def p_spacing(self) -> float:
        if self.p_centers.size < 2:
            return 2.0 * self.p_halfwidth
        return float(self.p_centers[1] - self.p_centers[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_centers.size, self.p_centers.size

    @property
    def cell_area(self) -> float:
        return self.window_width * self.p_spacing

    @property
    def cell_energies(self) -> np.ndarray:
        """Kinetic energy p²/2m at each momentum cell center."""
        return self.p_centers**2 / (2.0 * self.constants.mass)

    @classmethod
    def from_spatial(
        cls,
        grid: SpatialGrid,
        window_cells: int,
        p_center: float = 0.0,
        n_p: int | None = None,
        periodic_x: bool = False,
    ) -> "PhaseSpaceGrid":
        """Build the coarse grid attached to a fine spatial grid, in its units.

        `window_cells` fine cells per window (must divide n).  Momentum
        cells are centered on `p_center` and tile at the dual spacing
        2πħ/Δx, so Δx·Δp = πħ; |p_center| must be below the fine grid's
        Nyquist momentum πħ/dx.
        `n_p` defaults to `window_cells`, the full non-aliased band, and
        `periodic_x` sets the x topology.
        """
        if not np.isfinite(p_center):
            raise ValueError(f"p_center must be finite, got {p_center!r}")
        p_nyquist = np.pi * grid.constants.hbar / grid.dx
        if abs(p_center) >= p_nyquist:
            raise ValueError(
                f"p_center = {p_center:g} aliases: |p_center| must be below the grid's"
                f" Nyquist momentum pi*hbar/dx = {p_nyquist:g}"
            )
        if window_cells < 1 or grid.n % window_cells != 0:
            raise ValueError(
                f"window of {window_cells} cells does not tile a grid of {grid.n} points"
            )
        dxw = window_cells * grid.dx
        p_halfwidth = np.pi * grid.constants.hbar / dxw
        spacing = 2.0 * p_halfwidth
        if n_p is None:
            n_p = window_cells
        if n_p < 1 or n_p > window_cells:
            raise ValueError(f"n_p must lie in [1, {window_cells}], got {n_p}")
        n_w = grid.n // window_cells
        x_centers = grid.x_min + dxw * (np.arange(n_w) + 0.5)
        j = np.arange(n_p) - n_p // 2
        return cls(
            x_centers=x_centers,
            window_width=dxw,
            p_centers=p_center + spacing * j,
            p_halfwidth=p_halfwidth,
            constants=grid.constants,
            periodic_x=periodic_x,
        )


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Non-negative density on a coarse phase-space grid at one instant."""

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"density shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density contains non-finite entries")
        if np.any(self.values < 0.0):
            raise ValueError("density must be non-negative")


def phase_space_mass(density: PhaseSpaceDensity) -> float:
    """Total mass Σ ρ · Δx·Δp_cell / (2πħ) of a coarse density.

    Δp_cell is the spacing of the momentum cells, so a single cell of
    unit ρ with Δx·Δp_cell = 2πħ carries unit mass.
    """
    g = density.grid
    weight = g.cell_area / (2.0 * np.pi * g.constants.hbar)
    return float(np.sum(density.values) * weight)


def l2_norm(psi) -> float:
    """(Σ |ψ|² dx)^½ of a sampled wavefunction."""
    return float(np.sqrt(np.sum(np.abs(psi.values) ** 2) * psi.grid.dx))
