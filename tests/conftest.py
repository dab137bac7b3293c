"""Shared fixtures: natural units, small phase-space test grids, and a
potential wrapper that forces the Verlet path of `flow_map`."""

from dataclasses import dataclass

import numpy as np
import pytest

from semikin.core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants


@pytest.fixture(scope="session")
def constants():
    return PhysicalConstants()


def square_grid(n: int, span: float, constants: PhysicalConstants) -> PhaseSpaceGrid:
    """n×n coarse grid covering [-span, span] on both axes.

    Used for direct Liouville tests where the grid does not come from a
    windowed transform, so the cell geometry is free.
    """
    x = np.linspace(-span, span, n)
    p = np.linspace(-span, span, n)
    return PhaseSpaceGrid(
        x_centers=x,
        window_width=float(x[1] - x[0]),
        p_centers=p,
        p_halfwidth=float((p[1] - p[0]) / 2.0),
        constants=constants,
    )


def gaussian_blob(
    grid: PhaseSpaceGrid, x0: float, p0: float, sx: float, sp: float
) -> PhaseSpaceDensity:
    """Unnormalized Gaussian bump centered at (x0, p0)."""
    x, p = np.meshgrid(grid.x_centers, grid.p_centers, indexing="ij")
    values = np.exp(-((x - x0) ** 2 / (2 * sx**2) + (p - p0) ** 2 / (2 * sp**2)))
    return PhaseSpaceDensity(grid=grid, values=values)


@dataclass(frozen=True)
class VerletOnly:
    """`inner` with its closed-form `flow` hidden, so `flow_map`
    integrates it with velocity-Verlet steps."""

    inner: object
    is_smooth: bool = True

    def value(self, x):
        return self.inner.value(x)

    def derivative(self, x):
        return self.inner.derivative(x)
