"""Shared fixtures: natural units, small phase-space test grids, a
potential wrapper that forces the Verlet path of `flow_map`, and a
probe that runs code in a fresh interpreter."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import semikin
from semikin.core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants, SpatialGrid


def run_probe(probe):
    """Run `probe` in a fresh interpreter on this source tree; return its
    stdout lines.  A probe that has not exited by the timeout is killed
    and fails the test, so a hang shows as a failure."""
    env = dict(os.environ, PYTHONPATH=str(Path(semikin.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.fixture(scope="session")
def constants():
    return PhysicalConstants()


def square_grid(
    n: int, span: float, constants: PhysicalConstants, periodic_x: bool = False
) -> PhaseSpaceGrid:
    """n×n coarse grid covering [-span, span] on both axes, a ring in x
    when `periodic_x` is set.

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
        periodic_x=periodic_x,
    )


def gaussian_blob(
    grid: PhaseSpaceGrid, x0: float, p0: float, sx: float, sp: float
) -> PhaseSpaceDensity:
    """Unnormalized Gaussian bump centered at (x0, p0)."""
    x, p = np.meshgrid(grid.x_centers, grid.p_centers, indexing="ij")
    values = np.exp(-((x - x0) ** 2 / (2 * sx**2) + (p - p0) ** 2 / (2 * sp**2)))
    return PhaseSpaceDensity(grid=grid, values=values)


def ring_point_mass(constants: PhysicalConstants) -> PhaseSpaceDensity:
    """Unit density in cell (4, 10) of the 16×16 grid windowed from a
    256-point ring in the units of `constants`; cell 10 has p = π/4, so
    over t = 16 a mass-1 point moves 0.785 windows and a mass-2 point
    0.393."""
    spatial = SpatialGrid(x_min=0.0, dx=1.0, n=256, constants=constants)
    grid = PhaseSpaceGrid.from_spatial(spatial, window_cells=16, periodic_x=True)
    values = np.zeros(grid.shape)
    values[4, 10] = 1.0
    return PhaseSpaceDensity(grid=grid, values=values)


def peak(density: PhaseSpaceDensity) -> tuple[int, int]:
    """(x cell, p cell) of the largest value."""
    index = np.unravel_index(np.argmax(density.values), density.values.shape)
    return tuple(int(i) for i in index)


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
