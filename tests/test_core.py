"""Grid construction and the state-counting measure.

The coarse phase-space grid ties a window width Δx to a momentum cell
half-width Δp through Δx·Δp = πħ, so every cell covers one Planck area
2πħ and carries unit weight under the measure dx·dp/(2πħ).  Most of the
solvers lean on that bookkeeping, so it is pinned down here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikin.core import (
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    PhysicalConstants,
    SpatialGrid,
    l2_norm,
    phase_space_mass,
)
from semikin.schrodinger import init_gaussian_packet


class TestPhysicalConstants:
    def test_natural_unit_defaults(self):
        c = PhysicalConstants()
        assert (c.hbar, c.mass, c.charge) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["hbar", "mass", "charge"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_nonpositive(self, field, bad):
        with pytest.raises(ValueError):
            PhysicalConstants(**{field: bad})


class TestSpatialGrid:
    def test_points_and_length(self):
        g = SpatialGrid(x_min=-4.0, dx=0.5, n=16)
        assert np.array_equal(g.x, -4.0 + 0.5 * np.arange(16))
        assert g.x[-1] + g.dx - g.x[0] == 8.0  # the periodic length n·dx

    @pytest.mark.parametrize("n", [7, 12, 100, 0])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            SpatialGrid(x_min=0.0, dx=1.0, n=n)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            SpatialGrid(x_min=0.0, dx=-1.0, n=16)

    def test_natural_units_by_default_and_the_phase_grid_copies_them(self):
        assert SpatialGrid(x_min=0.0, dx=1.0, n=16).constants == PhysicalConstants()
        c = PhysicalConstants(hbar=2.0, mass=3.0)
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=256, constants=c)
        assert PhaseSpaceGrid.from_spatial(sg, window_cells=16).constants is c


class TestPhaseSpaceGrid:
    def test_from_spatial_planck_cells(self):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=256)
        g = PhaseSpaceGrid.from_spatial(sg, window_cells=16)
        assert g.shape == (16, 16)
        assert g.window_width == 16.0
        # default coarse-graining relation: Δx·Δp = πħ, cell area 2πħ
        assert g.p_halfwidth == pytest.approx(np.pi / 16.0, rel=1e-15)
        assert g.cell_area == pytest.approx(2 * np.pi, rel=1e-15)

    def test_momentum_cells_tile_around_center(self):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=256)
        g = PhaseSpaceGrid.from_spatial(sg, window_cells=16, p_center=0.7)
        assert 0.7 in g.p_centers
        assert np.allclose(np.diff(g.p_centers), 2 * g.p_halfwidth, rtol=1e-15)

    def test_window_must_tile_grid(self):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=256)
        with pytest.raises(ValueError, match="does not tile"):
            PhaseSpaceGrid.from_spatial(sg, window_cells=24)

    @pytest.mark.parametrize("n_p", [0, 17, -3])
    def test_momentum_cell_count_bounds(self, n_p):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=256)
        with pytest.raises(ValueError, match="n_p"):
            PhaseSpaceGrid.from_spatial(sg, window_cells=16, n_p=n_p)

    def test_rejects_degenerate_cells(self, constants):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(
                x_centers=np.arange(4.0),
                window_width=0.0,
                p_centers=np.arange(4.0),
                p_halfwidth=0.5,
                constants=constants,
            )


class TestPhaseSpaceDensity:
    def _grid(self):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=64)
        return PhaseSpaceGrid.from_spatial(sg, window_cells=16)

    def test_shape_checked(self):
        g = self._grid()
        with pytest.raises(ValueError, match="shape"):
            PhaseSpaceDensity(grid=g, values=np.zeros((3, 3)))

    def test_rejects_negative_and_nonfinite(self):
        g = self._grid()
        bad = np.zeros(g.shape)
        bad[1, 2] = -1e-12
        with pytest.raises(ValueError, match="non-negative"):
            PhaseSpaceDensity(grid=g, values=bad)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PhaseSpaceDensity(grid=g, values=bad)


class TestPhaseSpaceMass:
    def test_single_planck_cell_has_unit_mass(self):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=64)
        g = PhaseSpaceGrid.from_spatial(sg, window_cells=16)
        values = np.zeros(g.shape)
        values[2, 3] = 1.0
        assert phase_space_mass(PhaseSpaceDensity(grid=g, values=values)) == 1.0

    def test_mass_independent_of_hbar(self):
        # the default relation locks the cell area to 2πħ, so the measure
        # weight is 1 regardless of ħ — bitwise when ħ scales by a power
        # of two, otherwise up to the one rounding in πħ/16
        rng = np.random.default_rng(42)
        values = rng.random((4, 16))
        masses = []
        for hbar in (1.0, 0.5, 2.7):
            sg = SpatialGrid(x_min=0.0, dx=1.0, n=64, constants=PhysicalConstants(hbar=hbar))
            g = PhaseSpaceGrid.from_spatial(sg, window_cells=16)
            masses.append(phase_space_mass(PhaseSpaceDensity(grid=g, values=values)))
        assert masses[0] == masses[1]
        assert masses[2] == pytest.approx(masses[0], rel=1e-14)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_mass_is_linear_in_the_density(self, scale):
        sg = SpatialGrid(x_min=0.0, dx=1.0, n=64)
        g = PhaseSpaceGrid.from_spatial(sg, window_cells=16)
        values = np.random.default_rng(7).random(g.shape)
        base = phase_space_mass(PhaseSpaceDensity(grid=g, values=values))
        scaled = phase_space_mass(PhaseSpaceDensity(grid=g, values=scale * values))
        assert scaled == pytest.approx(scale * base, rel=1e-12)


def test_l2_norm_of_normalized_packet(constants):
    sg = SpatialGrid(x_min=0.0, dx=1.0, n=2048)
    psi = init_gaussian_packet(sg, x_c=1024.0, p_c=1.0, sigma=48.0)
    assert l2_norm(psi) == pytest.approx(1.0, abs=1e-13)
