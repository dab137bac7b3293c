"""Windowed carrier projection: wavefunction → envelope on the coarse grid.

A window of width Δx projects ψ on the carrier e^{ip₀x/ħ} of each coarse
momentum cell; the 1/Δx normalization makes a unit plane wave read 1.
The tests pin the exactness on plane waves, the window-wise Parseval
bookkeeping, translation covariance, the kernel algebra and the scale
gates that decide whether the projection may be trusted.
"""

import numpy as np
import pytest

from semikin.core import (
    PhaseSpaceGrid,
    PhysicalConstants,
    SpatialGrid,
    phase_space_mass,
)
from semikin.envelope import (
    EnvelopeField,
    chi_kernel,
    envelope_density,
    extract_envelope,
    scale_check,
)
from semikin.schrodinger import (
    FreePotential,
    WaveFunction,
    evolve,
    init_gaussian_packet,
)

from oracles import windowed_envelope_quadrature


@pytest.fixture
def fine_grid():
    return SpatialGrid(x_min=0.0, dx=1.0, n=2048)


@pytest.fixture
def packet(fine_grid):
    return init_gaussian_packet(fine_grid, x_c=1024.0, p_c=1.0, sigma=48.0)


@pytest.fixture
def coarse(fine_grid):
    return PhaseSpaceGrid.from_spatial(fine_grid, window_cells=16, p_center=1.0)


class TestPlaneWaveExtraction:
    """An on-grid carrier must be reproduced exactly, cell by cell."""

    def test_amplitude_lands_in_its_cell(self, fine_grid):
        p0 = 2 * np.pi * 326 / 2048.0  # on-grid and on a cell center
        amp = 0.021
        psi = WaveFunction(
            grid=fine_grid, values=amp * np.exp(1j * p0 * fine_grid.x), time=0.0
        )
        grid = PhaseSpaceGrid.from_spatial(fine_grid, window_cells=16, p_center=p0)
        a = extract_envelope(psi, grid).values
        jc = int(np.argmin(np.abs(grid.p_centers - p0)))
        assert np.max(np.abs(a[:, jc] - amp)) < 1e-12
        off = np.delete(a, jc, axis=1)
        assert np.max(np.abs(off)) < 1e-12, "carrier bled into other momentum cells"

    def test_slow_time_convention_freezes_the_envelope(self, fine_grid):
        # dividing out e^{iE₀t/ħ} with E₀ = p₀²/2m makes the envelope of a
        # free carrier time-independent
        p0 = 2 * np.pi * 326 / 2048.0
        psi = WaveFunction(
            grid=fine_grid,
            values=np.exp(1j * p0 * fine_grid.x) / np.sqrt(2048.0),
            time=0.0,
        )
        grid = PhaseSpaceGrid.from_spatial(fine_grid, window_cells=16, p_center=p0)
        a0 = extract_envelope(psi, grid).values
        later = evolve(psi, FreePotential(), 5.0, 0.1)
        a1 = extract_envelope(later, grid).values
        assert np.max(np.abs(a1 - a0)) < 1e-10


class TestQuadratureOracle:
    def test_matches_direct_quadrature_of_the_packet(self, packet, coarse):
        # independent midpoint-rule evaluation of the defining integral;
        # the projection itself is a per-cell sum, so it matches the
        # continuous integral only to O(dx·|A'|) — worst on the packet
        # flanks, ~4e-4 here for σ = 48 and dx = 1
        field = extract_envelope(packet, coarse)
        jc = int(np.argmin(np.abs(coarse.p_centers - 1.0)))
        for i in (60, 62, 64, 66):
            x0 = coarse.x_centers[i] - coarse.window_width / 2.0
            ref = windowed_envelope_quadrature(
                x0, coarse.window_width, coarse.p_centers[jc],
                x_c=1024.0, p_c=1.0, sigma=48.0,
            )
            assert abs(field.values[i, jc] - ref) < 1e-3, (
                f"window {i}: envelope {field.values[i, jc]} vs quadrature {ref}"
            )


class TestParseval:
    def test_unit_norm_state_has_mass_inverse_window(self, packet, coarse):
        # Σ|A|²·ΔxΔp/(2πħ) = 1/Δx for a unit-norm state (here Δx = 16)
        mass = phase_space_mass(envelope_density(extract_envelope(packet, coarse)))
        assert mass == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_density_drops_phases_only(self, packet, coarse):
        field = extract_envelope(packet, coarse)
        rho = envelope_density(field)
        assert np.array_equal(rho.values, np.abs(field.values) ** 2)
        assert rho.time == field.time


class TestTranslationCovariance:
    def test_one_window_shift_permutes_cells(self, fine_grid, packet, coarse, constants):
        shifted = WaveFunction(
            grid=fine_grid, values=np.roll(packet.values, 16), time=0.0
        )
        a = extract_envelope(packet, coarse).values
        b = extract_envelope(shifted, coarse).values
        # |A| translates by exactly one coarse cell
        assert np.max(np.abs(np.abs(b) - np.roll(np.abs(a), 1, axis=0))) < 1e-14
        # the complex field picks up the carrier phase across the window
        phase = np.exp(-1j * coarse.p_centers * coarse.window_width / constants.hbar)
        assert np.max(np.abs(b - np.roll(a, 1, axis=0) * phase[None, :])) < 1e-12


class TestChiKernel:
    def test_unit_at_its_own_carrier(self):
        assert chi_kernel(1.0, 1.0, dxw=16.0, hbar=1.0) == 1.0

    def test_zeros_at_whole_beats(self):
        # χ vanishes whenever the offset puts a whole number of beat
        # wavelengths in the window: (p-p₀)Δx/ħ = 2πk
        dxw = 16.0
        offsets = 2 * np.pi * np.arange(1, 9) / dxw
        vals = chi_kernel(1.0 + offsets, 1.0, dxw=dxw, hbar=1.0)
        assert np.max(np.abs(vals)) < 1e-15

    def test_half_beat_magnitude(self):
        # at half a beat the periodic sinc reads sin(π/2)/(π/2) = 2/π
        val = chi_kernel(1.0 + np.pi / 16.0, 1.0, dxw=16.0, hbar=1.0)
        assert abs(val) == pytest.approx(2.0 / np.pi, rel=1e-14)

    def test_modulus_is_periodic_sinc(self):
        dxw, p0 = 16.0, 0.3
        delta = np.linspace(-4.0, 4.0, 401)
        vals = np.abs(chi_kernel(p0 + delta, p0, dxw=dxw, hbar=1.0))
        u = delta * dxw / 2.0
        expected = np.abs(np.sinc(u / np.pi))  # numpy sinc is sin(πx)/(πx)
        assert np.max(np.abs(vals - expected)) < 1e-13

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            chi_kernel(1.0, 1.0, dxw=0.0, hbar=1.0)


class TestScaleGates:
    def test_plane_wave_is_well_separated(self, fine_grid):
        p0 = 2 * np.pi * 326 / 2048.0
        psi = WaveFunction(
            grid=fine_grid,
            values=np.exp(1j * p0 * fine_grid.x) / np.sqrt(2048.0),
            time=0.0,
        )
        grid = PhaseSpaceGrid.from_spatial(fine_grid, window_cells=16, p_center=p0)
        report = scale_check(psi, grid)
        assert report.satisfied
        assert report.carrier_ratio == pytest.approx(0.0625, rel=1e-3)
        assert report.envelope_ratio < 1e-12  # flat profile: no steepness

    def test_narrow_packet_trips_the_envelope_gate(self):
        grid = SpatialGrid(x_min=0.0, dx=1.0, n=1024)
        coarse = PhaseSpaceGrid.from_spatial(grid, window_cells=16, p_center=1.0)
        sharp = scale_check(init_gaussian_packet(grid, 512.0, 1.0, sigma=40.0), coarse)
        wide = scale_check(init_gaussian_packet(grid, 512.0, 1.0, sigma=48.0), coarse)
        assert not sharp.satisfied and sharp.envelope_ratio > 0.25
        assert wide.satisfied and wide.envelope_ratio <= 0.25

    def test_carrier_free_state_cannot_satisfy(self):
        grid = SpatialGrid(x_min=0.0, dx=1.0, n=2048)
        coarse = PhaseSpaceGrid.from_spatial(grid, window_cells=16)
        report = scale_check(init_gaussian_packet(grid, 1024.0, 0.0, sigma=50.0), coarse)
        assert not report.satisfied
        assert report.carrier_ratio > 0.25

    def test_extraction_computes_on_a_failing_packet(self):
        grid = SpatialGrid(x_min=0.0, dx=1.0, n=1024)
        coarse = PhaseSpaceGrid.from_spatial(grid, window_cells=16, p_center=1.0)
        psi = init_gaussian_packet(grid, 512.0, 1.0, sigma=40.0)
        assert not scale_check(psi, coarse).satisfied
        field = extract_envelope(psi, coarse)
        assert np.all(np.isfinite(field.values))


@pytest.mark.parametrize("project", [extract_envelope, scale_check], ids=lambda f: f.__name__)
def test_a_phase_grid_of_other_units_is_refused(project, coarse):
    # unchecked, a packet in ħ = 2 on this ħ = 1 phase grid passes the
    # scale gate and reads an envelope mass of 0.1225 where 1/Δx = 0.0625
    grid = SpatialGrid(x_min=0.0, dx=1.0, n=2048, constants=PhysicalConstants(hbar=2.0))
    psi = init_gaussian_packet(grid, x_c=1024.0, p_c=1.0, sigma=48.0)
    with pytest.raises(ValueError, match="units"):
        project(psi, coarse)


def test_envelope_field_validates_shape(coarse):
    with pytest.raises(ValueError, match="shape"):
        EnvelopeField(grid=coarse, values=np.zeros((3, 3), dtype=complex))


def test_refinement_does_not_worsen_fidelity():
    """Halving dx (and dt) must not degrade the envelope→Liouville match.

    Both runs share the physical window width (16 length units), packet
    and sample times; the fine run doubles the spatial resolution and
    momentum cell count.  The transported-density mismatch may shift
    between discretizations but not grow by more than 10%.
    """
    from semikin.correspondence import PacketSpec, Scenario, run_correspondence

    base = Scenario(
        name="refine-base",
        packets=(PacketSpec(x_center=600.0, p_center=1.0, sigma=50.0),),
        x_min=0.0, dx=1.0, n_x=2048,
        window_cells=16, n_p=16, grid_p_center=1.0,
        sample_times=(128.0, 256.0), dt=0.04,
    )
    fine = Scenario(
        name="refine-fine",
        packets=(PacketSpec(x_center=600.0, p_center=1.0, sigma=50.0),),
        x_min=0.0, dx=0.5, n_x=8192,
        window_cells=32, n_p=32, grid_p_center=1.0,
        sample_times=(128.0, 256.0), dt=0.02,
    )
    l1_base = np.asarray(run_correspondence(base).l1)
    l1_fine = np.asarray(run_correspondence(fine).l1)
    ratios = l1_fine / l1_base
    assert np.all(ratios <= 1.10), f"refinement worsened the match: {ratios}"
