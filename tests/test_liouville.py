"""Semi-Lagrangian transport along Hamilton characteristics.

Every target cell is traced backwards, by the potential's closed-form
flow (free, linear, harmonic) or else by velocity Verlet, and the
initial density is read there with one bilinear interpolation.  That
keeps the density non-negative and conserves the symplectic measure.
The tests check both flow kernels and their agreement, the Jacobian,
constancy of ρ along trajectories and boundary handling.  `VERLET_TRAP`
is the harmonic trap with its closed form hidden, so Verlet's own
properties stay checked.
"""

import numpy as np
import pytest

from semikin.core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants, phase_space_mass
from semikin.errors import NumericalFailure
from semikin.liouville import (
    TransportStencil,
    evolve_liouville,
    flow_jacobian,
    flow_map,
    liouville_samples,
)
from semikin.schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
)

from conftest import VerletOnly, gaussian_blob, peak, ring_point_mass, square_grid


FREE = FreePotential()
TRAP = HarmonicPotential(k=1.0)
VERLET_TRAP = VerletOnly(HarmonicPotential(k=1.0))


class TestHamiltonFlow:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            flow_map(0.0, 1.0, 1.0, 1.0, FREE, 0.0)

    def test_rejects_sharp_potentials(self):
        # the classical flow needs U' everywhere; barrier potentials are
        # only admitted when explicitly flagged smooth
        with pytest.raises(ValueError, match="smooth"):
            flow_map(0.0, 1.0, 1.0, 0.1, GaussianBarrier(v0=1.0, x_b=0.0, width=4.0), 1.0)
        smooth = GaussianBarrier(v0=1.0, x_b=0.0, width=4.0, is_smooth=True)
        flow_map(0.0, 1.0, 1.0, 0.1, smooth, 1.0)

    def test_free_motion_is_exact(self):
        for t in np.linspace(0.5, 8.0, 16):
            x, p = flow_map(1.0, 0.5, t, 0.5, FREE, 1.0)
            assert x == pytest.approx(1.0 + 0.5 * t, abs=1e-13)
            assert p == 0.5

    def test_negative_time_reverses(self):
        x, p = flow_map(0.0, 1.0, 2.0, 0.1, VERLET_TRAP, 1.0)
        x0, p0 = flow_map(x, p, -2.0, 0.1, VERLET_TRAP, 1.0)
        assert x0 == pytest.approx(0.0, abs=1e-12)
        assert p0 == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_rotation_second_order(self):
        t = 1.3
        x, p = flow_map(0.7, -0.2, t, t / 2048, VERLET_TRAP, 1.0)
        x_exact = 0.7 * np.cos(t) - 0.2 * np.sin(t)
        p_exact = -0.2 * np.cos(t) - 0.7 * np.sin(t)
        assert x == pytest.approx(x_exact, abs=1e-7)
        assert p == pytest.approx(p_exact, abs=1e-7)

    def test_rejects_bad_steps(self):
        # FREE takes the closed form, which checks the step bound too
        with pytest.raises(ValueError):
            flow_map(0.0, 0.0, 1.0, -0.1, FREE, 1.0)
        with pytest.raises(ValueError, match="exceeds"):
            flow_map(1.0, 0.0, 1e5, 1e-4, FREE, 1.0)

    def test_matches_stepwise_trajectory(self):
        # n Verlet steps over t are n single steps of t/n, bit for bit
        x, p = 1.1, 0.4
        for _ in range(90):
            x, p = flow_map(x, p, 0.9 / 90, 0.9 / 90, VERLET_TRAP, 1.0)
        assert flow_map(1.1, 0.4, 0.9, 0.01, VERLET_TRAP, 1.0) == (x, p)

    def test_broadcasts_over_arrays(self):
        x, p = flow_map(np.zeros(5), np.arange(5.0), 2.0, 2.0, FREE, 1.0)
        assert np.array_equal(x, 2.0 * np.arange(5.0))
        assert np.array_equal(p, np.arange(5.0))


class TestClosedFormFlows:
    """Each closed form against Verlet on the same potential."""

    X0 = np.linspace(-3.0, 3.0, 7)
    P0 = np.linspace(2.0, -2.0, 7)

    @pytest.mark.parametrize(
        "potential",
        [FreePotential(), LinearPotential(force=0.3), HarmonicPotential(k=0.0)],
        ids=["free", "linear", "flat-trap"],
    )
    def test_force_free_and_uniform_force_match_verlet_to_rounding(self, potential):
        # Verlet is exact for a constant force, so only rounding separates them
        for t in (1.3, -0.7):
            xe, pe = flow_map(self.X0, self.P0, t, 0.01, potential, 1.5)
            xv, pv = flow_map(self.X0, self.P0, t, 0.01, VerletOnly(potential), 1.5)
            assert np.max(np.abs(xe - xv)) <= 1e-12
            assert np.max(np.abs(pe - pv)) <= 1e-12

    @pytest.mark.parametrize("k", [1.0, -0.5], ids=["trap", "inverted"])
    def test_harmonic_matches_verlet_to_second_order(self, k):
        exact = HarmonicPotential(k=k)
        stepped = VerletOnly(HarmonicPotential(k=k))
        for t in (1.3, -0.7):
            xe, pe = flow_map(self.X0, self.P0, t, abs(t), exact, 1.5)
            errors = []
            for dt in (abs(t) / 64, abs(t) / 128):
                xv, pv = flow_map(self.X0, self.P0, t, dt, stepped, 1.5)
                errors.append(max(np.max(np.abs(xv - xe)), np.max(np.abs(pv - pe))))
            assert errors[0] <= (t / 64) ** 2
            assert 3.8 < errors[0] / errors[1] < 4.2, f"Verlet errors {errors} not O(dt²)"


class TestFlowJacobian:
    def test_identity_at_zero_time(self):
        assert flow_jacobian(0.3, -0.8, 0.0, TRAP, 1.0) == 1.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_measure_preserved(self, seed):
        # Verlet's own symplecticity; criterion 3 checks the closed form
        rng = np.random.default_rng(seed)
        t = 1.3
        for _ in range(10):
            x0, p0 = rng.uniform(-3.0, 3.0, size=2)
            j = flow_jacobian(x0, p0, t, VERLET_TRAP, 1.0, dt=t / 64)
            assert abs(j - 1.0) < 1e-8, f"det J = {j} at ({x0:.3f}, {p0:.3f})"


class TestEvolveLiouville:
    def test_zero_time_is_identity(self, constants):
        g = square_grid(32, 4.0, constants)
        rho = gaussian_blob(g, 0.0, 0.0, 1.0, 1.0)
        out = evolve_liouville(rho, FREE, 0.0)
        assert np.array_equal(out.values, rho.values)

    def test_free_shear_reversibility(self, constants):
        """One-way error is the interpolation bound; the roundtrip doubles it."""
        x = np.linspace(-10.0, 10.0, 128)
        p = np.linspace(-4.0, 4.0, 64)
        g = PhaseSpaceGrid(
            x_centers=x, window_width=float(x[1] - x[0]),
            p_centers=p, p_halfwidth=float((p[1] - p[0]) / 2), constants=constants,
        )
        rho0 = gaussian_blob(g, -3.0, 0.8, 1.0, 0.7)
        t = 1.7
        fwd = evolve_liouville(rho0, FREE, t)
        xg, pg = np.meshgrid(x, p, indexing="ij")
        sheared = np.exp(
            -((xg - pg * t + 3.0) ** 2 / 2.0 + (pg - 0.8) ** 2 / (2 * 0.7**2))
        )
        w = g.cell_area / (2 * np.pi)
        m0 = phase_space_mass(rho0)
        one_way = float(np.sum(np.abs(fwd.values - sheared)) * w) / m0
        back = evolve_liouville(fwd, FREE, -t)
        roundtrip = float(np.sum(np.abs(back.values - rho0.values)) * w) / m0
        assert one_way < 0.005, f"free shear interpolation error {one_way}"
        assert roundtrip <= 2.0 * one_way, (
            f"roundtrip {roundtrip} exceeds twice the one-way bound {one_way}"
        )

    def test_periodic_integer_shift_is_bitwise(self, constants):
        # a single momentum row whose displacement is a whole number of
        # cells backtraces onto grid nodes: interpolation degenerates to
        # an exact cyclic permutation
        g = PhaseSpaceGrid(
            x_centers=np.arange(32) * 0.5, window_width=0.5,
            p_centers=(np.arange(8) - 4) * 0.25, p_halfwidth=0.125,
            constants=constants, periodic_x=True,
        )
        profile = np.exp(-((np.arange(32) - 12.0) ** 2) / 18.0)
        values = np.zeros((32, 8))
        values[:, 6] = profile  # p = 0.5; p·t = 2 cells for t = 2
        rho = PhaseSpaceDensity(grid=g, values=values)
        out = evolve_liouville(rho, FREE, 2.0)
        assert np.array_equal(out.values[:, 6], np.roll(profile, 2))
        assert np.all(np.delete(out.values, 6, axis=1) == 0.0)

    def test_constant_along_characteristics(self, constants):
        # evolve a blob in the trap, then read the field back at forward-
        # mapped sample points: it must match ρ₀ at the seeds pointwise
        g = square_grid(128, 8.0, constants)
        rho0 = gaussian_blob(g, 1.5, 0.0, 1.0, 1.0)
        theta = 0.6
        rho_t = evolve_liouville(rho0, TRAP, theta, dt=theta / 256)
        rng = np.random.default_rng(12)
        hx, hp = g.window_width, 2 * g.p_halfwidth
        worst = 0.0
        for _ in range(1000):
            x0, p0 = rng.uniform(-3.0, 3.0, size=2)
            x1 = x0 * np.cos(theta) + p0 * np.sin(theta)
            p1 = p0 * np.cos(theta) - x0 * np.sin(theta)
            fi = (x1 - g.x_centers[0]) / hx
            fj = (p1 - g.p_centers[0]) / hp
            i0, j0 = int(np.floor(fi)), int(np.floor(fj))
            wi, wj = fi - i0, fj - j0
            interp = (
                rho_t.values[i0, j0] * (1 - wi) * (1 - wj)
                + rho_t.values[i0 + 1, j0] * wi * (1 - wj)
                + rho_t.values[i0, j0 + 1] * (1 - wi) * wj
                + rho_t.values[i0 + 1, j0 + 1] * wi * wj
            )
            seed_value = np.exp(-((x0 - 1.5) ** 2 + p0**2) / 2.0)
            worst = max(worst, abs(interp - seed_value))
        assert worst < 0.015, f"density drifted along characteristics by {worst}"

    def test_positivity_and_mass(self, constants):
        g = square_grid(64, 8.0, constants)
        rho0 = gaussian_blob(g, 1.0, -0.5, 1.0, 0.8)
        out = evolve_liouville(rho0, TRAP, 0.785, dt=0.785 / 64)
        assert np.min(out.values) >= 0.0
        drift = abs(phase_space_mass(out) - phase_space_mass(rho0)) / phase_space_mass(rho0)
        assert drift < 1e-3, f"mass drifted by {drift}"

    def test_delta_cell_follows_its_characteristic(self, constants):
        g = square_grid(64, 4.0, constants)
        values = np.zeros((64, 64))
        values[40, 36] = 1.0
        rho = PhaseSpaceDensity(grid=g, values=values)
        out = evolve_liouville(rho, TRAP, 0.9, dt=0.01)
        i, j = np.unravel_index(np.argmax(out.values), out.values.shape)
        x1, p1 = flow_map(g.x_centers[40], g.p_centers[36], 0.9, 0.01, TRAP, 1.0)
        assert abs(g.x_centers[i] - x1) <= g.window_width
        assert abs(g.p_centers[j] - p1) <= 2 * g.p_halfwidth

    def test_boundary_leak_raises(self, constants):
        g = square_grid(64, 8.0, constants)
        wide = gaussian_blob(g, 2.0, 0.0, 1.2, 1.2)  # tail touches the edge
        with pytest.raises(NumericalFailure, match="boundary"):
            evolve_liouville(wide, TRAP, 0.9, dt=0.9 / 64)

    def test_transport_independent_of_hbar(self):
        # the characteristics are classical: changing ħ (which only enters
        # the bookkeeping measure) must not change a single bit
        results = []
        for hbar in (1.0, 0.7):
            from semikin.core import PhysicalConstants

            ci = PhysicalConstants(hbar=hbar)
            g = PhaseSpaceGrid(
                x_centers=np.linspace(-8, 8, 64), window_width=16 / 63,
                p_centers=np.linspace(-6, 6, 64), p_halfwidth=6 / 63, constants=ci,
            )
            rho = gaussian_blob(g, 1.5, 0.0, 1.0, 0.707)
            out = evolve_liouville(rho, TRAP, 0.785, dt=0.785 / 64)
            results.append(out.values)
        assert np.array_equal(results[0], results[1])


def bilinear(values, fx, fp, periodic_x):
    """Bilinear read at fractional node coordinates, as one expression."""
    nx, np_ = values.shape
    i0, j0 = np.floor(fx).astype(int), np.floor(fp).astype(int)
    wx, wp = fx - i0, fp - j0

    def corner(i, j):
        if periodic_x:
            i = i % nx
        ok = (i >= 0) & (i < nx) & (j >= 0) & (j < np_)
        return np.where(ok, values[np.clip(i, 0, nx - 1), np.clip(j, 0, np_ - 1)], 0.0)

    return (
        (1.0 - wx) * (1.0 - wp) * corner(i0, j0)
        + wx * (1.0 - wp) * corner(i0 + 1, j0)
        + (1.0 - wx) * wp * corner(i0, j0 + 1)
        + wx * wp * corner(i0 + 1, j0 + 1)
    )


class TestTransportStencil:
    @pytest.mark.parametrize(
        "potential, periodic_x", [(TRAP, False), (FREE, True)], ids=["trap-open", "free-periodic"]
    )
    def test_read_is_the_bilinear_formula_bitwise(self, potential, periodic_x, constants):
        # corner feet of the rotated open grid leave it; the free feet
        # wrap in x and graze the open p edges by rounding
        g = square_grid(48, 8.0, constants, periodic_x)
        rho0 = gaussian_blob(g, 1.0, -0.5, 1.0, 0.8)
        stencil = TransportStencil.backtrace(g, potential, 0.7)
        assert stencil.leak is not None
        nodes = np.meshgrid(g.x_centers, g.p_centers, indexing="ij")
        feet_x, feet_p = flow_map(*nodes, -0.7, 0.7, potential, 1.0)
        fx = (feet_x - g.x_centers[0]) / g.window_width
        fp = (feet_p - g.p_centers[0]) / g.p_spacing
        out = stencil.move(rho0.values)
        assert np.array_equal(out, bilinear(rho0.values, fx, fp, periodic_x))

    def test_leak_is_the_depth_weighted_read_at_the_clipped_feet(self, constants):
        # a foot off the open grid should have read ρ near the hull: the
        # leak is ρ at the foot clipped onto the hull, weighted by how
        # many cells deep (at most one) the foot lies outside
        g = square_grid(64, 8.0, constants)
        stencil = TransportStencil.backtrace(g, TRAP, 0.9)
        nx, np_ = g.shape
        nodes = np.meshgrid(g.x_centers, g.p_centers, indexing="ij")
        feet_x, feet_p = flow_map(*nodes, -0.9, 0.9, TRAP, 1.0)
        fx = (feet_x - g.x_centers[0]) / g.window_width
        fp = (feet_p - g.p_centers[0]) / g.p_spacing
        outside = np.maximum(np.maximum(-fx, fx - (nx - 1)), 0.0)
        outside += np.maximum(np.maximum(-fp, fp - (np_ - 1)), 0.0)
        depth = np.minimum(outside, 1.0)
        clipped_x, clipped_p = np.clip(fx, 0.0, nx - 1.0), np.clip(fp, 0.0, np_ - 1.0)
        fractions = []
        for rho in (gaussian_blob(g, 1.0, -0.5, 1.0, 0.8), gaussian_blob(g, 2.0, 0.0, 1.2, 1.2)):
            edge = bilinear(rho.values, clipped_x, clipped_p, periodic_x=False)
            expected = np.sum(depth * edge) / np.sum(rho.values)
            got = np.sum(stencil.leak * rho.values) / np.sum(rho.values)
            assert abs(got - expected) <= 1e-14 * expected
            fractions.append(expected)
        # the first blob passes the 1e-6 leak check, the second fails it
        assert 0.0 < fractions[0] < 1e-6 < fractions[1]

    def test_checks_every_density_it_moves(self, constants):
        g = square_grid(64, 8.0, constants)
        stencil = TransportStencil.backtrace(g, TRAP, 0.9)
        stencil.move(gaussian_blob(g, 1.0, -0.5, 1.0, 0.8).values)
        with pytest.raises(NumericalFailure, match="boundary"):
            stencil.move(gaussian_blob(g, 2.0, 0.0, 1.2, 1.2).values)
        other = square_grid(32, 8.0, constants)
        with pytest.raises(ValueError, match="stencil's grid"):
            stencil.move(gaussian_blob(other, 1.0, -0.5, 1.0, 0.8).values)


class TestLiouvilleSamples:
    """Backtrace feet composed across samples: Φ₋ₜᵢ = Φ₋₍ₜᵢ₋ₜᵢ₋₁₎ ∘ Φ₋ₜᵢ₋₁."""

    @pytest.mark.parametrize(
        "potential", [TRAP, FREE, VERLET_TRAP], ids=["trap", "free", "verlet-trap"]
    )
    def test_lattice_times_match_flows_from_zero_bitwise(self, potential, constants):
        # a closed form maps every sample from the nodes; under Verlet
        # every interval is a whole number of dt, so each interval's
        # Verlet step is the one-flow step and the composed feet are the
        # one-flow feet bit for bit
        g = square_grid(64, 8.0, constants)
        rho0 = gaussian_blob(g, 1.0, -0.5, 1.0, 0.8)
        times = (0.0, 0.25, 0.5, 1.25)
        samples = list(liouville_samples(rho0, potential, times, dt=0.05))
        assert len(samples) == len(times)
        for t, rho in zip(times, samples):
            direct = evolve_liouville(rho0, potential, t, dt=0.05)
            assert rho.time == direct.time == t
            assert np.array_equal(rho.values, direct.values)

    @pytest.mark.parametrize("dt", [0.25, 0.125])
    def test_off_lattice_times_agree_to_second_order(self, dt, constants):
        # 0.3 and 0.4 are no whole number of dt: only the step split
        # differs, and both splits carry the O(dt²) Verlet error
        g = square_grid(64, 8.0, constants)
        rho0 = gaussian_blob(g, 1.0, -0.5, 1.0, 0.8)
        times = (0.3, 0.7, 1.3)
        for t, rho in zip(times, liouville_samples(rho0, VERLET_TRAP, times, dt=dt)):
            direct = evolve_liouville(rho0, VERLET_TRAP, t, dt=dt)
            worst = float(np.max(np.abs(rho.values - direct.values)))
            assert worst < 0.25 * dt**2, f"t = {t}: composed feet differ by {worst}"

    def test_negative_and_zero_times(self, constants):
        g = square_grid(64, 8.0, constants)
        rho0 = gaussian_blob(g, 1.0, -0.5, 1.0, 0.8)
        back, home = liouville_samples(rho0, TRAP, (-0.5, 0.0), dt=0.05)
        assert np.array_equal(back.values, evolve_liouville(rho0, TRAP, -0.5, dt=0.05).values)
        assert np.array_equal(home.values, rho0.values)

    def test_a_sharp_potential_is_refused_at_the_call(self, constants):
        # before any sample is asked for, so a caller does no other work first
        rho0 = gaussian_blob(square_grid(32, 4.0, constants), 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="smooth"):
            liouville_samples(rho0, GaussianBarrier(v0=1.0, x_b=0.0, width=4.0), (1.0,))


class TestMassFromTheGrid:
    """m of p²/2m is the density grid's `constants.mass`; no transport
    entry point takes a mass of its own."""

    @pytest.mark.parametrize(
        "units, expected",
        [(PhysicalConstants(mass=2.0), (4, 10)), (PhysicalConstants(), (5, 10))],
        ids=["mass-2", "natural"],
    )
    def test_a_point_mass_moves_at_the_speed_of_its_grid(self, units, expected):
        out = evolve_liouville(ring_point_mass(units), FREE, 16.0)
        assert peak(out) == expected

    def test_the_stencil_reads_at_the_feet_of_the_grid_mass_bitwise(self):
        g = ring_point_mass(PhysicalConstants(mass=2.0)).grid
        values = np.random.default_rng(0).random(g.shape)
        nodes = np.meshgrid(g.x_centers, g.p_centers, indexing="ij")
        feet_x, feet_p = flow_map(*nodes, -16.0, 16.0, FREE, 2.0)
        fx = (feet_x - g.x_centers[0]) / g.window_width
        fp = (feet_p - g.p_centers[0]) / g.p_spacing
        out = TransportStencil.backtrace(g, FREE, 16.0).move(values)
        assert np.array_equal(out, bilinear(values, fx, fp, periodic_x=True))
