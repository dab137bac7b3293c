"""Exchange-symmetrized carrier algebra for few-particle envelopes.

The carrier is the normalized determinant (fermions) or permanent
(bosons) of plane waves; multilinearity in its columns is what lets a
symmetric envelope factor out of kinetic cross terms, and cofactor
expansions tie position moments to the same minors.  The identities are
exact, so most residuals here are pure roundoff; the oracle is an
explicit permutation expansion.
"""

import math
import warnings

import numpy as np
import pytest

from semikin.manybody import (
    CarrierState,
    EnvelopeFunctionND,
    _carrier_matrix,
    _det_or_perm,
    kinetic_cross_term_check,
    position_minor_identity_check,
    windowed_orthogonality_check,
)

from oracles import brute_carrier, brute_minor


def sum_gaussian():
    """A = exp(-(x₁+…+x_n)²/8) with its analytic (equal-component) gradient."""
    return EnvelopeFunctionND(
        func=lambda xs: math.exp(-xs.sum() ** 2 / 8.0),
        grad=lambda xs: np.full(
            xs.size, -xs.sum() / 4.0 * math.exp(-xs.sum() ** 2 / 8.0)
        ),
        symmetric=True,
    )


def carrier_value(state, xs):
    """(1/n!)·Det[φ_k(x_l)] (fermions) or the permanent analog (bosons)."""
    matrix = _carrier_matrix(state, xs, 1.0)
    return _det_or_perm(matrix, state.statistics) / math.factorial(state.n)


def minor_value(state, xs, i, j):
    """The carrier matrix's determinant or permanent with row i and column j erased."""
    reduced = np.delete(np.delete(_carrier_matrix(state, xs, 1.0), i, axis=0), j, axis=1)
    return _det_or_perm(reduced, state.statistics)


class TestCarrierState:
    def test_rejects_unknown_statistics(self):
        with pytest.raises(ValueError, match="statistics"):
            CarrierState(statistics="anyon", momenta=(0.1, 0.2))

    def test_rejects_too_many_particles(self):
        with pytest.raises(ValueError, match="1..5"):
            CarrierState(statistics="boson", momenta=(1.0,) * 6)

    def test_fermions_need_distinct_momenta(self):
        with pytest.raises(ValueError, match="distinct"):
            CarrierState(statistics="fermion", momenta=(0.5, 0.5))
        CarrierState(statistics="boson", momenta=(0.5, 0.5))  # bosons may pile up


class TestCarrierValue:
    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_permutation_expansion(self, statistics, n):
        rng = np.random.default_rng(5)
        momenta = tuple(np.round(rng.uniform(-2.0, 2.0, n), 3))
        xs = rng.uniform(-2.0, 2.0, n)
        state = CarrierState(statistics=statistics, momenta=momenta)
        got = carrier_value(state, xs)
        ref = brute_carrier(statistics, momenta, xs)
        # absolute floor: fermion values can cancel to ~1e-6 of the
        # summand scale, where a relative bound just measures roundoff
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_fermion_swap_antisymmetry(self):
        state = CarrierState(statistics="fermion", momenta=(0.7, -0.3, 1.1))
        xs = np.array([0.4, 1.1, -0.6])
        swapped = xs[[1, 0, 2]]
        a, b = carrier_value(state, xs), carrier_value(state, swapped)
        assert abs(a + b) / abs(a) < 1e-12

    def test_boson_swap_symmetry(self):
        state = CarrierState(statistics="boson", momenta=(0.7, -0.3, 1.1))
        xs = np.array([0.4, 1.1, -0.6])
        a, b = carrier_value(state, xs), carrier_value(state, xs[[2, 0, 1]])
        assert abs(a - b) / abs(a) < 1e-12

    def test_unit_modulus_single_particle(self):
        state = CarrierState(statistics="fermion", momenta=(0.9,))
        assert abs(carrier_value(state, [1.7])) == pytest.approx(1.0, rel=1e-15)


class TestMinors:
    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_matches_brute_force(self, statistics):
        rng = np.random.default_rng(5)
        momenta = tuple(np.round(rng.uniform(-2.0, 2.0, 4), 3))
        xs = rng.uniform(-2.0, 2.0, 4)
        state = CarrierState(statistics=statistics, momenta=momenta)
        for i, j in ((0, 0), (1, 2), (3, 1)):
            got = minor_value(state, xs, i, j)
            assert abs(got - brute_minor(statistics, momenta, xs, i, j)) < 1e-12

    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_laplace_expansion_rebuilds_the_carrier(self, statistics):
        # expanding along row 1 with the statistics' signs recovers n!·ψ
        rng = np.random.default_rng(8)
        momenta = tuple(np.round(rng.uniform(-2.0, 2.0, 3), 3))
        xs = rng.uniform(-2.0, 2.0, 3)
        state = CarrierState(statistics=statistics, momenta=momenta)
        matrix = np.exp(1j * np.outer(momenta, xs))
        i = 1
        total = 0.0 + 0.0j
        for j in range(3):
            sign = (-1.0) ** (i + j) if statistics == "fermion" else 1.0
            total += sign * matrix[i, j] * minor_value(state, xs, i, j)
        psi = carrier_value(state, xs)
        assert abs(total / math.factorial(3) - psi) / abs(psi) < 1e-12


class TestKineticCrossTerm:
    """Σ_l D_l ∂A/∂x_l = (Σ_l p_l ∂A/∂x_l)·ψ for symmetric envelopes."""

    def test_two_fermions_analytic_gradient(self):
        state = CarrierState(statistics="fermion", momenta=(0.7, -0.3))
        resid = kinetic_cross_term_check(state, sum_gaussian(), [0.4, 1.1])
        assert resid < 1e-12, f"exact-gradient residual {resid}"

    def test_two_bosons_at_equal_momenta(self):
        state = CarrierState(statistics="boson", momenta=(0.7, 0.7))
        resid = kinetic_cross_term_check(state, sum_gaussian(), [0.4, 1.1])
        assert resid < 1e-12

    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_three_particles_numeric_gradient(self, statistics):
        state = CarrierState(statistics=statistics, momenta=(0.9, 0.1, -0.5))
        lorentz = EnvelopeFunctionND(
            func=lambda xs: 1.0 / (1.0 + xs.sum() ** 2), symmetric=True
        )
        resid = kinetic_cross_term_check(state, lorentz, [0.2, 0.8, 1.7], h=1e-5)
        assert resid < 1e-9, f"finite-difference residual {resid}"

    def test_asymmetric_envelope_breaks_the_identity(self):
        # the identity needs every ∂A/∂x_l equal; a lopsided envelope,
        # falsely flagged symmetric, must leave an O(1) residual
        state = CarrierState(statistics="fermion", momenta=(0.7, -0.3))
        lopsided = EnvelopeFunctionND(
            func=lambda xs: math.exp(-((xs[0] - 2.0 * xs[1]) ** 2) / 8.0),
            symmetric=True,
        )
        resid = kinetic_cross_term_check(state, lopsided, [0.4, 1.1])
        assert resid > 1e-2, f"asymmetric control gave only {resid}"

    def test_unflagged_envelope_is_rejected(self):
        state = CarrierState(statistics="fermion", momenta=(0.7, -0.3))
        plain = EnvelopeFunctionND(func=lambda xs: math.exp(-xs.sum() ** 2 / 8.0))
        with pytest.raises(ValueError, match="symmetric"):
            kinetic_cross_term_check(state, plain, [0.4, 1.1])


class TestNumericGradient:
    def test_second_order_in_the_step(self):
        amp = EnvelopeFunctionND(
            func=lambda xs: math.exp(-xs.sum() ** 2 / 8.0), symmetric=True
        )
        xs = np.array([0.4, 1.1])
        exact = np.full(2, -xs.sum() / 4.0 * math.exp(-xs.sum() ** 2 / 8.0))
        err = [np.max(np.abs(amp.gradient(xs, h) - exact)) for h in (1e-2, 5e-3)]
        ratio = err[0] / err[1]
        assert 3.6 < ratio < 4.4, f"central differences not second order: {ratio}"

    def test_analytic_gradient_short_circuits(self):
        amp = sum_gaussian()
        xs = np.array([0.3, -0.2])
        assert np.array_equal(amp.gradient(xs, h=1e-1), amp.grad(xs))


class TestPositionMinorIdentity:
    @pytest.mark.parametrize(
        "statistics, momenta, l",
        [
            ("fermion", (0.7, -0.3), 0),
            ("boson", (0.7, -0.3, 0.2), 2),
            ("fermion", (0.9, 0.1, -0.5, 1.3), 1),
        ],
    )
    def test_cofactor_expansion_is_exact(self, statistics, momenta, l):
        state = CarrierState(statistics=statistics, momenta=momenta)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.5, 1.5, len(momenta))
        resid = position_minor_identity_check(state, xs, l)
        assert resid < 1e-12, f"cofactor residual {resid}"

    def test_particle_cap(self):
        state = CarrierState(statistics="boson", momenta=(0.1, 0.2, 0.3, 0.4, 0.5))
        with pytest.raises(ValueError, match="n ≤ 4"):
            position_minor_identity_check(state, np.zeros(5), 0)

    def test_coordinate_bounds(self):
        state = CarrierState(statistics="fermion", momenta=(0.1, 0.9))
        with pytest.raises(IndexError):
            position_minor_identity_check(state, [0.0, 1.0], 5)

    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_single_particle_cofactor_is_the_empty_minor(self, statistics):
        # n = 1 erases the only row and column; the empty det/permanent is 1
        state = CarrierState(statistics=statistics, momenta=(0.9,))
        resid = position_minor_identity_check(state, [1.7], 0)
        assert resid < 1e-12, f"cofactor residual {resid}"

    def test_one_coordinate_per_particle(self):
        state = CarrierState(statistics="fermion", momenta=(0.1, 0.9))
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            position_minor_identity_check(state, [0.0, 1.0, 2.0], 0)


class TestWindowedOrthogonality:
    def test_same_carrier_reads_the_probe_slope(self):
        got = windowed_orthogonality_check(0.8, 0.8, window=32.0, probe_slope=1.3)
        assert abs(got - 1.3) < 1e-8, f"derivative stencil read {got}"

    @pytest.mark.parametrize("window", [8.0, 32.0, 200.0])
    @pytest.mark.parametrize("beats", [24, 100, 400])
    def test_distinct_carriers_decouple_when_well_separated(self, beats, window):
        # 24 or more beat wavelengths across the window: the bump probe at
        # p_k has negligible overlap with the carrier at p_m, however fast
        # the integrand oscillates
        p_m = 0.5
        p_k = p_m + beats * 2 * np.pi / window
        got = windowed_orthogonality_check(p_m, p_k, window=window)
        assert abs(got) < 1e-10, f"separated carriers coupled at {abs(got)}"

    def test_close_carriers_still_overlap(self):
        # the probe bump has width ~15ħ/L, so a separation of only 3 beats
        # leaves an O(1) overlap: orthogonality is an asymptotic statement
        window = 32.0
        got = windowed_orthogonality_check(0.5, 0.5 + 3 * 2 * np.pi / window, window=window)
        assert abs(got) > 0.1

    def test_zero_window_short_circuits(self):
        assert windowed_orthogonality_check(0.3, 0.9, window=0.0) == 0.0 + 0.0j

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_orthogonality_check(0.3, 0.9, window=-1.0)

    def test_incommensurate_beats_warn(self):
        with pytest.warns(UserWarning, match="beat"):
            windowed_orthogonality_check(0.5, 0.5 + 1.05 * 2 * np.pi / 32.0, window=32.0)

    def test_commensurate_beats_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            windowed_orthogonality_check(0.5, 0.5 + 24 * 2 * np.pi / 32.0, window=32.0)
        assert not [w for w in caught if "beat" in str(w.message)]
