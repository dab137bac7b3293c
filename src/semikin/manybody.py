"""Desk-scale checks of the carrier determinant/permanent algebra.

An n-particle wave factorizes into a smooth symmetric envelope times a
fast carrier: a Slater determinant of plane waves φ_k(x_l) = e^{ip_k x_l/ħ}
for fermions, the permanent analog for bosons, both with a 1/n!
prefactor.  The identities verified here are the ones that let
derivative operators pass through the carrier onto the envelope:

* kinetic cross term — the sum of column-momentum-weighted determinants
  collapses to (Σ_k p_k)·ψ, so Σ_l D_l ∂A/∂x_l = (Σ_l p_l ∂A/∂x_l)ψ
  whenever the envelope gradient is the same along every coordinate
  (the symmetry requirement);
* position action — x_l ψ equals the cofactor expansion of ψ along
  column l with φ_k replaced by ∂φ_k/∂p_k = (i x_l/ħ)φ_k;
* windowed orthogonality — inside one projection window, the operator x
  sandwiched between carriers m and k acts, weakly on a smooth momentum
  probe f under the state-counting measure (Δx/2πħ)∫dp, as iħ f'(p_m)
  when m = k and as 0 when m ≠ k.

All residuals are normalization-independent ratios, so the 1/n!
prefactor convention never enters the assertions.  Everything is O(n!)
at worst with n ≤ 5: verification scale, not simulation scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CarrierState",
    "EnvelopeFunctionND",
    "kinetic_cross_term_check",
    "position_minor_identity_check",
    "windowed_orthogonality_check",
]

_STATISTICS = ("fermion", "boson")

#: Gaussian taper half-widths of the built-in probes, in units of ħ/window.
#: 14 radians keep the m=k window-truncation error near 1e-10.  The m≠k bump
#: has width 15ħ/L, so its overlap with a carrier beat decays like
#: exp(-(ΔpL/2·15ħ)²); suppression below 1e-10 needs the momentum separation
#: Δp to span at least ~20 beat wavelengths across the window.
_TAPER_RADIANS = 14.0
_BUMP_RADIANS = 15.0
#: Gauss–Legendre nodes per panel of the window integral.
_GAUSS_NODES = 32


@dataclass(frozen=True)
class CarrierState:
    """n plane-wave momenta plus exchange statistics, n ≤ 5."""

    statistics: str
    momenta: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.statistics not in _STATISTICS:
            raise ValueError(f"statistics must be one of {_STATISTICS}")
        n = len(self.momenta)
        if not 1 <= n <= 5:
            raise ValueError(f"particle count must be 1..5, got {n}")
        if self.statistics == "fermion":
            for a, b in combinations(self.momenta, 2):
                if a == b:
                    raise ValueError("fermion momenta must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.momenta)


@dataclass(frozen=True)
class EnvelopeFunctionND:
    """Closed-form test amplitude A(x₁..x_n) with optional analytic gradient.

    The `symmetric` flag asserts ∂A/∂x_l is independent of l (true for
    any function of x₁+…+x_n); it is a *claim*, not enforced at
    construction: a falsely flagged envelope shows up as an O(1)
    residual of `kinetic_cross_term_check`.
    """

    func: Callable[[np.ndarray], complex]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    symmetric: bool = False

    def gradient(self, xs, h: float = 1e-5) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(xs), dtype=complex)
        out = np.empty(xs.size, dtype=complex)
        for l in range(xs.size):
            step = np.zeros_like(xs)
            step[l] = h
            out[l] = (self.func(xs + step) - self.func(xs - step)) / (2.0 * h)
        return out


def _permanent(matrix: np.ndarray) -> complex:
    """Ryser's inclusion–exclusion permanent of a non-empty square matrix."""
    n = matrix.shape[0]
    total = 0.0 + 0.0j
    for r in range(1, n + 1):
        for cols in combinations(range(n), r):
            total += (-1.0) ** r * np.prod(np.sum(matrix[:, cols], axis=1))
    return complex((-1.0) ** n * total)


def _det_or_perm(matrix: np.ndarray, statistics: str) -> complex:
    if matrix.shape[0] == 0:
        return 1.0 + 0.0j
    if statistics == "fermion":
        return complex(np.linalg.det(matrix))
    return _permanent(matrix)


def _carrier_matrix(state: CarrierState, xs, hbar: float) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.size != state.n:
        raise ValueError(f"expected {state.n} coordinates, got {xs.size}")
    return np.exp(1j * np.outer(state.momenta, xs) / hbar)


def kinetic_cross_term_check(
    state: CarrierState,
    amplitude: EnvelopeFunctionND,
    xs,
    h: float = 1e-5,
    hbar: float = 1.0,
) -> float:
    """Relative residual of Σ_l D_l ∂A/∂x_l = (Σ_l p_l ∂A/∂x_l)·ψ.

    D_l is the carrier with column l momentum-weighted (φ_k(x_l) ↦
    p_k φ_k(x_l)), which by multilinearity sums to (Σ_k p_k)ψ; the
    identity then needs every ∂A/∂x_l equal, so amplitudes not flagged
    symmetric are rejected.  `h` is the central-difference step used
    when the amplitude carries no analytic gradient.
    """
    if not amplitude.symmetric:
        raise ValueError("the cross-term identity requires a symmetric amplitude")
    xs = np.asarray(xs, dtype=float)
    matrix = _carrier_matrix(state, xs, hbar)
    n_fact = math.factorial(state.n)
    psi = _det_or_perm(matrix, state.statistics) / n_fact
    grad = amplitude.gradient(xs, h)
    momenta = np.asarray(state.momenta, dtype=float)

    lhs = 0.0 + 0.0j
    lhs_scale = 0.0
    for l in range(state.n):
        weighted = matrix.copy()
        weighted[:, l] = momenta * matrix[:, l]
        d_l = _det_or_perm(weighted, state.statistics) / n_fact
        lhs += d_l * grad[l]
        lhs_scale += abs(d_l * grad[l])
    rhs = complex(momenta @ grad) * psi
    scale = max(lhs_scale, abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)


def position_minor_identity_check(
    state: CarrierState, xs, l: int, hbar: float = 1.0
) -> float:
    """Relative residual of the column-l cofactor expansion of x_l·ψ.

    Expanding with ∂φ_k/∂p_k = (i x_l/ħ)φ_k in place of φ_k re-sums, up
    to the ħ/(i·n!) prefactor, to x_l times the carrier; the expansion
    is exact, so the residual is pure roundoff.  Supports n ≤ 4.
    """
    n = state.n
    if n > 4:
        raise ValueError("position identity check supports n ≤ 4")
    if not 0 <= l < n:
        raise IndexError(f"coordinate index {l} out of range for n={n}")
    xs = np.asarray(xs, dtype=float)
    matrix = _carrier_matrix(state, xs, hbar)
    lhs = xs[l] * _det_or_perm(matrix, state.statistics) / math.factorial(n)

    total = 0.0 + 0.0j
    for k in range(n):
        dphi_dp = (1j * xs[l] / hbar) * matrix[k, l]
        reduced = np.delete(np.delete(matrix, k, axis=0), l, axis=1)
        cofactor = _det_or_perm(reduced, state.statistics)
        sign = (-1.0) ** (k + l) if state.statistics == "fermion" else 1.0
        total += sign * dphi_dp * cofactor
    rhs = hbar / (1j * math.factorial(n)) * total
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)


def windowed_orthogonality_check(
    p_m: float,
    p_k: float,
    window: float,
    hbar: float = 1.0,
    probe_slope: float = 1.0,
) -> complex:
    """Weak action of the windowed x-operator between two carriers.

    Evaluates (1/Δx)∫_window dx e^{-ip_m x/ħ} · x · g(x) / (iħ), where
    g is synthesized under the state-counting measure (Δx/2πħ)∫dp from
    a smooth momentum probe: a Gaussian-tapered linear probe
    f(p) = probe_slope·p·e^{-(p-p_m)²/2W²} when the carriers coincide
    (the answer is then f'(p_m) = probe_slope, the derivative-of-delta
    stencil action), a narrow Gaussian bump at p_k otherwise (the answer
    is then 0: carriers a whole number of beat wavelengths apart inside
    the window stay orthogonal under x).  The window is centered on the
    origin; the probe Fourier transforms are analytic, so a single
    integral over x remains, summed by a composite 32-node Gauss–Legendre
    rule.  Its 4 + ⌈|beats|/4⌉ equal panels follow the beat count because
    the integrand oscillates once per beat: a fixed rule that resolves a
    few beats is silently wrong at hundreds.

    A window holding a non-integer number of beat wavelengths
    2πħ/|p_m - p_k| is flagged with a warning; the result is then only
    bounded by the kernel tail ~ ħ/(Δx|p_m - p_k|), not near zero.  Even
    for commensurate carriers the bump probe has finite width 15ħ/Δx, so
    the returned value only falls below ~1e-10 once the separation spans
    roughly twenty beats across the window; closer carriers see a partial
    overlap of order exp(-(|p_m - p_k|·Δx/30ħ)²/2).
    """
    if window == 0.0:
        return 0.0 + 0.0j
    if window < 0.0:
        raise ValueError("window length must be non-negative")

    beats = 0.0
    if p_m == p_k:
        taper = _TAPER_RADIANS * hbar / window
        amp = probe_slope * taper / (math.sqrt(2.0 * math.pi) * hbar)

        def integrand(x: np.ndarray) -> np.ndarray:
            return (
                amp
                * x
                * (p_m + 1j * taper**2 * x / hbar)
                * np.exp(-((taper * x) ** 2) / (2.0 * hbar**2))
            )

    else:
        q = p_k - p_m
        beats = q * window / (2.0 * math.pi * hbar)
        if abs(beats - round(beats)) > 1e-9:
            warnings.warn(
                f"window holds {beats:.6g} beat wavelengths (not an integer);"
                " orthogonality only holds to the kernel tail",
                stacklevel=2,
            )
        bump = _BUMP_RADIANS * hbar / window
        amp = bump / (math.sqrt(2.0 * math.pi) * hbar)

        def integrand(x: np.ndarray) -> np.ndarray:
            return (
                amp
                * x
                * np.exp(1j * q * x / hbar)
                * np.exp(-((bump * x) ** 2) / (2.0 * hbar**2))
            )

    panels = 4 + math.ceil(abs(beats) / 4.0)
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    half_panel = 0.5 * window / panels
    centers = -0.5 * window + half_panel * (2.0 * np.arange(panels) + 1.0)
    values = integrand(centers[:, None] + half_panel * nodes)
    return complex(half_panel * np.sum(values @ weights)) / (1j * hbar)
