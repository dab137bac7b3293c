"""Collision layer: golden-rule rates, master equation, assembled transport.

Transitions between discrete states (momentum cells, in the assembled
picture) happen locally in x with rates

    Q_kl = (2π/ħ)|V_kl|² δ_η(E_k - E_l),      k ≠ l,

where δ_η is a unit-mass Gaussian of width η standing in for the energy
delta — the finite spectral width that makes the hopping probabilistic
and irreversible.  The diagonal closes each row to zero sum, so the
gain–loss master equation ρ̇_k = Σ_l Q_lk ρ_l conserves probability and,
for symmetric rates, increases −Σρlnρ monotonically.

`boltzmann_samples` assembles the full transport: free streaming in
phase space (Strang half-steps of the Liouville engine on plain arrays,
all served by one `liouville.TransportStencil` per sample interval)
interleaved with the momentum-space master relaxation applied
independently at every spatial cell; each sample is validated once.
Without rates it is `liouville_samples`, decided there alone;
`evolve_boltzmann` is its one-sample case.  Its hop matrix
e^{Q·step} comes from the same uniformization as the master-equation
stepper, so it is non-negative by construction.  That uniformization
is the module's one master-equation propagator, and numpy its only
outside dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import PhaseSpaceDensity
from .liouville import _MAX_STEPS, TransportStencil, _step_count, liouville_samples
from .schrodinger import PotentialSpec

__all__ = [
    "StateSpace",
    "InteractionMatrix",
    "RateMatrix",
    "Occupation",
    "FockEnsemble",
    "fermi_rates",
    "evolve_master",
    "incoherent_average",
    "number_correlator",
    "current_density",
    "boltzmann_samples",
    "evolve_boltzmann",
    "entropy",
]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """K ≥ 2 discrete states with finite energies."""

    energies: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", e)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("a state space needs at least two states")
        if not np.all(np.isfinite(e)):
            raise ValueError("state energies must be finite")

    @property
    def size(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class InteractionMatrix:
    """Hermitian coupling V_kl with vanishing diagonal."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("interaction matrix must be square")
        scale = float(np.max(np.abs(v))) or 1.0
        if not np.allclose(v, v.conj().T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("interaction matrix must be Hermitian")
        if np.any(v.diagonal() != 0.0):
            raise ValueError("diagonal couplings V_kk must be zero")


@dataclass(frozen=True)
class RateMatrix:
    """Transition rates with zero row sums; η records the broadening used."""

    values: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        q = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rate matrix must be square")
        off = q[~np.eye(q.shape[0], dtype=bool)]
        if off.size and np.min(off) < 0.0:
            raise ValueError("off-diagonal rates must be non-negative")
        scale = max(float(np.max(np.abs(q))), 1.0)
        rows = np.abs(q.sum(axis=1))
        if np.any(rows > _ROW_SUM_TOL * scale * q.shape[0]):
            raise ValueError(
                f"row sums must vanish; worst residual {rows.max():.3e}"
            )

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Occupation:
    """Non-negative state probabilities ρ_k."""

    values: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", rho)
        if rho.ndim != 1:
            raise ValueError("occupation must be one-dimensional")
        if not np.all(np.isfinite(rho)):
            raise ValueError("occupation must be finite")
        if np.min(rho) < 0.0:
            raise ValueError(f"occupation must be non-negative, min {rho.min():.3e}")


@dataclass(frozen=True)
class FockEnsemble:
    """Random-phase superpositions over a small occupation-number basis.

    The basis spans every occupation tuple of `modes` modes holding at
    most `n_max` quanta each; all members share one magnitude profile
    and differ only by iid uniform phases per basis state.
    """

    modes: int
    n_max: int
    basis: np.ndarray
    members: np.ndarray

    def __post_init__(self) -> None:
        if self.basis.shape != ((self.n_max + 1) ** self.modes, self.modes):
            raise ValueError("basis does not enumerate the occupation tuples")
        norms = np.linalg.norm(self.members, axis=1)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-9):
            raise ValueError("every ensemble member must be normalized")

    @classmethod
    def random_phases(
        cls,
        modes: int,
        n_max: int,
        n_members: int,
        rng: np.random.Generator,
        magnitudes: Optional[np.ndarray] = None,
    ) -> "FockEnsemble":
        n_basis = (n_max + 1) ** modes
        if n_basis > 4096:
            raise ValueError(f"basis of {n_basis} states is beyond desk scale")
        basis = np.array(list(product(range(n_max + 1), repeat=modes)), dtype=int)
        if magnitudes is None:
            magnitudes = rng.random(n_basis) + 0.1
        magnitudes = np.asarray(magnitudes, dtype=float)
        magnitudes = magnitudes / np.linalg.norm(magnitudes)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_members, n_basis))
        members = magnitudes[None, :] * np.exp(1j * phases)
        return cls(modes=modes, n_max=n_max, basis=basis, members=members)


def fermi_rates(
    coupling: InteractionMatrix, states: StateSpace, eta: float, *, hbar: float
) -> RateMatrix:
    """Golden-rule rate matrix with Gaussian-broadened energy conservation,
    in the units of `hbar`."""
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"broadening must be positive and finite, got {eta}")
    v = coupling.values
    if v.shape[0] != states.size:
        raise ValueError("coupling and state space sizes differ")
    de = states.energies[:, None] - states.energies[None, :]
    delta = np.exp(-0.5 * (de / eta) ** 2) / (eta * math.sqrt(2.0 * math.pi))
    q = (2.0 * np.pi / hbar) * np.abs(v) ** 2 * delta
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(values=q, eta=eta)


def _uniformized_step(qt: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """Positivity-preserving e^{Qᵀt}ρ via uniformization.

    With Λ = max_k(-Q_kk), P = I + Qᵀ/Λ is column-stochastic and
    non-negative, and e^{Qᵀt} = e^{-Λt}Σ_j (Λt)^j/j! · P^j: every term
    is non-negative, and P preserves the 1-norm of non-negative
    vectors, so truncating at cumulative Poisson weight 1 - 1e-15
    bounds the error by 1e-15·Σρ.  Where rounding leaves the summed
    weights short of that threshold, the sum stops once the weights are
    past their mode and too small to change it: every later weight is
    smaller still, so no further term could move the sum.
    """
    lam = float(np.max(-np.diag(qt)))
    if lam <= 0.0 or t == 0.0:
        return rho.copy()
    if lam * t > _MAX_STEPS:
        raise ValueError(
            f"collision rates too stiff: Λ·t = {lam * t:.3g} Poisson terms"
            f" exceed {_MAX_STEPS}"
        )
    # keep e^{-Λt} representable: split long intervals into chunks
    chunks = max(1, int(np.ceil(lam * t / 128.0)))
    dt = t / chunks
    k = qt.shape[0]
    p_matrix = np.maximum(np.eye(k) + qt / lam, 0.0)
    mu = lam * dt
    for _ in range(chunks):
        term = rho.copy()
        weight = math.exp(-mu)
        acc = weight * term
        cumulative = weight
        j = 0
        while cumulative < 1.0 - 1e-15:
            j += 1
            term = p_matrix @ term
            weight *= mu / j
            acc += weight * term
            if j > mu and cumulative + weight == cumulative:
                break
            cumulative += weight
        rho = acc
    return rho


def _hop(rates: RateMatrix, t: float) -> np.ndarray:
    """e^{Q·t} by uniformization: every entry ≥ 0, every row sums to 1."""
    return _uniformized_step(rates.values.T, np.eye(rates.size), t).T


def evolve_master(rho0: Occupation, rates: RateMatrix, t: float) -> Occupation:
    """Relax ρ̇_k = Σ_l Q_lk ρ_l for time t ≥ 0 by uniformization, which
    keeps every occupation non-negative."""
    if t < 0.0:
        raise ValueError("the master equation is irreversible: t must be ≥ 0")
    if rates.size != rho0.values.size:
        raise ValueError("rate matrix and occupation sizes differ")
    out = _uniformized_step(rates.values.T, rho0.values, t)
    return Occupation(values=np.maximum(out, 0.0))


def incoherent_average(amplitudes, observable, coherent: bool):
    """Mean of a Hermitian observable, with or without interference.

    Coherent: Σ A_k* O_kl A_l.  Incoherent: Σ |A_k|² O_kk — the
    off-diagonals are killed by phase averaging, so the result is
    exactly invariant under any per-state phase change of A.
    """
    a = np.asarray(amplitudes, dtype=complex)
    o = np.asarray(observable, dtype=complex)
    norm = float(np.vdot(a, a).real)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"amplitudes must be normalized, got ΣA*A = {norm}")
    scale = float(np.max(np.abs(o))) or 1.0
    if not np.allclose(o, o.conj().T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("observable must be Hermitian")
    if coherent:
        return float(np.vdot(a, o @ a).real)
    return float(np.abs(a) ** 2 @ o.diagonal().real)


def number_correlator(ensemble: FockEnsemble, p: int, p_prime: int) -> complex:
    """Ensemble mean of ⟨a_p† a_{p'}⟩ over the random-phase members.

    Diagonal (p = p') gives the mean occupation of the mode; for p ≠ p'
    the random phases cancel the matrix element on average, with
    residual statistical noise ~ N^{-1/2} in the member count.
    """
    m = ensemble.modes
    if not (0 <= p < m and 0 <= p_prime < m):
        raise ValueError(f"modes ({p}, {p_prime}) out of range for {m} modes")
    basis = ensemble.basis
    if p == p_prime:
        weights = np.abs(ensemble.members) ** 2
        return complex(np.mean(weights @ basis[:, p]))
    index = {tuple(row): i for i, row in enumerate(basis)}
    total = 0.0 + 0.0j
    for i, occ in enumerate(basis):
        if occ[p_prime] == 0 or occ[p] == ensemble.n_max:
            continue
        target = occ.copy()
        target[p_prime] -= 1
        target[p] += 1
        j = index[tuple(target)]
        element = math.sqrt(occ[p_prime] * (occ[p] + 1))
        total += element * np.mean(
            np.conj(ensemble.members[:, j]) * ensemble.members[:, i]
        )
    return complex(total)


def current_density(density: PhaseSpaceDensity) -> np.ndarray:
    """j(x) = e·Σ_p (p/m) f(x,p) Δp/(2πħ), one value per spatial cell,
    in the constants of the density's grid.

    This is the one-dimensional reduction of the usual kinetic formula
    (one factor 2πħ, not three).  On a momentum grid symmetric about
    zero the ±p contributions are paired before summing, so an even
    distribution yields exactly zero.
    """
    g = density.grid
    c = g.constants
    p = g.p_centers
    f = density.values
    measure = c.charge * g.p_spacing / (2.0 * np.pi * c.hbar * c.mass)
    flipped = -p[::-1]
    if p.size > 1 and np.allclose(p, flipped, rtol=0.0, atol=1e-12 * g.p_spacing):
        half = p.size // 2
        rev = f[:, ::-1]
        paired = (f[:, :half] - rev[:, :half]) @ p[:half]
        if p.size % 2:
            paired = paired + p[half] * f[:, half]
        return measure * paired
    return measure * (f @ p)


def _collisionless(rates: Optional[RateMatrix]) -> bool:
    """True when `rates` hops nothing: None or all zero."""
    return rates is None or not np.any(rates.values)


def boltzmann_samples(
    f0: PhaseSpaceDensity,
    potential: PotentialSpec,
    rates: Optional[RateMatrix],
    times: Sequence[float],
    dt: float | None = None,
) -> Iterator[PhaseSpaceDensity]:
    """Yield f(tᵢ) at every time of `times`, streaming under p²/2m + U,
    with m read from f₀'s grid, plus local collisions.

    Each sample is advanced from the previous one by Strang splitting:
    every step of length ≤ dt applies a half-step of Liouville
    transport, a full master-equation step column-wise in momentum at
    every spatial cell, and another transport half-step.  The master
    step is one hop matrix e^{Q·step} per interval, summed by
    uniformization: every entry is non-negative and every row sums to 1
    to rounding.  Every half-step of an interval moves by the same
    step/2 on the same grid, so one backtrace of the node mesh (one
    Verlet step where there is no closed form) builds one
    `TransportStencil` that moves the value arrays of them all, bit for
    bit what a fresh `evolve_liouville` per half-step gives, leak check
    included; the topology of f₀'s grid decides whether x wraps or has
    open edges.  Only the samples are built, and so validated, as
    densities; no failure is lost, since every half-step is a convex
    combination of finite non-negative values and the hop, non-negative
    and row-stochastic, is clipped at 0.  With no rates (None or all
    zero) the samples are those of `liouville_samples` — identically,
    not approximately; each is stamped f₀.time + tᵢ, as there.
    Collisions are irreversible, so the times, from t = 0 on, must not
    decrease.
    """
    if np.any(np.diff(times, prepend=0.0) < 0.0):
        raise ValueError("collisional evolution runs forward only")
    if _collisionless(rates):
        yield from liouville_samples(f0, potential, times, dt)
        return
    if rates.size != f0.grid.p_centers.size:
        raise ValueError("rate matrix must live on the density's momentum cells")
    values, t_prev = f0.values, 0.0
    for t in times:
        if t > t_prev:
            steps = _step_count(t - t_prev, t - t_prev if dt is None else dt)
            step = (t - t_prev) / steps
            # ρ(t) = e^{Qᵀt}ρ acting on each x-row: F ↦ F · (e^{Qᵀ·step})ᵀ
            hop = _hop(rates, step)
            h = 0.5 * step
            half = TransportStencil.backtrace(f0.grid, potential, h)
            for _ in range(steps):
                values = half.move(np.maximum(half.move(values) @ hop, 0.0))
            t_prev = t
        yield PhaseSpaceDensity(grid=f0.grid, values=values, time=f0.time + t)


def evolve_boltzmann(
    f0: PhaseSpaceDensity,
    potential: PotentialSpec,
    rates: Optional[RateMatrix],
    t: float,
    dt: float | None = None,
) -> PhaseSpaceDensity:
    """Streaming plus local collisions for time t ≥ 0, with m read from
    f₀'s grid: the one-sample case of `boltzmann_samples`, so with no
    rates it is `evolve_liouville` over the whole interval."""
    return next(boltzmann_samples(f0, potential, rates, (t,), dt))


def entropy(occupation) -> float:
    """Gibbs entropy -Σ ρ ln ρ with the 0·ln0 = 0 convention."""
    rho = np.asarray(
        occupation.values if hasattr(occupation, "values") else occupation, dtype=float
    ).ravel()
    positive = rho[rho > 0.0]
    return float(-np.sum(positive * np.log(positive)))
