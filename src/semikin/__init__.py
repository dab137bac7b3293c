"""semikin: a workbench for watching quantum wave mechanics turn classical.

The package strings together one pipeline in two guises.  A split-step
solver integrates the Schrödinger equation; a windowed Fourier transform
compresses the wave into slowly varying envelopes on a coarse (x₀, p₀)
grid; the squared envelope is a phase-space density that a
semi-Lagrangian Liouville solver can transport classically; a
golden-rule master equation adds collisions, and Strang splitting of the
two gives a Boltzmann stepper.  The `correspondence` module runs both
guises side by side and measures where they agree, and `cli` exposes all
of it as the `semikin` command.
"""

from .core import (
    MomentumGrid,
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    PhysicalConstants,
    SpatialGrid,
    conjugate_momentum_grid,
    l2_norm,
    phase_space_mass,
)
from .correspondence import (
    BarrierSummary,
    CorrespondenceReport,
    KineticReport,
    LobeTrack,
    PacketSpec,
    Scenario,
    barrier_split_experiment,
    dispersion_time,
    kinetic_scenario,
    run_correspondence,
)
from .envelope import (
    EnvelopeField,
    ScaleReport,
    chi_kernel,
    envelope_density,
    extract_envelope,
    indicator_kernel,
    scale_check,
    smoothed_derivative,
)
from .errors import NumericalFailure, ScenarioError
from .io import load_scenario
from .kinetics import (
    FockEnsemble,
    InteractionMatrix,
    Occupation,
    RateMatrix,
    StateSpace,
    current_density,
    entropy,
    evolve_boltzmann,
    evolve_master,
    fermi_rates,
    incoherent_average,
    number_correlator,
)
from .liouville import (
    HamiltonianSpec,
    evolve_liouville,
    evolve_liouville_nd,
    flow_jacobian,
    flow_map,
    liouville_samples,
)
from .manybody import (
    CarrierState,
    EnvelopeFunctionND,
    carrier_value,
    kinetic_cross_term_check,
    minor_value,
    position_minor_identity_check,
    windowed_orthogonality_check,
)
from .schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
    WaveFunction,
    energy,
    evolve,
    expectation_p,
    expectation_x,
    init_gaussian_packet,
    transmission_reflection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "PhysicalConstants",
    "SpatialGrid",
    "MomentumGrid",
    "PhaseSpaceGrid",
    "PhaseSpaceDensity",
    "conjugate_momentum_grid",
    "phase_space_mass",
    "l2_norm",
    # errors
    "ScenarioError",
    "NumericalFailure",
    # schrodinger
    "WaveFunction",
    "FreePotential",
    "LinearPotential",
    "HarmonicPotential",
    "GaussianBarrier",
    "init_gaussian_packet",
    "evolve",
    "expectation_x",
    "expectation_p",
    "energy",
    "transmission_reflection",
    # envelope
    "EnvelopeField",
    "ScaleReport",
    "chi_kernel",
    "indicator_kernel",
    "extract_envelope",
    "envelope_density",
    "smoothed_derivative",
    "scale_check",
    # liouville
    "HamiltonianSpec",
    "flow_map",
    "flow_jacobian",
    "liouville_samples",
    "evolve_liouville",
    "evolve_liouville_nd",
    # manybody
    "CarrierState",
    "EnvelopeFunctionND",
    "carrier_value",
    "minor_value",
    "kinetic_cross_term_check",
    "position_minor_identity_check",
    "windowed_orthogonality_check",
    # kinetics
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
    "evolve_boltzmann",
    "entropy",
    # correspondence
    "PacketSpec",
    "Scenario",
    "LobeTrack",
    "BarrierSummary",
    "KineticReport",
    "CorrespondenceReport",
    "dispersion_time",
    "run_correspondence",
    "barrier_split_experiment",
    "kinetic_scenario",
    # io
    "load_scenario",
]
