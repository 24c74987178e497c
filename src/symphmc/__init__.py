"""Symmetrically processed splitting integrators for Hamiltonian Monte Carlo,
with the harmonic-oscillator energy-error analysis used to tune them."""

from .errors import (
    DegenerateParameter,
    InsufficientSteps,
    NoDescent,
    NonFiniteState,
)
from .splitting import (
    ElementaryFlow,
    FlowSchedule,
    PhaseState,
    ProcessedIntegrator,
    build_kernel,
    build_processor,
    drift,
    integrate_leg,
    kick,
    leg_gradient_count,
    modified_kick,
    processed_family,
)
from .harmonic import (
    TransferMatrix,
    rho,
    rho_norm,
    schedule_matrix,
    stability_length,
)
from .targets import (
    AnharmonicModel,
    GaussianModel,
    TargetModel,
    anharmonic_model,
    gaussian_model,
)
from .hmc import (
    ChainStats,
    HmcConfig,
    efficiency_curve,
    energy,
    hmc_run,
)
from .tuning import TuneResult, continuation_sweep, evaluate, tune
from .fourth_order import order_estimate, rowlands_leg
from . import catalog

__version__ = "0.1.0"
