"""Simulation and mechanical ISS certification of impulsive switched systems."""

from .bounds import IssBound, build_bound, decay_interpolant, iss_check
from .certify import (
    Certificate,
    Reports,
    check_decreasing_certificate,
    check_dwell_conditions,
    check_trajectory,
    closed_form_dwell,
    dissipation_to_implication,
    norm_power_v,
    quadratic_v,
)
from .construct import (
    DecreasingCertificate,
    build_decreasing,
    decrease_check,
)
from .errors import (
    AsymmetricError,
    ConfigError,
    DegenerateGammaError,
    DegenerateGapError,
    DomainError,
    DwellPreconditionError,
    ImageNotFullError,
    IsscertError,
    NonFiniteError,
    OutOfImageError,
    OutOfRangeError,
    SignAmbiguousError,
    StepTooLargeError,
    StructuralError,
)
from .lmi import (
    Infeasible,
    QuadraticCertificate,
    check_blocks,
    check_rate_conditions,
    eigenvalues,
    flow_blocks,
    is_negative_semidefinite,
    jump_blocks,
    synthesize,
)
from .rates import (
    ComparisonFunction,
    PhiTransform,
    RateFunction,
    compose_cf,
    envelope_check,
    linear_cf,
    linear_rate,
    power_cf,
    power_rate,
    tabulated_rate,
)
from .simulate import (
    InputSignal,
    LinearSystemModel,
    SystemModel,
    Trajectory,
    constant_input,
    reachability_bound,
    simulate,
    simulate_batch,
    sinusoid_input,
    step_input,
    zero_input,
)
from .switching import (
    DwellSpec,
    ModeChangeSet,
    ModePartition,
    SwitchingSignal,
    activation_count,
    active_time,
    mdadt_slack,
    mdalt_slack,
)

__version__ = "0.1.0"
