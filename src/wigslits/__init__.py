"""Two-slit Gaussian interference in quantum phase space.

Closed-form and discrete Wigner fields of a Gaussian slit pair, free-flight
shear propagation, position/momentum marginals, Aharonov-Bohm phase
injection, and quantitative fringe-shift measurement.
"""

__version__ = "0.1.0"

from .analysis import (
    FringeReport,
    common_projection_interval,
    common_support_interval,
    find_fringe_maxima,
    fringe_report,
    fringe_shift,
)
from .analytic import (
    FluxSpec,
    PulseSeries,
    momentum_marginal,
    phase_from_flux,
    phase_from_magnetic_pulses,
    phase_from_voltage_pulses,
    position_marginal_propagated,
    single_slit_field,
    single_slit_marginal,
    two_slit_field,
    wigner_single_slit,
    wigner_two_slit,
    wigner_two_slit_propagated,
)
from .errors import ConventionViolationError, TruncationError
from .model import (
    Grid1D,
    Grid2D,
    MarginalCurve,
    SampledWavefunction,
    SlitPairParams,
    WignerField,
    normalized_params,
    propagated_width,
)
from .numeric import (
    field_marginal,
    field_marginals,
    momentum_wavefunction,
    propagate_free,
    sample_wavefunction,
    shear_field,
    wigner_transform,
)

__all__ = [
    "__version__",
    "ConventionViolationError",
    "TruncationError",
    "SlitPairParams",
    "Grid1D",
    "Grid2D",
    "WignerField",
    "SampledWavefunction",
    "MarginalCurve",
    "FringeReport",
    "normalized_params",
    "propagated_width",
    "FluxSpec",
    "PulseSeries",
    "wigner_two_slit",
    "wigner_two_slit_propagated",
    "wigner_single_slit",
    "two_slit_field",
    "single_slit_field",
    "momentum_marginal",
    "position_marginal_propagated",
    "single_slit_marginal",
    "phase_from_flux",
    "phase_from_voltage_pulses",
    "phase_from_magnetic_pulses",
    "sample_wavefunction",
    "momentum_wavefunction",
    "wigner_transform",
    "propagate_free",
    "shear_field",
    "field_marginal",
    "field_marginals",
    "find_fringe_maxima",
    "fringe_shift",
    "fringe_report",
    "common_support_interval",
    "common_projection_interval",
]
