"""Spin-dependent Faraday rotation of probe light in a high-finesse cavity.

A single spin-1/2 emitter couples one circular polarization component of a
weak probe to a cavity mode while the opposite component passes unaffected,
turning spin state into polarization rotation and ellipticity of the
transmitted light. The package provides:

- analytic steady-state transmittance and the count-based rotation
  estimator (``optics``)
- parameter derivation from cavity geometry (``params``)
- a Lindblad steady-state solver used as an independent oracle and for
  fluorescence lineshapes (``lindblad``)
- the back-action measurement model: Kraus operators, conditional spin
  populations, measurement reversal (``measurement``)
- Monte Carlo ensembles of falling atoms with real-time coincidence
  selection (``montecarlo``)
- design scans and the two-qubit feasibility estimate (``scans``)
- a CSV-producing command line, ``spinfaraday`` (``cli``)
"""

from .lindblad import (
    CutoffError,
    LindbladModel,
    Lineshape,
    curve_fwhm,
    fluorescence_lineshape,
    fluorescence_rate,
    liouvillian,
    purcell_rate_formula,
    steady_state,
    transmittance_steady,
)
from .measurement import (
    ConditionalCurves,
    ConditionalResult,
    MeasurementError,
    REFLECTED,
    TRANSMITTED,
    conditional_curves,
    conditional_population,
    detection_prob_down,
    detection_prob_up,
    kraus,
    population_vs_detuning,
    pure_rotation_curves,
)
from .montecarlo import (
    Ensemble,
    MotionModel,
    SelectionError,
    average_rotation,
    average_transmittance,
    coupling_matrix,
    sample_selected_trajectories,
    threshold_trajectories,
)
from .optics import (
    InsufficientCountsError,
    angle_from_counts,
    coupling_grid,
    rotation_curve,
    t_minus_value,
)
from .params import (
    TWO_PI,
    CavityGeometry,
    ConfigError,
    DEFAULT_DETECTION,
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    DetectionChain,
    GeometryError,
    SystemParams,
    build_settings,
    derive_g0,
    derive_kappa,
    derive_waist,
    finesse,
    load_config,
    params_for_geometry,
    parse_config_text,
    settings_to_flat,
)
from .scans import (
    CAVITY_EQUALS_ATOM,
    CnotReport,
    LosslessPoint,
    MaxRotation,
    PROBE_EQUALS_CAVITY,
    ScanResult,
    cnot_feasibility,
    default_reflectivity_grid,
    lossless_rotation_point,
    max_rotation,
    scan_length,
    scan_reflectivity,
)

__version__ = "1.0.0"
