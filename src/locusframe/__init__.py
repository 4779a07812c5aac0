"""Locus-aligned reference-frame transforms for unbalanced three-phase signals.

An unbalanced sinusoidal three-phase triple traces an ellipse in abc space.
This package builds a basis aligned with that locus from two evaluations a
quarter period apart, inverts the resulting 3x3 frame matrix in closed form,
and maps the signal into coordinates that are unit-amplitude quadrature
sinusoids with a null third channel, hence constant after a synchronous
rotation.  Classical Clarke/Park pipelines and Fortescue symmetrical
components are included for comparison.
"""

from .locus import (
    CircularLocusError,
    DegenerateLocusError,
    InsufficientRateError,
    InsufficientSpanError,
    LocusBasis,
    LocusError,
    MAX_NORM,
    MeasurementError,
    NormProfile,
    PHASE_A_PEAK,
    UndefinedOrientationError,
    basis_from_stream,
    basis_from_vectors,
    basis_vectors,
    build_basis,
    norm_profile,
    resolve_orientation,
    theta_max_norm,
    theta_phase_a_peak,
)
from .sequence import (
    PhasorTriple,
    SequenceComponents,
    ZeroPositiveSequenceError,
    fortescue,
    reconstruct,
    to_phasors,
    unbalance_metrics,
)
from .transform import (
    FrameTransform,
    abc_series,
    apply,
    assemble,
    clarke_matrix,
    park_rotate,
    pipeline_clarke_park,
    pipeline_locus,
)
from .waveform import (
    FRAME_KINDS,
    PhasorScenario,
    ScenarioError,
    ScenarioSegment,
    TransformedSeries,
    evaluate,
    evaluate_scenario,
    load_scenario,
    parse_scenario,
    sample_series,
    segment_at,
    total_phases,
    wrap_angle,
)

__version__ = "0.1.0"

