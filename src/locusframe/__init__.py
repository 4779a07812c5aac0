"""Locus-aligned reference-frame transforms for unbalanced three-phase signals.

An unbalanced sinusoidal three-phase triple traces an ellipse in abc space.
This package builds a basis aligned with that locus from two evaluations a
quarter period apart, inverts the resulting 3x3 frame matrix in closed form,
and maps the signal into coordinates that are unit-amplitude quadrature
sinusoids with a null third channel, hence constant after a synchronous
rotation.  Classical Clarke/Park pipelines and Fortescue symmetrical
components are included for comparison.
"""

#: the names each submodule exports here; a name is imported on its first use
_EXPORTS = {
    "locus": (
        "CircularLocusError",
        "DegenerateLocusError",
        "LocusBasis",
        "LocusError",
        "MAX_NORM",
        "MeasurementError",
        "NormProfile",
        "PHASE_A_PEAK",
        "UndefinedOrientationError",
        "basis_from_stream",
        "basis_from_vectors",
        "basis_vectors",
        "build_basis",
        "norm_profile",
        "resolve_orientation",
        "theta_max_norm",
        "theta_phase_a_peak",
    ),
    "sequence": (
        "PhasorTriple",
        "SequenceComponents",
        "ZeroPositiveSequenceError",
        "fortescue",
        "reconstruct",
        "to_phasors",
        "unbalance_metrics",
    ),
    "transform": (
        "FrameTransform",
        "abc_series",
        "apply",
        "assemble",
        "clarke_matrix",
        "park_rotate",
        "pipeline_clarke_park",
        "pipeline_locus",
    ),
    "waveform": (
        "PhasorScenario",
        "ScenarioError",
        "ScenarioSegment",
        "TransformedSeries",
        "evaluate",
        "evaluate_scenario",
        "load_scenario",
        "parse_scenario",
        "sample_series",
        "segment_at",
        "total_phases",
        "wrap_angle",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

#: the star import's names: every export and the four submodules
__all__ = [*_SOURCE, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or one of the modules in _EXPORTS, imported on first use.

    A CLI process thus compiles only the modules its subcommand runs: ``validate``
    never loads ``transform`` or ``sequence``.
    """
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's import, which binds the submodule in this package and
    # shows in -X importtime
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)  # later lookups skip this function
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
