"""Gaussian simulator and analysis toolkit for four-mode squeezed-light networks.

The package is organised bottom-up:

- :mod:`quadnet.states` — Gaussian states, symplectic channels, quadrature
  combinations, and physicality checks (vacuum variance 1/4).
- :mod:`quadnet.criteria` — the six correlation combinations per state family,
  closed-form variances, optimal gains, and the bipartite separability bounds
  used to certify full inseparability.
- :mod:`quadnet.network` — a small text format for optical networks, its
  elaborator, and the preset four-mode experiment builder.
- :mod:`quadnet.sampling` — homodyne sample generation, variance estimation,
  and spectrum-analyzer-style noise traces.
- :mod:`quadnet.calibration` — measured-data containers, uniform-efficiency
  fitting, and model-vs-measurement consistency reports.
- :mod:`quadnet.cli` — the ``quadnet`` command-line entry point.

``_EXPORTS`` below is the one list of public names: ``__all__`` is built from
it.  ``import quadnet`` loads no submodule.  A public name, or a submodule
such as ``quadnet.calibration``, is imported on first access (PEP 562), so
``calibration`` and ``sampling`` load only when first used, and a command
that uses neither never pays for them.
"""

from importlib import import_module as _import_module

# each submodule and the public names it exports, in the order of __all__
_EXPORTS = {
    "calibration": (
        "CalibrationFit", "CalibrationResult", "ConsistencyReport", "MeasuredComponent",
        "MeasuredDataset", "MeasuredSum", "PredictedMeasurement", "ReportRow",
        "SumReconciliation", "consistency_report", "fit_uniform_efficiency",
        "infer_sum_gains", "load_measured_dataset", "packaged_dataset", "predict_measured",
        "synthetic_dataset",
    ),
    "criteria": (
        "ALL_BIPARTITIONS", "CLUSTER_LABELS", "CRITERION_LABELS", "FAMILIES", "GHZ_LABELS",
        "Bipartition", "CriterionResult", "GainVector", "closed_form", "closed_form_cluster",
        "closed_form_ghz", "combination_forms", "combination_labels", "criterion_totals",
        "evaluate_criteria", "full_inseparability", "numeric_optimal_gain",
        "results_from_totals", "uncovered_bipartitions", "variance_sum_bound",
    ),
    "errors": (
        "FitNonConvergenceError", "NetworkFormatError", "NetworkParseError",
        "ParameterRangeError", "PhysicalityError", "QuadnetError", "UndeclaredLabelError",
        "UnknownKeywordError",
    ),
    "network": (
        "Element", "ExperimentConfig", "NetworkSpec", "build_experiment_network", "elaborate",
        "packaged_network", "parse_network", "serialize_network", "simulate_experiment",
    ),
    "sampling": (
        "ANALYSIS_FREQUENCY_HZ", "NoiseTrace", "TraceConfig", "VarianceEstimate", "emit_trace",
        "estimate_variance", "sample_quadratures", "trace_to_csv",
    ),
    "states": (
        "MAX_SQUEEZING", "VACUUM_VARIANCE", "Axis", "GaussianChannel", "GaussianState",
        "QuadForm", "apply", "beam_splitter", "combination_variance", "commutation_matrix",
        "db_rel_snl", "is_physical", "is_symplectic", "loss_channel", "phase_shift", "snl",
        "squeezer", "vacuum",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """A submodule, or a public name read from its module, imported on first access."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
