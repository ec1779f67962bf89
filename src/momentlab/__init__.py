"""momentlab: exact Catalan-like sequences and their moment problems.

The package generates Catalan-like number sequences from (sigma, tau)
recurrence data, classifies finite prefixes as Hamburger / Stieltjes /
interval moment sequences through exact Hankel criteria, certifies
support intervals with chain sequences, and verifies closed-form
integral representations and sequence transforms by quadrature.

``import momentlab`` loads none of the submodules.  Each public name
below, and each submodule, is imported on first access, so a process
loads only the layers it uses.  A name is looked up in its submodule on
every access and never cached here, so ``momentlab.classify`` always is
``momentlab.hankel.classify``, also after that attribute is rebound.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "GNegative", "HypothesisFailure", "InsufficientData", "LengthMismatch",
        "MomentLabError", "NonIntegrable", "NotPositiveCase", "PoleAt",
        "QuasiDefiniteFailure", "TooShort", "UnknownName", "ZeroTau",
    ),
    "exact": ("Surd", "ensure_fraction", "format_rational", "sqrt_exact"),
    "seqcore": (
        "CATALOG", "RecursiveMatrix", "Sequence", "SigmaTauSpec", "catalan_like",
        "catalog_names", "catalog_sequence", "make_spec", "recursive_matrix",
        "spec_from_prefixes",
    ),
    "hankel": (
        "MomentClassReport", "PsdVerdict", "SymMatrix", "bareiss_det", "classify",
        "hankel_det", "hankel_matrix", "hausdorff_combination", "psd_status", "shift",
    ),
    "orthopoly": (
        "MonicPolynomial", "ops_from_recurrence", "ops_zeros", "recurrence_from_moments",
        "riesz", "true_interval_estimate",
    ),
    "chainseq": (
        "ChainVerdict", "SupportCertificate", "SupportReport", "alpha_sequence",
        "certify_support", "constant_tail_certificate", "is_chain_with_parameters",
        "minimal_parameters", "support_interval",
    ),
    "measures": (
        "Density", "TransformSpec", "check_g_nonneg", "density_catalog",
        "density_names", "density_plot_csv", "linear_combination_transform",
        "moment_quadrature", "pattern_is_stieltjes_preserving", "pushforward_power",
        "subsequence_transform", "transform_support", "transformed_density",
        "translate_density", "verify_representation", "verify_transform_consistency",
    ),
}

#: The submodule that holds each public name, and each submodule's own name.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SOURCE.update((module, module) for module in (*_EXPORTS, "cli"))

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
