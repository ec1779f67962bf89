"""The package's lazy exports: every public name resolves to its submodule."""

import importlib

import pytest

import momentlab

#: The public names of the package, by the submodule that defines them.
EXPORTS = {
    "errors": "GNegative HypothesisFailure InsufficientData LengthMismatch MomentLabError "
              "NonIntegrable NotPositiveCase PoleAt QuasiDefiniteFailure TooShort "
              "UnknownName ZeroTau",
    "exact": "Surd ensure_fraction format_rational sqrt_exact",
    "seqcore": "CATALOG RecursiveMatrix Sequence SigmaTauSpec catalan_like catalog_names "
               "catalog_sequence make_spec recursive_matrix spec_from_prefixes",
    "hankel": "HausdorffVerdict MomentClassReport PsdVerdict SymMatrix bareiss_det "
              "classify hankel_det hankel_matrix hausdorff_combination hausdorff_test "
              "psd_status shift",
    "orthopoly": "MonicPolynomial ops_determinantal ops_from_recurrence ops_zeros "
                 "recurrence_from_moments riesz true_interval_estimate",
    "chainseq": "ChainVerdict SupportCertificate SupportReport alpha_sequence "
                "certify_support constant_tail_certificate is_chain_with_parameters "
                "minimal_parameters support_interval",
    "measures": "Density TransformSpec check_g_nonneg density_catalog density_names "
                "density_plot_csv linear_combination_transform moment_quadrature "
                "pattern_is_stieltjes_preserving pushforward_power subsequence_transform "
                "transform_support transformed_density translate_density "
                "verify_representation verify_transform_consistency",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_export_count():
    assert len(NAMES) == len({name for _, name in NAMES}) == 70


@pytest.mark.parametrize("module,name", NAMES)
def test_name_is_the_submodule_attribute(module, name):
    source = importlib.import_module(f"momentlab.{module}")
    assert getattr(momentlab, name) is getattr(source, name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from momentlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(name for _, name in NAMES)
    assert sorted(momentlab.__all__) == sorted(namespace)


def test_dir_lists_names_and_submodules():
    listed = set(dir(momentlab))
    assert {name for _, name in NAMES} <= listed
    assert set(EXPORTS) | {"cli", "__version__"} <= listed


@pytest.mark.parametrize("module", [*EXPORTS, "cli"])
def test_submodules_resolve(module):
    assert getattr(momentlab, module) is importlib.import_module(f"momentlab.{module}")


def test_version():
    assert momentlab.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        momentlab.no_such_name
    assert not hasattr(momentlab, "no_such_name")
    assert not hasattr(momentlab, "_chebyshev")  # private names stay in their module


def test_rebound_attribute_is_seen_through_the_package(monkeypatch):
    from momentlab import hankel

    def stand_in(*args, **kwargs):
        return "rebound"

    monkeypatch.setattr(hankel, "classify", stand_in)
    assert momentlab.classify is stand_in
    monkeypatch.undo()
    assert momentlab.classify is hankel.classify
