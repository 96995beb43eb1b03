import importlib
import pkgutil

import posetpoly

PUBLIC = [
    "EulerianPair",
    "InvariantSpec",
    "LabeledPoset",
    "LocalizedRatio",
    "OmegaGraph",
    "Poset",
    "PosetParseError",
    "QSymTruncated",
    "UniPoly",
    "binomial_poly",
    "build_omega_graph",
    "chain_polynomial",
    "count_paths",
    "delta",
    "delta_inverse",
    "enumerate_ideals",
    "eulerian_from_chains",
    "eulerian_recursive",
    "eulerian_tilde_recursive",
    "lagrange_interpolate",
    "make_antichain",
    "make_chain",
    "make_poset",
    "make_shrub",
    "nabla",
    "nabla_inverse",
    "natural_labeling",
    "order_poly_bruteforce",
    "order_poly_matrix",
    "order_poly_recursive",
    "order_poly_unlabeled",
    "parse_poset_file",
    "phi",
    "qsym_direct",
    "qsym_recursive",
    "reversed_labeling",
    "run_invariant",
    "signed_order_poly_nabla",
    "strict_order_poly",
]


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(posetpoly.__path__)]
    modules = [importlib.import_module(f"posetpoly.{name}") for name in names if name != "__main__"]
    assert len(modules) >= 14
    for module in [posetpoly, *modules]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_the_pinned_names():
    assert posetpoly.__all__ == PUBLIC
