"""Lower bounds, verification, and randomized construction of binary
arrays with the generalized EKR triple-coverage property.

`import gekr` loads no submodule: each public name, and each submodule,
is imported on first use (PEP 562), so a caller pays to compile only
the modules it runs."""

import importlib

#: The module that defines each public name.
_HOMES = {
    "bounds": "AsymptoticProfile asymptotic_profile fixed_deficiency_prob floor_rows"
    " lll_max_rows nu p_fixed_exact p_independent sigma1 sigma2 zeta",
    "construct": "ConstructionConfig ConstructionResult greedy_extend moser_tardos"
    " rejection sample_rows",
    "core": "GEKR ArrayMatrix DeficiencyReport LogMagnitude ModelParams Pattern"
    " PatternSet Strategy pack_row parse_alpha parse_array render_magnitude",
    "exact": "MaxFamilyResult enumerate_missing_prob max_family witness_matrix",
    "optimize": "FigureTable argmin_independent argmin_mu figure_data",
    "verify": "find_deficient find_deficient_naive is_gekr",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = {*_HOMES, "cli"}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
