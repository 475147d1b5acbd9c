"""Observation-subset selection for Gaussian Markov random fields.

Selects which variables of a Gaussian MRF (or Gaussian free field) to observe
so as to approximately minimize the average expected squared prediction error
of the rest: exact search on small instances, certified greedy on GFFs, and an
epsilon-net-rounded message-passing dynamic program on tree decompositions.

Each public name is imported from its module on first access (PEP 562), so
``import gmrf_select`` loads no submodule and a CLI request loads only the
modules its command runs.
"""

from importlib import import_module

_MODULE_OF = {name: module for module, names in {
    "decomposition": ("TreeDecomposition", "balance_for_tree", "parse_and_normalize"),
    "dp": ("MessageTable", "dp_select", "extract_solution", "factorize", "run_dp"),
    "exact": ("exact_budget", "exact_cover"),
    "greedy": ("greedy_budget", "greedy_cover"),
    "linalg": ("SupportedMatrix", "diag_of_inverse", "marginal", "obs", "trace_of_inverse"),
    "models": ("GffModel", "GmrfModel", "Guarantee", "SelectionReport",
               "conditional_variance", "effective_resistance", "err", "laplacian",
               "predictor_weights", "random_gff", "random_gmrf", "tree_gmrf_to_gff"),
    "rounding": ("GffRounder", "SvdRounder"),
    "validate": ("validate_suite",),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
