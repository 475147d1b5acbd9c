"""Observation-subset selection for Gaussian Markov random fields.

Selects which variables of a Gaussian MRF (or Gaussian free field) to observe
so as to approximately minimize the average expected squared prediction error
of the rest: exact search on small instances, certified greedy on GFFs, and an
epsilon-net-rounded message-passing dynamic program on tree decompositions.
"""

from .decomposition import TreeDecomposition, balance_for_tree, parse_and_normalize
from .dp import MessageTable, dp_select, extract_solution, factorize, run_dp
from .exact import exact_budget, exact_cover
from .greedy import greedy_budget, greedy_cover
from .linalg import SupportedMatrix, diag_of_inverse, marginal, obs, trace_of_inverse
from .models import (
    GffModel,
    GmrfModel,
    Guarantee,
    SelectionReport,
    conditional_variance,
    effective_resistance,
    err,
    laplacian,
    predictor_weights,
    random_gff,
    random_gmrf,
    tree_gmrf_to_gff,
)
from .rounding import GffRounder, SvdRounder
from .validate import validate_suite

__all__ = [
    "GffModel",
    "GffRounder",
    "GmrfModel",
    "Guarantee",
    "MessageTable",
    "SelectionReport",
    "SupportedMatrix",
    "SvdRounder",
    "TreeDecomposition",
    "balance_for_tree",
    "conditional_variance",
    "diag_of_inverse",
    "dp_select",
    "effective_resistance",
    "err",
    "exact_budget",
    "exact_cover",
    "extract_solution",
    "factorize",
    "greedy_budget",
    "greedy_cover",
    "laplacian",
    "marginal",
    "obs",
    "parse_and_normalize",
    "predictor_weights",
    "random_gff",
    "random_gmrf",
    "run_dp",
    "trace_of_inverse",
    "tree_gmrf_to_gff",
    "validate_suite",
]
