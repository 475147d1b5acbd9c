import dataclasses
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import gmrf_select

PUBLIC = [
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


def test_public_surface_is_pinned():
    # test-only oracles (tests/oracles.py) are not part of the package
    assert sorted(gmrf_select.__all__) == PUBLIC
    # each name is resolved on first access, as its defining module's object
    for name in gmrf_select.__all__:
        owner = importlib.import_module(getattr(gmrf_select, name).__module__)
        assert getattr(gmrf_select, name) is getattr(owner, name)
    assert gmrf_select.dp_select is gmrf_select.dp.dp_select
    # dir() and a star import see every name before any has been accessed
    probe = ("import gmrf_select\n"
             "print(sorted(set(dir(gmrf_select)) & set(gmrf_select.__all__)))\n"
             "scope = {}\n"
             "exec('from gmrf_select import *', scope)\n"
             "print(sorted(set(scope) - {'__builtins__'}))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [repr(PUBLIC)] * 2
    assert set(PUBLIC) <= set(dir(gmrf_select))
    with pytest.raises(AttributeError, match="^module 'gmrf_select' has no attribute 'nope'$"):
        gmrf_select.nope


def test_data_type_attributes_are_pinned():
    # lookups are linalg/models functions, not methods: a precision row
    # is v - 1, and cluster-tree neighbours come from models.adjacency;
    # a model's precision has one reader, the precision_matrix attribute
    def public(obj):
        return [name for name in dir(obj) if not name.startswith("_")]

    assert public(gmrf_select.SupportedMatrix) == ["zeros"]
    # the dimension n belongs to the model, not to its matrices
    fields = [f.name for f in dataclasses.fields(gmrf_select.SupportedMatrix)]
    assert fields == ["support", "block"]
    assert public(gmrf_select.TreeDecomposition) == ["height", "m", "root", "width"]
    gff = gmrf_select.GffModel(3, [(1, 2, 1.0), (2, 3, 2.0)])
    gmrf = gmrf_select.GmrfModel([[2.0, -1.0], [-1.0, 2.0]])
    assert public(gff) == ["covariance", "edges", "graph_edges", "n", "pin", "pinned",
                           "precision_matrix", "vertices"]
    assert public(gmrf) == ["covariance", "from_covariance", "graph_edges", "n", "pinned",
                            "precision_matrix", "vertices"]


def test_precision_is_a_read_only_array():
    # a model's precision is its own dense n x n float array, row v - 1 for
    # vertex v; only the DP wraps it in a SupportedMatrix
    gff = gmrf_select.GffModel(3, [(1, 2, 1.0), (2, 3, 2.0)])
    given = np.array([[2.0, -1.0], [-1.0, 2.0]])
    gmrf = gmrf_select.GmrfModel(given)
    for model in (gff, gmrf):
        lam = model.precision_matrix
        assert type(lam) is np.ndarray
        assert lam.dtype == np.float64 and lam.shape == (model.n, model.n)
        assert not lam.flags.writeable
    lap = gmrf_select.laplacian(gff)
    assert type(lap) is np.ndarray and lap.dtype == np.float64 and lap.shape == (3, 3)
    assert lap.tobytes() == gff.precision_matrix.tobytes()
    assert not np.shares_memory(gmrf.precision_matrix, given)
    given[0, 0] = 5.0
    assert gmrf.precision_matrix[0, 0] == 2.0


def test_error_classes_are_pinned():
    # one class per failure: a new raise site reuses the class that names it
    from gmrf_select import errors

    names = sorted(name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.GmrfSelectError))
    assert names == [
        "DisconnectedGraph",
        "GmrfSelectError",
        "IndependentPairPresent",
        "IndexOutOfSupport",
        "InfeasibleParameters",
        "InstanceTooLarge",
        "InvalidDecomposition",
        "InvalidMatrix",
        "InvariantViolation",
        "NotATree",
        "NumericFailure",
        "OutOfGridRange",
        "ParseError",
        "RankDeficient",
        "SingularMatrix",
    ]
