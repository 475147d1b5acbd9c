import dataclasses

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
    for name in gmrf_select.__all__:
        assert getattr(gmrf_select, name) is not None


def test_data_type_attributes_are_pinned():
    # lookups are linalg/decomposition functions, not methods: a precision row
    # is v - 1, and cluster-tree neighbours come from decomposition.adjacency;
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
