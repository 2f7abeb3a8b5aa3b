"""Shared fixture matrices.

``hex_facet_generators`` is the 3x5 matrix whose first three columns are
dependent, so its zonotope has a pair of hexagonal facets and one degenerate
generator triple; ``perturbed_hex_generators`` lifts the dependency.
``gram_equal_pairs`` are four (A, B) pairs with equal column Grams and equal
row Grams, exercising the comparison-condition calculus.
``scale_dependent_closure`` is a full-rank 4x5 matrix whose facet pass cannot
succeed while rank cuts depend on each submatrix's largest entry.
"""

import numpy as np


def hex_facet_generators():
    return np.array(
        [
            [1.0, 0.0, 1.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0, 1.0],
        ]
    )


def perturbed_hex_generators(eps):
    a = hex_facet_generators()
    a[2, 2] = eps
    return a


def scale_dependent_closure():
    """Rank 4, yet the closure of a 3-subset takes all five columns.

    ``numkit.rank`` takes its cut from each submatrix's largest entry, so the
    columns of norm ~0.01 count as dependent next to the 1e4 columns in some
    submatrices and as independent in others: the greedy basis of that
    closure has four columns, not three.
    """
    return np.array(
        [
            [20000.0, 0.0001, -2000.0, -0.01, 300.0],
            [-30000.0, 0.0, -2000.0, -0.02, 200.0],
            [-10000.0, -0.0001, 0.0, -0.01, -300.0],
            [30000.0, 0.0001, 3000.0, 0.01, 100.0],
        ]
    )


def gram_equal_pairs():
    a1 = np.array([[5.0, 1.0], [1.0, 3.0]])
    b1 = np.sqrt(2.0) * np.array([[3.0, 2.0], [2.0, -1.0]])
    a2 = np.array([[3.0, -12.0], [4.0, -3.0], [12.0, 4.0]]) / 13.0
    b2 = np.sqrt(2.0) / 26.0 * np.array([[15.0, -9.0], [7.0, 1.0], [8.0, 16.0]])
    a3 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b3 = np.array([[46.0, 48.0], [82.0, 124.0]]) / np.sqrt(884.0)
    a4 = np.array([[26.0, 8.0], [24.0, 2.0], [18.0, -16.0], [32.0, 26.0]])
    b4 = np.sqrt(2.0) * np.array([[17.0, 9.0], [13.0, 11.0], [1.0, 17.0], [29.0, 3.0]])
    return [(a1, b1), (a2, b2), (a3, b3), (a4, b4)]


def comparison_counterexample():
    """Pair where condition (3) holds with identity witnesses but (1),(2) fail."""
    a = np.array([[2.0, 6.0], [0.0, -1.0]])
    b = np.array([[2.0, 2.0], [0.0, 1.0]])
    return a, b
