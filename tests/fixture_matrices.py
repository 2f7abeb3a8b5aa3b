"""Shared fixture matrices.

``hex_facet_generators`` is the 3x5 matrix whose first three columns are
dependent, so its zonotope has a pair of hexagonal facets and one degenerate
generator triple; ``perturbed_hex_generators`` lifts the dependency.
``gram_equal_pairs`` are four (A, B) pairs with equal column Grams and equal
row Grams, exercising the comparison-condition calculus.
``scale_dependent_closure`` and ``spread_scale_mesh`` are full-rank matrices
whose faces come out wrong when rank cuts depend on each submatrix's largest
entry rather than on the column directions. ``near_cut_default_tol`` and
``near_cut_wide_tol`` are rank-3 matrices near the rank cut on which vertex
enumeration by facet sub-zonotopes never ended; ``near_cut_rank_deficient``
is a rank-2 matrix in R^3 whose column-space basis has three columns.
``long_sums`` has facet translations and facet volumes that add 8 or more
terms.
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
    """Rank 4 with column norms from 0.01 to 5e4; 10 generating facets.

    ``numkit.rank`` takes its cut from each submatrix's largest entry, so on
    the raw columns the columns of norm ~0.01 count as dependent next to the
    1e4 columns in some submatrices and as independent in others, and the
    closure of a 3-subset took all five columns. On unit columns every
    exactly independent 4-subset (there are 5) is independent and the facets
    are the exact ones.
    """
    return np.array(
        [
            [20000.0, 0.0001, -2000.0, -0.01, 300.0],
            [-30000.0, 0.0, -2000.0, -0.02, 200.0],
            [-10000.0, -0.0001, 0.0, -0.01, -300.0],
            [30000.0, 0.0001, 3000.0, 0.01, 100.0],
        ]
    )


def spread_scale_mesh():
    """Rank 3 with column norms from 1.8e-4 to 1.9e4: 15 facet pairs, 32 vertices.

    With rank cuts taken from the raw submatrices, ``zonokit mesh`` wrote 30
    vertices and 26 facets and exited 0.
    """
    return np.array(
        [
            [0.0, 0.05, 0.1, 4.0, -9e-05, 5000.0],
            [20.0, 0.19, 0.0, -13.0, -0.0001, 15000.0],
            [-50.0, -0.21, -0.06, 0.0, 0.00012, -10000.0],
        ]
    )


def near_cut_default_tol():
    """3x9 near the cut at the default tolerance.

    Columns 0 and 2 are within about 1e-9 of parallel, and column 4 nearly
    lies in the plane of columns 6..8. Some closed 2-face's sub-zonotope had
    rank 3 again, so the sub-zonotope recursion raised RecursionError.
    """
    return np.array(
        [
            [-1000.0000000025293, 1, -0.99999999540290385, -2, -1.8168476465311737e-07, -1, 0, 0, 0],
            [-2000.0000000007474, 0, -2.000000050923433, -2, -0.9999999997308141, -2, 1, -1, 0],
            [-3.4203877287499468e-10, 0, -2.870841084047902e-09, -1, 1.4207584312852298e-07, 0, 2, -1, 2],
        ]
    )


def near_cut_wide_tol():
    """3x9 near the cut at ``Tolerance(rel=1e-3)``; the same failure as above."""
    return np.array(
        [
            [
                -2.0800674111281108, 1.5557268391034098, 1.8178971251157603,
                1.818054355108111, 1.8182115851004619, -1.0400337055640554,
                1.3018895315917043, -1.0397192455793538, 1.5554123791187082,
            ],
            [
                1.7366524253662574, 0.017274914284152176, -0.85968875554105262,
                -0.93168548169194154, -1.0036822078428305, 0.86832621268312871,
                -1.6012964302065558, 0.72433276038135086, 0.16126836658593005,
            ],
            [
                -2.7757414817578825, 4.2345681378342785, 3.5051548097960805,
                3.3976426215935467, 3.2901304333910124, -1.3878707408789412,
                0.8734817892458111, -1.6028951172840091, 4.4495925142393462,
            ],
        ]
    )


def near_cut_rank_deficient():
    """3x5 of rank 2 at the default tolerance, with a third row of size 1e-9.

    Columns 0 and 1 are within 1e-6 of parallel. Greedy ``independent_columns``
    picks three columns, so the column-space basis does not match the rank and
    the facet table cannot be built.
    """
    return np.array(
        [
            [
                0.14462473167059664, 0.14462436285566171, -1.4321069144487169,
                2.3350119662175937, 0.008202120078120361,
            ],
            [
                -0.3269543230964199, -0.32695471724815395, 0.15451558463119425,
                2.3817872060226932, 1.1414964262773715,
            ],
            [
                4.816600623497077e-10, -4.0380990544150317e-10, 1.1126895512669107e-09,
                -2.541378637107868e-11, -6.826635091618853e-11,
            ],
        ]
    )


def long_sums():
    """3x12 with sums of 8 or more terms in its facets and tiles.

    Columns 0..4 lie in the xy-plane, so they form one closed 2-face whose
    area adds C(5, 2) = 10 subset areas, with the other 7 columns above it;
    8 facets translate by 8 to 10 columns. From 8 terms a pairwise sum (as
    numpy adds a 1-D array) and a left-to-right one can differ in the last
    bit; with the integer directions scaled by 1 + j/7, some of these sums do.
    """
    directions = np.array(
        [
            [1, 0, 1, 1, 2, 0, 1, 0, 1, -1, 2, 1],
            [0, 1, 1, -1, 1, 0, 0, 1, 1, 1, -1, 2],
            [0, 0, 0, 0, 0, 1, 1, 1, 2, 1, 1, 1],
        ],
        dtype=float,
    )
    return directions * (1.0 + np.arange(12) / 7.0)


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
