"""Combinatorial answers under transforms that cannot change them exactly.

Rotating the generators, scaling each by a positive factor (here 10^-4 to
10^4), permuting them and flipping their signs (which only translates the
zonotope) leave the rank, the generating facets, the facet and vertex counts
and the tile census unchanged up to relabelling the columns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zonokit.tiling import tile_zonotope
from zonokit.zonotope import Zonotope

import oracles


def base_matrix(rng, kind, n, k):
    """Gaussian or integer -2..2 generators, column norms within a factor of 4.

    Columns of norm 1 to 4 scaled by 10^-4..10^4 stay above the cut at which
    ``Zonotope`` strips zero generators (taken from the whole matrix's
    largest entry), so no transform changes k.
    """
    if kind == "integer":
        m = rng.integers(-2, 3, size=(n, k)).astype(float)
        m[0, ~m.any(axis=0)] = 1.0
    else:
        m = rng.normal(size=(n, k))
        m *= rng.uniform(1.0, 2.0, size=k) / np.linalg.norm(m, axis=0)
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_census_invariant_under_rotation_scaling_permutation_flips(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(3, 5)), int(rng.integers(3, 9))
    m = base_matrix(rng, rng.choice(["gaussian", "integer"]), n, k)
    if rng.integers(3) == 0:  # one input in three has an antiparallel pair
        m[:, -1] = -m[:, 0]
    sigma = rng.permutation(k)
    signs = rng.choice([-1.0, 1.0], size=k)
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=k)
    moved = (oracles.random_orthogonal(rng, n) @ m * scales)[:, sigma] * signs
    z, z2 = Zonotope(m), Zonotope(moved)
    assert z2.k == z.k == k

    # column p of the moved matrix is column sigma[p] of m
    def relabel(columns):
        return tuple(sorted(int(sigma[p]) for p in columns))

    assert z2.rank == z.rank
    faces = [f.columns for f in z.generating_faces(z.rank - 1)]
    assert sorted(relabel(f.columns) for f in z2.generating_faces(z2.rank - 1)) == faces
    if z.rank >= 2:
        assert len(z2.geometric_facets()) == len(z.geometric_facets()) == 2 * len(faces)
    assert len(z2.vertices()) == len(z.vertices())
    if z.rank == n:
        assert sorted(relabel(c) for c in tile_zonotope(z2).census()) == tile_zonotope(z).census()
