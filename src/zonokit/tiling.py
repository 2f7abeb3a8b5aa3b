"""Parallelotope tilings of zonotopes, as built by the shelling induction.

The shelling adds generators one at a time; each addition either extends
every tile into the new dimension (rank grows) or glues a cup of new tiles
onto the visible surface (rank stays). Its result is the regular tiling got
by lifting each generator to a height that grows steeply with its place in
the insertion order, so it is computed here in closed form, as array code:
the zonotope's rank census of the n-subsets (``Zonotope.rank_census``,
shared with the faces and with validation) and the signs of their n x n
minors (``Zonotope.subset_measures``, shared with the volume) give every
tile and its translation. Each independent full-size column subset is used
exactly once. Independence is decided on the generators scaled to unit
length, as in ``Zonotope``.

Validation decides containment from each tile's highest corner along each
facet normal and disjointness from each tile's cube coordinates of every
tile centre, both as GEMMs. A tile or pair within a rounding bound of its
cut is decided again by the per-pair matrix-vector products a loop uses, so
every report is bit-identical to the loop's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DimensionError
from .numkit import as_matrix, as_vector, column_subsets, column_sums, rank_census, subset_index, subset_measures
from .numkit import omit_each, unit_columns

# Bytes of floats per stacked step of the tiling checks: bounds the temporaries
# of large tilings without splitting desk-scale ones much.
CHUNK_BYTES = 1 << 19


@dataclass(eq=False)
class Tile:
    """Translated parallelotope on an independent column subset."""

    columns: tuple
    translation: np.ndarray


@dataclass(eq=False)
class Tiling:
    tiles: list
    source: dict = field(default_factory=dict)

    def volume_sum(self, matrix):
        return _volume_sum(_tile_generators(as_matrix(matrix), self.tiles))

    def census(self):
        return sorted(t.columns for t in self.tiles)

    def to_dict(self, matrix):
        matrix = as_matrix(matrix)
        n = matrix.shape[0]
        return {
            "format_version": 1,
            "matrix": {
                "rows": matrix.shape[0],
                "cols": matrix.shape[1],
                "data": matrix.ravel().tolist(),
            },
            "order": [int(i) for i in self.source.get("order", [])],
            "tiles": [
                {"columns": c, "translation": t}
                for c, t in zip(_tile_columns(self.tiles, n).tolist(), _tile_origins(self.tiles, n).tolist())
            ],
        }

    @classmethod
    def from_dict(cls, payload):
        tiles = [
            Tile(tuple(t["columns"]), np.asarray(t["translation"], dtype=float))
            for t in payload["tiles"]
        ]
        return cls(tiles, {"order": list(payload.get("order", []))})


@dataclass(eq=False)
class CupOfCubes:
    """Shell of tiles added when one generator joins the construction."""

    new_generator: int
    tiles: list


@dataclass(eq=False)
class TilingReport:
    volume_ok: bool
    census_ok: bool
    disjoint_ok: bool
    containment_ok: bool
    volume_sum: float
    expected_volume: float
    duplicates: list
    missing: list
    unexpected: list
    disjoint_violations: list
    containment_violations: list

    @property
    def ok(self):
        return self.volume_ok and self.census_ok and self.disjoint_ok and self.containment_ok


def visible_surface(z, direction):
    """Bounding facets whose outward normal points strictly along ``direction``, decided at ``z.tol``."""
    d = as_vector(direction)
    if d.size != z.n:
        raise DimensionError("direction dimension does not match the zonotope")
    if np.linalg.norm(d) <= z.tol.threshold(0.0) or not np.any(d):
        raise DimensionError("direction must be nonzero")
    cut = z.tol.threshold(float(np.linalg.norm(d)))
    return [bf for bf in z.bounding_facets() if float(bf.unit_normal @ d) > cut]


def _lifted_tiles(matrix, census, minors, order):
    """Tiles of the tiling the shelling builds when adding columns in ``order``.

    That tiling is the regular one got by lifting column g to height
    t**pos(g), pos its place in ``order``, as t grows without bound. Tile B is
    translated by the columns j whose lifted minor det[B | j] has the sign
    opposite to det A_B. Expanding that minor along the height row, only the
    term of the highest-placed column c of B + j whose removal leaves an
    independent subset counts, so every sign is that of an n x n minor of A.
    ``census`` is the (subsets, ranks) pair of ``numkit.rank_census`` for the
    n-subsets and ``minors`` their determinants in the same order
    (``numkit.subset_measures``); independence of B + j - c is looked up
    there by lexicographic index. Translations sum ``matrix`` columns by
    place in ``order``.
    """
    n, k = matrix.shape
    combos, ranks = census
    independent = ranks == n
    tiles = combos[independent]
    signs = np.where(independent, np.sign(minors), 0.0)
    own_signs = signs[independent]
    order = np.asarray(order, dtype=int)
    place = np.empty(k, dtype=int)
    place[order] = np.arange(k)
    # row m: the places of a tile other than m, so b[:, others[m]] is B - b_m
    others = omit_each(n)
    translations = np.empty((len(tiles), n))
    for rows in _chunks(len(tiles), (k - n) * n * n):
        b = tiles[rows]
        # the columns j outside each tile, in insertion order
        outside = np.broadcast_to(order, (len(rows), k))[~(order[None, :, None] == b[:, None, :]).any(axis=2)]
        outside = outside.reshape(len(rows), k - n)
        # B with member m swapped for j, for every j and m
        swapped = np.concatenate(
            [
                np.broadcast_to(b[:, None, others], (len(rows), k - n, n, n - 1)),
                np.broadcast_to(outside[:, :, None, None], (len(rows), k - n, n, 1)),
            ],
            axis=3,
        )
        index = subset_index(np.sort(swapped, axis=3), k)
        # members of B + j in that order, j last; removing j leaves B itself
        removable = np.concatenate([independent[index], np.ones((len(rows), k - n, 1), dtype=bool)], axis=2)
        places = np.concatenate(
            [np.broadcast_to(place[b][:, None, :], (len(rows), k - n, n)), place[outside][:, :, None]], axis=2
        )
        # c is member m of B + j; m = n is j itself
        m = np.where(removable, places, -1).argmax(axis=2)
        at = np.minimum(m, n - 1)[:, :, None]
        own = own_signs[rows][:, None]
        rest = np.where(m == n, own, signs[np.take_along_axis(index, at, axis=2)[:, :, 0]])
        # [B, j] without c, sorted: j passes the remaining columns of B above it
        above = b[:, None, :] > outside[:, :, None]
        flips = np.where(m == n, 0, above.sum(axis=2) - np.take_along_axis(above, at, axis=2)[:, :, 0])
        # (-1) ** (n + 1 + p + flips), with p = m + 1 the place of c in [B, j]
        parity = np.where((n + m + flips) % 2, -1.0, 1.0)
        translations[rows] = column_sums(matrix, outside, parity * rest == -own)
    return [Tile(c, t) for c, t in zip(map(tuple, tiles.tolist()), translations)]


def tile_zonotope(z, order=None):
    """Tile a full-rank zonotope into translated generating parallelotopes.

    ``order`` is the generator insertion order (default natural). The tiling
    is the one the shelling induction builds by adding generators in that
    order, computed in closed form from the lexicographic lift. Every
    independent n-subset of columns appears exactly once, tiles come sorted
    by columns, and the tile volumes sum to the zonotope volume.
    """
    if z.rank < z.n:
        raise DegeneracyError(f"tiling needs full rank, got {z.rank} < {z.n}")
    if order is None:
        order = list(range(z.k))
    order = [int(i) for i in order]
    if sorted(order) != list(range(z.k)):
        raise DimensionError("order must be a permutation of the generator indices")
    return Tiling(_lifted_tiles(z.matrix, z.rank_census(z.n), z.subset_measures(z.n), order), {"order": order})


def cup_of_cubes(z_prefix, new_gen, new_index):
    """Tiles added by one induction step appending ``new_gen`` to the prefix."""
    if z_prefix.rank < z_prefix.n:
        raise DegeneracyError("cup_of_cubes needs a full-rank prefix")
    g = as_vector(new_gen)
    if g.size != z_prefix.n:
        raise DimensionError("new generator dimension mismatch")
    matrix = np.column_stack([z_prefix.matrix, g])
    local = matrix.shape[1] - 1
    census = rank_census(unit_columns(matrix), z_prefix.n, z_prefix.tol)
    lifted = _lifted_tiles(matrix, census, subset_measures(matrix, census[0]), list(range(local + 1)))
    tiles = [
        Tile(
            tuple(sorted(new_index if c == local else c for c in t.columns)),
            t.translation,
        )
        for t in lifted
        if local in t.columns
    ]
    tiles.sort(key=lambda t: t.columns)
    return CupOfCubes(new_index, tiles)


def _tile_generators(matrix, tiles):
    """(T, n, n) stack of each tile's generator matrix."""
    return column_subsets(matrix, _tile_columns(tiles, matrix.shape[0]))


def _volume_sum(gens):
    """Sum of |det| over a (T, n, n) tile generator stack, added left to right."""
    return float(sum(np.abs(np.linalg.det(gens)).tolist()))


def _tile_columns(tiles, n):
    """(T, n) int array of each tile's columns."""
    return np.asarray([t.columns for t in tiles], dtype=int).reshape(len(tiles), n)


def _tile_origins(tiles, n):
    """(T, n) float array of each tile's translation."""
    return np.asarray([t.translation for t in tiles], dtype=float).reshape(len(tiles), n)


def _chunks(count, row_floats):
    """Index runs covering ``range(count)``, each of about CHUNK_BYTES of row floats."""
    step = max(1, CHUNK_BYTES // (8 * max(row_floats, 1)))
    return [np.arange(start, min(start + step, count)) for start in range(0, count, step)]


def _outside_by_corners(origins, gens, normals, bounds):
    """Whether some corner of each tile is higher than a bound along its normal.

    Every corner's height is one BLAS matrix-vector product per (tile,
    normal) pair, as a loop over the tiles computes it; the cheap bound in
    :func:`validate_tiling` defers to this near the cut.
    """
    n = origins.shape[1]
    corners = np.array([[float(b) for b in np.binary_repr(i, n)] for i in range(2 ** n)])
    points = origins[:, None, :] + np.matmul(corners, np.swapaxes(gens, 1, 2))
    heights = np.matmul(points[:, None], normals)[:, :, :, 0]
    return np.any(heights > bounds, axis=(1, 2))


def _inside_by_products(inverses, offsets, eps):
    """Whether each offset lies strictly inside its unit cube: one matrix-vector product per pair."""
    coords = np.matmul(inverses, offsets[:, :, None])[:, :, 0]
    return np.all((coords > eps) & (coords < 1.0 - eps), axis=1)


def validate_tiling(z, tiling):
    """Check volume sum, subset census, interior disjointness, and containment.

    The tolerance is ``z.tol``, at which the census (``z.rank_census(n)``)
    and the facets it reads were decided, so the report mixes no two cuts.
    Disjointness and containment are decided by a few GEMMs; a tile or pair
    within rounding of its cut is decided again by the per-pair products a
    loop would use, so every decision is bit-identical to the loop's.
    """
    matrix = z.matrix
    n = z.n

    expected = z.volume()
    columns = _tile_columns(tiling.tiles, n)
    gens = column_subsets(matrix, columns)
    vol_sum = _volume_sum(gens)
    volume_ok = abs(vol_sum - expected) <= 1e-8 * max(expected, 1e-300)

    combos, ranks = z.rank_census(n)
    want = set(map(tuple, combos[ranks == n].tolist()))
    got = [t.columns for t in tiling.tiles]
    duplicates = sorted(c for c, count in Counter(got).items() if count > 1)
    missing = sorted(want - set(got))
    unexpected = sorted(set(got) - want)
    census_ok = not duplicates and not missing and not unexpected

    # A GEMM may round an n-term dot product differently from the
    # matrix-vector product, by at most this multiple of the sum of the
    # terms' magnitudes (plus an underflow allowance); decisions within that
    # of their cut are made again the loop's way. Both tests run over chunks
    # of tiles to bound their temporaries.
    rounding = 8.0 * (n + 2) * np.finfo(float).eps
    underflow = np.finfo(float).tiny

    # Tile j's centre strictly inside tile i breaks interior disjointness.
    # Its cube coordinates are inv_i c_j - inv_i o_i here: one GEMM of every
    # inverse row against every centre, less each tile's inv_i o_i. The loop
    # takes inv_i (c_j - o_i). With |inv_i| the largest row sum of |inv_i|,
    # each is within about (n + 2) eps |inv_i| (|c_j| + |o_i|) of the exact
    # value (n-term dot products plus one subtraction), so they differ by a
    # quarter of the margin, 8 (n + 2) eps |inv_i| (|c_j| + |o_i|), at most.
    eps = z.tol.threshold(1.0)
    tiles = len(tiling.tiles)
    origins = _tile_origins(tiling.tiles, n)
    centers = origins + gens.sum(axis=2) / 2.0
    inverses = np.linalg.inv(gens)
    own = np.matmul(inverses, origins[:, :, None])
    spans = rounding * np.abs(inverses).sum(axis=2).max(axis=1, initial=0.0)
    reaches = np.abs(centers).max(axis=1, initial=0.0), np.abs(origins).max(axis=1, initial=0.0)
    disjoint_violations = []
    for rows in _chunks(tiles, tiles * n):
        coords = (inverses[rows].reshape(-1, n) @ centers.T).reshape(len(rows), n, tiles) - own[rows]
        margin = spans[rows, None] * (reaches[0][None, :] + reaches[1][rows, None]) + underflow
        low, high = coords.min(axis=1) - eps, (1.0 - eps) - coords.max(axis=1)
        inside = (low > margin) & (high > margin)
        near = ~inside & ~((low < -margin) | (high < -margin))
        near[np.arange(len(rows)), rows] = False
        if near.any():
            i, j = np.nonzero(near)
            inside[i, j] = _inside_by_products(inverses[rows[i]], centers[j] - origins[rows[i]], eps)
        inside[np.arange(len(rows)), rows] = False
        i, j = np.nonzero(inside)
        disjoint_violations.extend(zip(rows[i].tolist(), j.tolist()))
    disjoint_ok = not disjoint_violations

    if z.rank == 1:
        # a segment has no facets: test the bounding box, which for n = 1 is
        # the interval [sum min(0, a_j), sum max(0, a_j)] itself
        units = np.concatenate([-np.eye(n), np.eye(n)])
        lo, hi = np.minimum(matrix, 0.0).sum(axis=1), np.maximum(matrix, 0.0).sum(axis=1)
        supports = np.concatenate([-lo, hi])
    else:
        table = z._bounding_facets
        units, supports = table.units, table.supports
    max_h = float(np.abs(supports).max(initial=0.0))
    slack = 16.0 * z.tol.threshold(max_h if max_h else 1.0)
    bounds = supports[:, None] + slack
    # A tile's highest corner along u is u.o + sum of max(0, u.a_c) over its
    # columns c, and every corner's height has terms of at most
    # |u|.(|o| + sum of |a_c|) in size.
    indicator = np.zeros((tiles, z.k))
    np.put_along_axis(indicator, columns, 1.0, axis=1)
    rises = np.maximum(units @ matrix, 0.0).T
    sizes = np.abs(origins) + indicator @ np.abs(matrix).T
    containment_violations = []
    for rows in _chunks(tiles, len(supports)):
        gap = origins[rows] @ units.T + indicator[rows] @ rises - bounds[:, 0]
        margin = rounding * (sizes[rows] @ np.abs(units).T) + underflow
        outside = np.any(gap > margin, axis=1)
        near = ~outside & ~np.all(np.abs(gap) > margin, axis=1)
        if near.any():
            outside[near] = _outside_by_corners(origins[rows[near]], gens[rows[near]], units[:, :, None], bounds)
        containment_violations.extend(rows[outside].tolist())
    containment_ok = not containment_violations

    return TilingReport(
        volume_ok=bool(volume_ok),
        census_ok=bool(census_ok),
        disjoint_ok=bool(disjoint_ok),
        containment_ok=bool(containment_ok),
        volume_sum=vol_sum,
        expected_volume=expected,
        duplicates=duplicates,
        missing=missing,
        unexpected=unexpected,
        disjoint_violations=disjoint_violations,
        containment_violations=containment_violations,
    )
