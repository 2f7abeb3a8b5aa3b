"""Parallelotope tilings of zonotopes, as built by the shelling induction.

The shelling adds generators one at a time; each addition either extends
every tile into the new dimension (rank grows) or glues a cup of new tiles
onto the visible surface (rank stays). Its result is the regular tiling got
by lifting each generator to a height that grows steeply with its place in
the insertion order, so it is computed here in closed form: one rank census
of the n-subsets and the signs of their n x n minors give every tile and its
translation. Each independent full-size column subset is used exactly once.
Independence is decided on the generators scaled to unit length
(``units``), as in ``Zonotope``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DimensionError
from .numkit import as_matrix, as_vector, column_subsets, rank_batch, unit_columns

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
        dets = np.linalg.det(_tile_generators(as_matrix(matrix), self.tiles))
        return float(sum(np.abs(dets).tolist()))

    def census(self):
        return sorted(t.columns for t in self.tiles)

    def to_dict(self, matrix):
        matrix = as_matrix(matrix)
        return {
            "format_version": 1,
            "matrix": {
                "rows": matrix.shape[0],
                "cols": matrix.shape[1],
                "data": [float(x) for x in matrix.ravel()],
            },
            "order": [int(i) for i in self.source.get("order", [])],
            "tiles": [
                {
                    "columns": [int(c) for c in t.columns],
                    "translation": [float(x) for x in t.translation],
                }
                for t in self.tiles
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


def visible_surface(z, direction, tol=None):
    """Bounding facets whose outward normal points strictly along ``direction``."""
    tol = tol or z.tol
    d = as_vector(direction)
    if d.size != z.n:
        raise DimensionError("direction dimension does not match the zonotope")
    if np.linalg.norm(d) <= tol.threshold(0.0) or not np.any(d):
        raise DimensionError("direction must be nonzero")
    cut = tol.threshold(float(np.linalg.norm(d)))
    return [bf for bf in z.bounding_facets() if float(bf.unit_normal @ d) > cut]


def _independent_subsets(units, n, tol):
    """Lexicographic (T, n) array of the n-subsets of independent unit columns.

    This is the census of every tiling: each row is the column set of
    exactly one tile.
    """
    combos = np.reshape(list(itertools.combinations(range(units.shape[1]), n)), (-1, n))
    return combos[rank_batch(column_subsets(units, combos), tol) == n]


def _lifted_tiles(matrix, units, order, tol):
    """Tiles of the tiling the shelling builds when adding columns in ``order``.

    That tiling is the regular one got by lifting column g to height
    t**pos(g), pos its place in ``order``, as t grows without bound. Tile B is
    translated by the columns j whose lifted minor det[B | j] has the sign
    opposite to det A_B. Expanding that minor along the height row, only the
    term of the highest-placed column c of B + j whose removal leaves an
    independent subset counts, so every sign is that of an n x n minor of A.
    Independence is decided on ``units``; translations sum ``matrix`` columns
    by place in ``order``.
    """
    n = matrix.shape[0]
    census = _independent_subsets(units, n, tol)
    dets = np.linalg.det(column_subsets(matrix, census))
    sign = dict(zip(map(tuple, census.tolist()), np.sign(dets).tolist()))
    place = {g: i for i, g in enumerate(order)}
    tiles = []
    for b, sign_b in sign.items():
        side = []
        for j in order:
            if j in b:
                continue
            members = b + (j,)
            for c in sorted(members, key=place.__getitem__, reverse=True):
                rest = tuple(sorted(x for x in members if x != c))
                if rest in sign:
                    break
            # [B, j] without c, sorted: j passes the remaining columns above it
            flips = 0 if c == j else sum(x > j for x in b if x != c)
            p = members.index(c) + 1
            if (-1) ** (n + 1 + p + flips) * sign[rest] == -sign_b:
                side.append(j)
        tiles.append(Tile(b, matrix[:, side].sum(axis=1)))
    return tiles


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
    return Tiling(_lifted_tiles(z.matrix, z.directions, order, z.tol), {"order": order})


def cup_of_cubes(z_prefix, new_gen, new_index):
    """Tiles added by one induction step appending ``new_gen`` to the prefix."""
    if z_prefix.rank < z_prefix.n:
        raise DegeneracyError("cup_of_cubes needs a full-rank prefix")
    g = as_vector(new_gen)
    if g.size != z_prefix.n:
        raise DimensionError("new generator dimension mismatch")
    matrix = np.column_stack([z_prefix.matrix, g])
    local = matrix.shape[1] - 1
    lifted = _lifted_tiles(matrix, unit_columns(matrix), list(range(local + 1)), z_prefix.tol)
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
    return column_subsets(matrix, np.reshape([t.columns for t in tiles], (len(tiles), matrix.shape[0])))


def _chunks(count, row_floats):
    """Index runs covering ``range(count)``, each of about CHUNK_BYTES of row floats."""
    step = max(1, CHUNK_BYTES // (8 * max(row_floats, 1)))
    return [np.arange(start, min(start + step, count)) for start in range(0, count, step)]


def validate_tiling(z, tiling, tol=None):
    """Check volume sum, subset census, interior disjointness, and containment."""
    tol = tol or z.tol
    matrix = z.matrix
    n = z.n

    expected = z.volume()
    vol_sum = tiling.volume_sum(matrix)
    volume_ok = abs(vol_sum - expected) <= 1e-8 * max(expected, 1e-300)

    want = set(map(tuple, _independent_subsets(z.directions, n, tol).tolist()))
    got = [t.columns for t in tiling.tiles]
    seen = set()
    duplicates = []
    for c in got:
        if c in seen:
            duplicates.append(c)
        seen.add(c)
    duplicates = sorted(set(duplicates))
    missing = sorted(want - set(got))
    unexpected = sorted(set(got) - want)
    census_ok = not duplicates and not missing and not unexpected

    # Tile j's centre strictly inside tile i (in tile i's cube coordinates)
    # breaks interior disjointness. Here and in the containment test, matmul
    # against an (.., n, 1) stack runs one matrix-vector product per vector,
    # as a loop would, so every decision is bit-identical to the loop's. Both
    # tests run over chunks of tiles to bound their temporaries.
    eps = tol.threshold(1.0)
    tiles = len(tiling.tiles)
    gens = _tile_generators(matrix, tiling.tiles)
    origins = np.reshape([t.translation for t in tiling.tiles], (-1, n))
    centers = origins + gens.sum(axis=2) / 2.0
    inverses = np.linalg.inv(gens)
    disjoint_violations = []
    for rows in _chunks(tiles, tiles * n):
        offsets = centers[None, :, :] - origins[rows, None, :]
        coords = np.matmul(inverses[rows, None], offsets[:, :, :, None])[:, :, :, 0]
        inside = np.all((coords > eps) & (coords < 1.0 - eps), axis=2)
        inside[np.arange(len(rows)), rows] = False
        i, j = np.nonzero(inside)
        disjoint_violations.extend(zip(rows[i].tolist(), j.tolist()))
    disjoint_ok = not disjoint_violations

    facets = z.bounding_facets()
    normals = np.reshape([bf.unit_normal for bf in facets], (-1, n, 1))
    supports = np.array([bf.support for bf in facets])
    max_h = float(np.abs(supports).max(initial=0.0))
    slack = 16.0 * tol.threshold(max_h if max_h else 1.0)
    bounds = supports[:, None] + slack
    corners = np.array(
        [[float(b) for b in np.binary_repr(i, n)] for i in range(2 ** n)]
    )
    points = origins[:, None, :] + np.matmul(corners, np.swapaxes(gens, 1, 2))
    containment_violations = []
    for rows in _chunks(tiles, len(facets) * 2 ** n):
        heights = np.matmul(points[rows, None], normals)[:, :, :, 0]
        outside = np.any(heights > bounds, axis=(1, 2))
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
