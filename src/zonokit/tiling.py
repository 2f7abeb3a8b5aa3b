"""Parallelotope tilings of zonotopes by the shelling induction.

Generators are added one at a time; each addition either extends every tile
into the new dimension (rank grows) or glues a shell of new tiles onto the
visible surface (rank stays). The result uses every independent full-size
column subset exactly once. Independence is decided on the generators scaled
to unit length (``units``, normalised once per tiling), as in ``Zonotope``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DimensionError
from .numkit import as_matrix, as_vector, column_subsets, rank, rank_batch, unit_columns
from .zonotope import Zonotope


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


def _segment_cup(matrix, placed, g, tol):
    """One new tile when everything so far lies on a single line."""
    gvec = matrix[:, g]
    ghat = gvec / np.linalg.norm(gvec)
    pos = [i for i in placed if float(matrix[:, i] @ ghat) > 0.0]
    translation = matrix[:, pos].sum(axis=1) if pos else np.zeros(matrix.shape[0])
    return [Tile((g,), translation)]


def _cup(matrix, units, placed, g, tol, notes):
    """Tiles filling the gap when generator g does not raise the prefix rank."""
    prefix = Zonotope(matrix[:, placed], tol)
    r = prefix.rank
    if r == 1:
        return _segment_cup(matrix, placed, g, tol)
    gvec = matrix[:, g]
    facets = prefix.bounding_facets()
    direction = gvec.copy()
    for attempt in range(6):
        cut = tol.threshold(float(np.linalg.norm(direction)))
        visible = []
        ties = False
        for bf in facets:
            dot = float(bf.unit_normal @ direction)
            if dot > cut:
                visible.append(bf)
            elif abs(dot) <= cut:
                face_cols = [placed[i] for i in bf.generating.columns]
                if rank(units[:, face_cols + [g]], tol) == r - 1:
                    continue  # generator lies in the facet span: no tile here
                # independent by rank but numerically tangent: the dot sign
                # still decides a side consistently; a dead-exact zero needs
                # the perturbation fallback
                if dot > 0.0:
                    visible.append(bf)
                elif dot == 0.0:
                    ties = True
                    break
        if not ties:
            break
        delta = 16.0 * tol.abs * (8.0 ** attempt)
        direction = direction + delta * facets[0].unit_normal
        notes.setdefault("perturbations", []).append(
            {"generator": int(g), "delta": delta}
        )
    else:
        raise DegeneracyError("could not resolve visibility ties by perturbation")
    tiles = []
    for bf in visible:
        face_cols = [placed[i] for i in bf.generating.columns]
        inner = _tile_ordered(matrix, units, face_cols, tol, notes)
        for t in inner:
            tiles.append(
                Tile(tuple(sorted(t.columns + (g,))), bf.translation + t.translation)
            )
    return tiles


def _tile_ordered(matrix, units, order, tol, notes):
    """Tiles of the zonotope on ``order``'s columns, built in that order.

    ``units`` is ``matrix`` with unit columns; every rank is decided on it.
    """
    placed = [order[0]]
    tiles = [Tile((order[0],), np.zeros(matrix.shape[0]))]
    cur_rank = 1
    for g in order[1:]:
        new_rank = rank(units[:, placed + [g]], tol)
        if new_rank == cur_rank + 1:
            tiles = [Tile(tuple(sorted(t.columns + (g,))), t.translation) for t in tiles]
        else:
            tiles = tiles + _cup(matrix, units, placed, g, tol, notes)
        placed.append(g)
        cur_rank = new_rank
    return tiles


def tile_zonotope(z, order=None):
    """Tile a full-rank zonotope into translated generating parallelotopes.

    ``order`` is the generator insertion order (default natural). Every
    independent n-subset of columns appears exactly once and the tile volumes
    sum to the zonotope volume.
    """
    if z.rank < z.n:
        raise DegeneracyError(f"tiling needs full rank, got {z.rank} < {z.n}")
    if order is None:
        order = list(range(z.k))
    order = [int(i) for i in order]
    if sorted(order) != list(range(z.k)):
        raise DimensionError("order must be a permutation of the generator indices")
    notes = {"order": list(order)}
    tiles = _tile_ordered(z.matrix, z.directions, order, z.tol, notes)
    tiles.sort(key=lambda t: t.columns)
    return Tiling(tiles, notes)


def cup_of_cubes(z_prefix, new_gen, new_index):
    """Tiles added by one induction step appending ``new_gen`` to the prefix."""
    if z_prefix.rank < z_prefix.n:
        raise DegeneracyError("cup_of_cubes needs a full-rank prefix")
    g = as_vector(new_gen)
    if g.size != z_prefix.n:
        raise DimensionError("new generator dimension mismatch")
    matrix = np.column_stack([z_prefix.matrix, g])
    notes = {}
    local = matrix.shape[1] - 1
    raw = _cup(matrix, unit_columns(matrix), list(range(z_prefix.k)), local, z_prefix.tol, notes)
    tiles = [
        Tile(
            tuple(sorted(new_index if c == local else c for c in t.columns)),
            t.translation,
        )
        for t in raw
    ]
    tiles.sort(key=lambda t: t.columns)
    return CupOfCubes(new_index, tiles)


def _tile_generators(matrix, tiles):
    """(T, n, n) stack of each tile's generator matrix."""
    return column_subsets(matrix, np.reshape([t.columns for t in tiles], (len(tiles), matrix.shape[0])))


def validate_tiling(z, tiling, tol=None):
    """Check volume sum, subset census, interior disjointness, and containment."""
    tol = tol or z.tol
    matrix = z.matrix
    n = z.n

    expected = z.volume()
    vol_sum = tiling.volume_sum(matrix)
    volume_ok = abs(vol_sum - expected) <= 1e-8 * max(expected, 1e-300)

    combos = np.reshape(list(itertools.combinations(range(z.k), n)), (-1, n))
    independent = combos[rank_batch(column_subsets(z.directions, combos), tol) == n]
    want = set(map(tuple, independent.tolist()))
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
    # as a loop would, so every decision is bit-identical to the loop's.
    eps = tol.threshold(1.0)
    gens = _tile_generators(matrix, tiling.tiles)
    origins = np.reshape([t.translation for t in tiling.tiles], (-1, n))
    centers = origins + gens.sum(axis=2) / 2.0
    inverses = np.linalg.inv(gens)
    disjoint_violations = []
    for i, inv in enumerate(inverses):
        coords = np.matmul(inv, (centers - origins[i])[:, :, None])[:, :, 0]
        inside = np.all((coords > eps) & (coords < 1.0 - eps), axis=1)
        inside[i] = False
        disjoint_violations.extend((i, j) for j in np.flatnonzero(inside).tolist())
    disjoint_ok = not disjoint_violations

    facets = z.bounding_facets()
    normals = np.reshape([bf.unit_normal for bf in facets], (-1, n, 1))
    max_h = max((abs(bf.support) for bf in facets), default=0.0)
    slack = 16.0 * tol.threshold(max_h if max_h else 1.0)
    bounds = np.array([bf.support for bf in facets])[:, None] + slack
    corners = np.array(
        [[float(b) for b in np.binary_repr(i, n)] for i in range(2 ** n)]
    )
    containment_violations = [
        idx
        for idx, (gen, origin) in enumerate(zip(gens, origins))
        if np.any(np.matmul(origin + corners @ gen.T, normals)[:, :, 0] > bounds)
    ]
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
