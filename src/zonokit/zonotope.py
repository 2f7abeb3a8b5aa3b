"""Zonotope model: faces, facets, normals, volumes, zones, vertices and the surface.

A zonotope is the column image of a unit cube, Z(A) = {A t : t in [0,1]^k}.
Everything here is derived from the defining matrix; the Zonotope object is
immutable and caches its derived structure on first use.

Faces are keyed by column subsets: a generating face by its closed column
set, a vertex A 1_S by its sign vector S, held as an int64 mask with bit j
for column j (frozensets only in :meth:`Zonotope.vertex_sign_vectors`).
Every rank decision on a column subset is made on the generators scaled to
unit length, so it sees directions only; face closures read one cached rank
census per subset size. Each face level is kept once as arrays
(:meth:`Zonotope._level`): each closed face's first generating subset and
its boolean row of member columns, which the facets, zones, parallel classes
(the closed 1-faces) and vertices all read; ``GeneratingFace`` records are
built only by :meth:`Zonotope.generating_faces`. Each closed
(rank-1)-dimensional generating face gives exactly one opposite pair of
facets. The facet table (:class:`FacetTable`) holds every facet side's
normal (one stacked ``numkit.cross_product``), translation set, translation
and support as stacked arrays; the ``BoundingFacet`` records, which add
translation-set tuples and facet volumes, are built from it only on request,
and ``geometric_facets`` returns them in geometric-facet order;
``signatures_match`` pairs signatures through ``numkit.within``. Vertices are
enumerated over the same closed faces: every vertex is a vertex of a facet
plus that facet's translation set. The closed faces get their vertices a
level at a time: a parallel class has its two ends, a closed 2-face is a
zonogon whose vertex cycle comes from one angular sort of its parallel
classes, and a higher face takes the vertices of its closed faces one rank
down plus one side of the rest, in stacked runs of faces within
``numkit.CHUNK_BYTES``. No sub-zonotope, candidate point or LP is involved.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .errors import CapacityError, DegeneracyError, DimensionError, MeshSurfaceError
from .numkit import DEFAULT_TOL, as_matrix

VERTEX_ENUM_LIMIT = 16


class RankDeficiencyWarning(UserWarning):
    """The requested full-dimensional quantity degraded to the intrinsic rank."""


@dataclass(frozen=True)
class GeneratingFace:
    """Maximal column subset of a given rank (0-based column indices)."""

    columns: tuple
    dim: int


@dataclass(frozen=True, eq=False)
class FacetTable:
    """Every bounding facet side as read-only stacked arrays, one row per side.

    Rows 2i and 2i + 1 are the minus and plus sides of closed face i of
    ``Zonotope._level(rank - 1)``: their outward ``units``, ``sides`` (a
    (2F, k) mask of the translation set), ``masks`` (the same sets as int64
    sign masks), ``translations`` and ``supports``.
    """

    units: np.ndarray
    sides: np.ndarray
    masks: np.ndarray
    translations: np.ndarray
    supports: np.ndarray


@dataclass(eq=False)
class BoundingFacet:
    """One side of a generating facet translated to the boundary.

    ``negative_set``/``positive_set`` partition the non-facet generators by the
    sign of their projection onto the plus side's reference normal; the minus
    side carries the opposite unit normal and translates by the negative set.
    """

    generating: GeneratingFace
    unit_normal: np.ndarray
    negative_set: tuple
    positive_set: tuple
    side: str
    translation: np.ndarray
    volume: float
    support: float

    @property
    def translation_set(self):
        """Generators summed into the translation: this side's sign set."""
        return self.positive_set if self.side == "plus" else self.negative_set


class Zonotope:
    """Zonotope given by its n x k defining matrix plus a tolerance.

    Zero generators are stripped at construction (recorded in
    ``stripped_columns`` with a warning); the cut for that is taken from the
    largest entry of the whole matrix. ``directions`` holds the remaining
    generators scaled to unit length, and every rank decision on a column
    subset (rank, parallel classes, face closures, the column-space basis)
    is made on it, so positive column scaling changes none of them. All
    queries are pure and cached.
    """

    def __init__(self, matrix, tol=DEFAULT_TOL):
        a = as_matrix(matrix)
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError("a zonotope needs ambient dimension and generators")
        # before the strip, so an overflow names its input column; column-major, so squares add down columns
        directions = numkit.unit_columns(np.asfortranarray(a))
        heights = np.abs(a).max(axis=0)
        keep = heights > tol.threshold(heights.max())
        self.stripped_columns = tuple(np.flatnonzero(~keep).tolist())
        if self.stripped_columns:
            warnings.warn(
                f"stripped zero generators at columns {self.stripped_columns}",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        if not keep.any():
            raise DegeneracyError("all generators are zero")
        kept = np.flatnonzero(keep)
        self.matrix, self.directions = a[:, kept], directions[:, kept]
        self.matrix.setflags(write=False)
        self.directions.setflags(write=False)
        self.tol = tol
        self._subsets, self._censuses, self._measures, self._levels, self._faces = {}, {}, {}, {}, {}

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1]

    @cached_property
    def rank(self):
        return numkit.rank(self.directions, self.tol)

    @cached_property
    def parallel_classes(self):
        """Groups of mutually parallel generators (each a tuple of indices): the closed 1-faces."""
        return _tuples(self._level(1)[1])

    def center(self):
        """Center of symmetry, half the generator sum."""
        return self.matrix.sum(axis=1) / 2.0

    # -- faces ----------------------------------------------------------

    def subsets(self, s):
        """Read-only ``numkit.subsets(k, s)``: the s-subsets of the columns in lexicographic order.

        Each size is built once and cached; ``rank_census``,
        ``subset_measures`` and the volume command's census all read it.
        """
        if s not in self._subsets:
            table = numkit.subsets(self.k, s)
            table.setflags(write=False)
            self._subsets[s] = table
        return self._subsets[s]

    def rank_census(self, s):
        """(subsets, ranks): every s-subset of the columns and its rank on ``directions``.

        The subsets are ``subsets(s)``, so ``numkit.subset_index`` finds a
        subset's rank. Each size is ranked once and cached; faces, facets and
        tilings all read it. A face closure at level t reads sizes t and
        t + 1, so the levels from s up read every size from s to the rank,
        and the facet closures, which the tiling's validation reads too, read
        rank - 1 and rank. The first request ranks s with every size from
        the lower of s and rank - 1 to the rank not yet ranked, in one
        ``numkit.subset_ranks`` call.
        """
        if s not in self._censuses:
            sizes = sorted({s, *range(max(min(s, self.rank - 1), 1), self.rank + 1)} - self._censuses.keys())
            tables = [self.subsets(t) for t in sizes]
            ranks = numkit.subset_ranks(self.directions, tables, self.tol)
            self._censuses.update(zip(sizes, zip(tables, ranks)))
        return self._censuses[s]

    def subset_measures(self, s):
        """Read-only ``numkit.subset_measures`` of every subset in ``subsets(s)``.

        Each size is computed once and cached; volumes, the volume command's
        census and the tiling's signs all read it. ValueError names a subset
        whose measure overflows float64.
        """
        if s not in self._measures:
            with np.errstate(over="ignore", invalid="ignore"):
                table = numkit.subset_measures(self.matrix, self.subsets(s))
            if not np.isfinite(table).all():
                columns = tuple(self.subsets(s)[np.argmin(np.isfinite(table))].tolist())
                raise ValueError(f"the {s}-volume of columns {columns} overflows float64")
            table.setflags(write=False)
            self._measures[s] = table
        return self._measures[s]

    def generating_faces(self, s):
        """All maximal column subsets of rank s, as GeneratingFace records in column-tuple order.

        s = 0 returns the generators themselves, one face per column. Built
        from :meth:`_level` once, so each record keeps its identity.
        """
        if s not in self._faces:
            self._faces[s] = [GeneratingFace(c, s) for c in _tuples(self._level(s)[1])]
        return self._faces[s]

    def _level(self, s):
        """(bases, members): the closed s-faces as read-only arrays, in column-tuple order.

        Row i of ``members`` marks closed face i's columns, and of ``bases`` its
        first generating s-subset (a facet takes its normal from it). The rows
        are the closures of the rank-s s-subsets (the identity at s = 0), kept
        once by a stable lexsort on exact keys: a row's columns ascending,
        padded with -1, which sort as the column tuples, a prefix first.
        """
        if not 0 <= s <= self.rank:
            raise DegeneracyError(f"face dimension {s} outside 0..{self.rank}")
        if s not in self._levels:
            k = self.k
            rows, combos = (np.eye(k, dtype=bool), np.arange(k)[:, None]) if s == 0 else self._closures(s)
            keys = np.sort(np.where(rows, np.arange(k), k), axis=1)
            keys[keys == k] = -1
            order = np.lexsort(keys.T[::-1])
            keys = keys[order]
            # the first row of each run of equal keys, which is the run's first subset
            new = np.ones(len(order), dtype=bool)
            new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
            at = order[new]
            bases, members = combos[at], rows[at]
            bases.setflags(write=False)
            members.setflags(write=False)
            self._levels[s] = bases, members
        return self._levels[s]

    def _closures(self, s):
        """(members, subsets) of every rank-s s-subset, in lexicographic order.

        Row i of the (N, k) boolean ``members`` marks the closed column set
        of ``subsets[i]``: its own columns and each j that leaves its rank s
        when added. For each (s+1)-subset T that the (s+1)-census ranks s, each
        member j of T marks column j in the row of T - j, found by its
        lexicographic index. Runs of dependent subsets (``numkit.chunks``)
        bound the index temporaries.
        """
        combos, ranks = self.rank_census(s)
        above, above_ranks = self.rank_census(s + 1)
        members = np.zeros((len(combos), self.k), dtype=bool)
        members[np.arange(len(combos))[:, None], combos] = True
        # places, not rows: at the top level every (s+1)-subset is dependent
        dependent = np.flatnonzero(above_ranks == s)
        for rows in numkit.chunks(len(dependent), 8 * (s + 1) * s):
            chunk = above[dependent[rows]]
            members[numkit.subset_index(chunk[:, numkit.omit_each(s + 1)], self.k), chunk] = True
        return members[ranks == s], combos[ranks == s]

    def zone(self, i):
        """Generating facets whose column set contains generator i."""
        if not 0 <= i < self.k:
            raise IndexError(f"generator index {i} outside 0..{self.k - 1}")
        faces = self.generating_faces(self.rank - 1)
        return list(itertools.compress(faces, self._level(self.rank - 1)[1][:, i].tolist()))

    # -- volumes ---------------------------------------------------------

    def volume(self):
        """Sum of |det| over all full-size column subsets.

        For rank-deficient matrices this degrades to the intrinsic
        rank-volume and warns; see :meth:`m_volume`.
        """
        if self.rank < self.n:
            warnings.warn(
                f"rank {self.rank} < ambient dimension {self.n}; returning the {self.rank}-volume",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        return self.m_volume(self.rank)

    def m_volume(self, m):
        """Intrinsic m-volume: sum over m-subsets of sqrt(det Gram), added left to right in subset order."""
        if m != self.rank:
            raise DimensionError(f"m_volume needs m = rank = {self.rank}, got {m}")
        table = self.subset_measures(m)
        # cumsum adds left to right; sum may add pairwise from 8 terms
        return float(np.abs(table).cumsum()[-1]) if table.size else 0.0

    def facet_volume(self, face):
        """(rank-1)-volume of the sub-zonotope on a generating facet."""
        if face.dim != self.rank - 1:
            raise DimensionError(f"facet_volume needs a face of dim {self.rank - 1}")
        return float(_face_volumes(self.matrix, [face.columns], face.dim)[0])

    # -- facets ----------------------------------------------------------

    @cached_property
    def _column_space_basis(self):
        """Orthonormal basis of the column space (identity-free when full rank).

        It spans the first rank-r subset of the r-census, r = rank: the rule
        by which every face takes its generating subset.
        """
        if self.rank == self.n:
            return None
        combos, ranks = self.rank_census(self.rank)
        picked = combos[np.argmax(ranks == self.rank)]
        q, _ = numkit.qr_decompose(self.directions[:, picked], self.tol)
        return q

    @cached_property
    def _bounding_facets(self):
        """The facet table (:class:`FacetTable`); ValueError names a facet whose normal length overflows float64."""
        if self.rank < 2:
            raise DegeneracyError("bounding facets need rank >= 2")
        basis = self._column_space_basis
        coords = self.matrix if basis is None else basis.T @ self.matrix
        bases, members = self._level(self.rank - 1)
        # One row per face. A matmul on (.., m, 1) or (.., 1, m) stacks makes
        # one BLAS matrix-vector or dot call per row, as a loop over the faces
        # would, so every value is bit-identical to the one-face computation.
        with np.errstate(over="ignore", invalid="ignore"):
            normals = numkit.cross_product(numkit.column_subsets(coords, bases))
            if basis is not None:
                normals = np.matmul(basis, normals[:, :, None])[:, :, 0]
            lengths = np.sqrt(_rowdot(normals, normals))
        if not np.isfinite(lengths).all():
            columns = _tuples(members[[np.argmin(np.isfinite(lengths))]])[0]
            raise ValueError(f"the normal length of the facet on columns {columns} overflows float64")
        references = numkit.sign_normalize(normals / lengths[:, None], self.tol)
        proj = np.matmul(self.matrix.T, references[:, :, None])[:, :, 0]
        outside = ~members
        # minus then plus side of each face
        sides = np.stack([outside & (proj < 0.0), outside & (proj >= 0.0)], axis=1).reshape(-1, self.k)
        units = np.stack([-references, references], axis=1).reshape(-1, self.n)
        translations = numkit.column_sums(self.matrix, np.arange(self.k), sides)
        supports = _rowdot(units, translations)
        masks = _masks(sides)
        for array in (units, sides, masks, translations, supports):
            array.setflags(write=False)
        return FacetTable(units, sides, masks, translations, supports)

    @cached_property
    def _facet_records(self):
        """The facet table as BoundingFacet records, with translation sets and facet volumes."""
        table = self._bounding_facets
        faces = self.generating_faces(self.rank - 1)
        tsets = _tuples(table.sides)
        supports = table.supports.tolist()
        volumes = _face_volumes(self.matrix, [face.columns for face in faces], self.rank - 1).tolist()
        # row j is the minus (j even) or plus side of face j // 2, whose minus row is j - j % 2
        return [
            BoundingFacet(
                generating=faces[j // 2],
                unit_normal=table.units[j],
                negative_set=tsets[j - j % 2],
                positive_set=tsets[j - j % 2 + 1],
                side=("minus", "plus")[j % 2],
                translation=table.translations[j],
                volume=volumes[j // 2],
                support=supports[j],
            )
            for j in range(len(tsets))
        ]

    def bounding_facets(self):
        return list(self._facet_records)

    @cached_property
    def _geometric_facets(self):
        """Facet-table rows in geometric-facet order, a read-only index array."""
        table = self._bounding_facets
        # lexsort's last key is the primary one: normal coordinates in order,
        # then the support; it is stable, so ties keep facet-table order.
        # Python's round, not np.round, which can differ in the last place.
        supports = [round(s, 9) for s in table.supports.tolist()]
        order = np.lexsort([supports, *np.round(table.units, 9).T[::-1]])
        order.setflags(write=False)
        return order

    def geometric_facets(self):
        """The bounding facet records in ``_geometric_facets`` order: each one is one actual facet."""
        records = self._facet_records
        return [records[i] for i in self._geometric_facets.tolist()]

    def facet_signature(self):
        """Canonical multiset of (sign-normalized unit normal, facet volume).

        One entry per opposite facet pair, that is per "plus" bounding facet,
        whose normal is already sign-normalized; ordered lexicographically.
        """
        entries = [(tuple(bf.unit_normal), bf.volume) for bf in self._facet_records if bf.side == "plus"]
        entries.sort(key=lambda e: (tuple(round(x, 9) for x in e[0]), round(e[1], 9)))
        return tuple(entries)

    # -- vertices ---------------------------------------------------------

    @cached_property
    def _vertex_levels(self):
        """Vertex sign masks of the closed s-faces up to s = rank - 1, ``{s: (signs, starts, sizes)}``.

        Face i's masks are the ``sizes[i]`` entries of ``signs`` from
        ``starts[i]``, in face-row order, the layout of ``_cycles``. The
        levels start from the lowest one the top reads: at rank 2 level 1,
        the two halves of each parallel class (:meth:`_halves`), and above
        it level 2, the closed 2-faces' cycles from ``_cycles``. Above that,
        the facets of a face F are the closed (s-1)-faces G properly inside
        it, and every vertex of F is a vertex of some G plus one side of F
        minus G: the columns whose residual off G's span points the way of
        the first column's residual, or the others. One stacked QR gives the
        residuals off every G's generating subset; the rest of the level is
        :func:`_level_vertices` over runs of faces (``numkit.chunks``) whose
        rows are a mask-test row plus each pair's residuals and masks.
        """
        d = self.directions
        levels = {}
        if self.rank == 2:
            halves = np.stack(self._halves(self._level(1)[1]), axis=1)
            levels[1] = halves.ravel(), np.arange(0, halves.size, 2), np.full(len(halves), 2)
        elif self.rank > 2:
            levels[2] = self._cycles[:3]
        for s in range(3, self.rank):
            bases, members = self._level(s - 1)
            q, _ = np.linalg.qr(numkit.column_subsets(d, bases))
            residuals = d - q @ (np.swapaxes(q, 1, 2) @ d)
            masks, faces = _masks(members), self._level(s)[1]
            # a closed s-face's closed (s-1)-faces close distinct (s-1)-subsets of its columns
            pairs = min(len(masks), math.comb(int(faces.sum(axis=1).max()), s - 1))
            runs = numkit.chunks(len(faces), 8 * (len(masks) + pairs * (d.size + levels[s - 1][2].max())))
            whole = _masks(faces)
            signs, sizes = zip(*(_level_vertices(whole[run], masks, residuals, *levels[s - 1]) for run in runs))
            sizes = np.concatenate(sizes)
            levels[s] = np.concatenate(signs), np.cumsum(sizes) - sizes, sizes
        return levels

    def _halves(self, lines):
        """Sign masks of each boolean row's two halves: its columns along its first column, and the rest."""
        d = self.directions
        firsts = _masks(lines & (d[:, lines.argmax(axis=1)].T @ d > 0.0))
        return firsts, _masks(lines) ^ firsts

    @cached_property
    def _cycles(self):
        """Vertex cycle of every closed 2-face, stacked in face-row order: ``(rings, starts, sizes, frames)``.

        Face i's cycle is the ``sizes[i]`` sign masks of ``rings`` from
        ``starts[i]``, and ``frames[i]`` holds the rows e1, e2 spanning its
        plane: e1 is the first column of the face's generating pair, e2 the
        second made orthogonal to it. Each closed 1-face properly inside the
        face has its two halves (:meth:`_halves`, the rule of vertex level
        1), and the angle of its first column in the frame is folded into
        [0, pi), swapping the halves when it folds. From the union of the
        second halves, the walk trades each class's second half for its
        first in angle order; the complements of those m masks, in the same
        order, close the cycle. Consecutive masks differ in one parallel
        class, and the 2m of them run counter-clockwise from e1 towards e2.
        All faces walk together, one array step per class of the largest
        face.
        """
        d = self.directions
        # level 1 first: its census request ranks every size up to the rank at once
        _, lines = self._level(1)
        pairs, planes = self._level(2)
        e1 = d[:, pairs[:, 0]].T
        e2 = d[:, pairs[:, 1]].T
        e2 = e2 - e1 * np.sum(e1 * e2, axis=1)[:, None]
        e2 /= np.linalg.norm(e2, axis=1)[:, None]
        heads = lines.argmax(axis=1)
        firsts, seconds = self._halves(lines)
        classes, flats = firsts | seconds, _masks(planes)
        angles = np.arctan2(e2 @ d, e1 @ d)[:, heads]
        flipped = angles < 0.0
        angles[flipped] += np.pi
        # each face's classes in angle order, ties in class order, the classes outside it last
        inner = (classes & ~flats[:, None] == 0) & (classes != flats[:, None])
        order = np.argsort(np.where(inner, angles, np.inf), axis=1, kind="stable")
        first = np.take_along_axis(firsts ^ np.where(flipped, classes, 0), order, axis=1)
        second = first ^ classes[order]
        counts = inner.sum(axis=1)
        # a face's walk past its own m classes is never read
        m = counts.max()
        taken = np.arange(m) < counts[:, None]
        # step t ORs the first halves before t and the second halves from t on: classes share no column
        walk = np.bitwise_or.accumulate(np.where(taken, second[:, :m], 0)[:, ::-1], axis=1)[:, ::-1]
        walk[:, 1:] |= np.bitwise_or.accumulate(first[:, :m - 1], axis=1)
        sizes = 2 * counts
        # each face's m walk steps, then their complements in the same order
        rings = np.concatenate([walk, flats[:, None] ^ walk], axis=1)[np.concatenate([taken, taken], axis=1)]
        return rings, np.cumsum(sizes) - sizes, sizes, np.stack([e1, e2], axis=1)

    @cached_property
    def _vertices(self):
        """One read-only record per vertex, sorted by point: its ``point`` and sign ``mask``.

        Equal points, possible only near the rank cut, come in mask order.
        """
        if self.k > VERTEX_ENUM_LIMIT:
            raise CapacityError(f"vertex enumeration capped at k = {VERTEX_ENUM_LIMIT}")
        if self.rank == 1:
            masks = np.unique(self._halves(np.ones((1, self.k), dtype=bool)))
        else:
            below, _, sizes = self._vertex_levels[self.rank - 1]
            # each closed (rank-1)-face's vertices joined with the translation sets of its minus and plus sides
            sides = np.repeat(self._bounding_facets.masks.reshape(-1, 2), sizes, axis=0)
            masks = np.unique(sides | below[:, None])
        points = _columns_of(masks, self.k).astype(float) @ self.matrix.T
        order = np.lexsort(points.T[::-1])
        records = np.empty(len(masks), dtype=[("point", float, (self.n,)), ("mask", np.int64)])
        records["point"], records["mask"] = points[order], masks[order]
        records.setflags(write=False)
        return records

    def vertices(self):
        """Extreme points, sorted lexicographically.

        Each vertex is A 1_S for exactly one column subset S (its sign
        vector); the subsets come from the closed generating faces, so no
        candidate outside the vertex set is ever formed.
        """
        return [p.copy() for p in self._vertices["point"]]

    def vertex_sign_vectors(self):
        """Sign vectors of :meth:`vertices`, in the same order (frozensets)."""
        return list(map(frozenset, _tuples(_columns_of(self._vertices["mask"], self.k))))

    def surface(self):
        """(points, polygons, sizes): the facet polygons of a rank-3 zonotope in R^3.

        ``points`` are the :meth:`vertices`, read-only. Polygon f, of geometric
        facet f, is the ``sizes[f]`` vertex indices of ``polygons`` from
        ``sizes[:f].sum()``, counter-clockwise about the outward normal: its
        closed 2-face's cycle (``_cycles``) joined with the facet's translation
        set, reversed where the frame normal e1 x e2 points inwards, all
        polygons in one pass. It starts at the smallest angle atan2(. b2, . b1)
        about its centroid, ties to the smallest vertex index; b1 is the
        coordinate axis least aligned with the normal u made orthogonal to u,
        and b2 = u x b1. DimensionError unless rank 3 in R^3;
        :class:`MeshSurfaceError` unless every edge lies in two polygons, once
        each way, and V - E + F = 2.
        """
        if self.rank != 3 or self.n != 3:
            raise DimensionError(f"a surface needs rank 3 in R^3, got rank {self.rank} in R^{self.n}")
        verts, masks = self._vertices["point"], self._vertices["mask"]
        table = self._bounding_facets
        order = self._geometric_facets
        rings, ring_starts, ring_sizes, frames = self._cycles
        face = order // 2
        units = table.units[order]
        reverse = np.sum(_cross(frames[face, 0], frames[face, 1]) * units, axis=1) < 0.0
        sizes = ring_sizes[face]
        starts = np.cumsum(sizes) - sizes
        # slot j of polygon f: its face's ring read forwards, or backwards when reversed
        polygon = np.repeat(np.arange(len(order)), sizes)
        at = np.arange(len(polygon)) - starts[polygon]
        pick = np.where(reverse[polygon], sizes[polygon] - 1 - at, at)
        signs = rings[ring_starts[face][polygon] + pick] | table.masks[order][polygon]
        by_mask = np.argsort(masks)
        polygons = by_mask[np.searchsorted(masks, signs, sorter=by_mask)]
        # each polygon vertex's successor, the last one's being the polygon's first
        following = polygons[starts[polygon] + (at + 1) % sizes[polygon]]
        _check_sphere(len(verts), len(sizes), polygons, following)
        seed_axis = np.argmin(np.abs(units), axis=1)
        b1 = np.zeros_like(units)
        b1[np.arange(len(units)), seed_axis] = 1.0
        b1 = b1 - units * _rowdot(units, b1)[:, None]
        b1 = b1 / np.sqrt(_rowdot(b1, b1))[:, None]
        b2 = _cross(units, b1)
        # each centroid adds its polygon's vertices one after another in ascending
        # index order from +0.0, as mean does; 0.0 turns a -0.0 sum into +0.0
        ascending = np.sort(polygon * len(verts) + polygons) % len(verts)
        centroids = (np.add.reduceat(verts[ascending], starts) + 0.0) / sizes[:, None]
        offsets = verts[polygons] - centroids[polygon]
        ys, xs = _rowdot(offsets, b2[polygon]).tolist(), _rowdot(offsets, b1[polygon]).tolist()
        keys = np.array(list(map(math.atan2, ys, xs)))
        # each polygon starts at the first slot holding the smallest key's smallest vertex index
        lowest = keys == np.minimum.reduceat(keys, starts)[polygon]
        slots = len(polygons)
        codes = np.where(lowest, polygons * slots + np.arange(slots), len(verts) * slots)
        begin = np.minimum.reduceat(codes, starts) % slots - starts
        return verts, polygons[starts[polygon] + (at + begin[polygon]) % sizes[polygon]], sizes


def _tuples(rows):
    """The marked columns of each row of a (R, k) boolean array, as a list of tuples."""
    return [tuple(itertools.compress(range(rows.shape[1]), row)) for row in rows.tolist()]


def _masks(rows):
    """Int64 sign mask of each row of a (R, k) boolean array."""
    return rows @ (np.int64(1) << np.arange(rows.shape[1], dtype=np.int64))


def _columns_of(masks, k):
    """(R, k) boolean array whose row i marks the columns of ``masks[i]``."""
    return (masks[:, None] >> np.arange(k)) & 1 == 1


def _rowdot(a, b):
    """Row-wise dot products of two (m, n) arrays, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _cross(a, b):
    """Row-wise cross products of two (m, 3) arrays: the products and differences ``np.cross`` takes."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _level_vertices(whole, masks, residuals, below, starts, sizes):
    """(signs, sizes) of the closed faces ``whole`` from the closed faces ``masks`` one rank down.

    ``residuals`` are the generators off each lower face's span and ``(below,
    starts, sizes)`` its level. A face's masks depend only on its own pairs.
    """
    # every closed (s-1)-face G properly inside each closed s-face F, F by F
    face, rows = np.nonzero((masks & ~whole[:, None] == 0) & (masks != whole[:, None]))
    rest = _columns_of(whole[face] ^ masks[rows], residuals.shape[2])
    off = residuals[rows]
    lead = off[np.arange(len(rows)), :, rest.argmax(axis=1)]
    sides = _masks(rest & (np.matmul(lead[:, None, :], off)[:, 0] > 0.0))
    # slot j of pair p: mask j of its G joined with its side
    counts = sizes[rows]
    pair = np.repeat(np.arange(len(rows)), counts)
    at = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    half = sides[pair] | below[starts[rows][pair] + at]
    owner = face[pair]
    # every face is centrally symmetric: the complement of a vertex is the opposite vertex
    signs = np.concatenate([half, whole[owner] ^ half])
    owner = np.concatenate([owner, owner])
    order = np.lexsort([signs, owner])
    signs, owner = signs[order], owner[order]
    new = np.ones(len(signs), dtype=bool)
    new[1:] = (signs[1:] != signs[:-1]) | (owner[1:] != owner[:-1])
    return signs[new], np.bincount(owner[new], minlength=len(whole))


def _check_sphere(vertices, faces, tails, heads):
    """Raise MeshSurfaceError unless the directed edges tails -> heads of the polygons close into a sphere."""
    directed = len(np.unique(tails * vertices + heads))
    undirected = len(np.unique(np.minimum(tails, heads) * vertices + np.maximum(tails, heads)))
    euler = vertices - undirected + faces
    # distinct directed edges, two per undirected edge: each edge once each way
    paired = directed == len(tails) == 2 * undirected
    if not paired or euler != 2:
        unpaired = "" if paired else ", and not every edge lies in two polygons once each way"
        raise MeshSurfaceError(f"the facet polygons are not a sphere: V - E + F = {euler}{unpaired}")


def _face_volumes(matrix, faces, d):
    """d-volume of the sub-zonotope on each column tuple in ``faces``, as an array.

    A face's volume is the sum of sqrt(det Gram) over the d-subsets of its
    columns, added one at a time in lexicographic subset order, as
    :meth:`Zonotope.volume` adds them; faces with equally many columns share
    one stacked :func:`numkit.subset_measures` call.
    """
    volumes = np.empty(len(faces))
    sizes = np.array([len(f) for f in faces])
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        local = np.array(list(itertools.combinations(range(size), d)), dtype=int, ndmin=2)
        subsets = np.array([faces[i] for i in rows])[:, local]
        values = numkit.subset_measures(matrix, subsets.reshape(len(rows) * len(local), d))
        # cumsum adds left to right; sum may add pairwise from 8 terms
        volumes[rows] = np.abs(values).reshape(len(rows), len(local)).cumsum(axis=1)[:, -1]
    return volumes


def signatures_match(sig1, sig2, tol=DEFAULT_TOL):
    """Whether two facet signatures agree entrywise within tolerance.

    In order, each entry of ``sig1`` takes the first unused entry of ``sig2`` whose normal is
    within ``tol.threshold(1.0)`` in every coordinate and whose volume is ``tol.close`` to its own.
    """
    if len(sig1) != len(sig2):
        return False
    if not sig1:
        return True
    (normals1, volumes1), (normals2, volumes2) = (map(np.array, zip(*sig)) for sig in (sig1, sig2))
    bound = tol.abs + tol.rel * np.maximum(np.abs(volumes1)[:, None], np.abs(volumes2))
    candidates = numkit.within(normals1, normals2, tol.threshold(1.0)) & (np.abs(volumes1[:, None] - volumes2) <= bound)
    used = np.zeros(len(sig2), dtype=bool)
    for row in candidates:
        free = row & ~used
        if not free.any():
            return False
        used[free.argmax()] = True
    return True
