"""Zonotope model: faces, facets, normals, volumes, zones, and vertices.

A zonotope is the column image of a unit cube, Z(A) = {A t : t in [0,1]^k}.
Everything here is derived from the defining matrix; the Zonotope object is
immutable and caches its derived structure on first use.

Faces are keyed by column subsets: a generating face by its closed column
set, a vertex A 1_S by its sign vector S, held as an int64 mask with bit j
for column j (frozensets only in :meth:`Zonotope.vertex_sign_vectors`).
Every rank decision on a column subset is made on the generators scaled to
unit length, so it sees directions only; face closures read one cached rank
census per subset size. Each face level is kept once, with its closure
table: one boolean row of member columns per closed face, which the facets,
zones, parallel classes (the closed 1-faces) and vertices all read. Each
closed (rank-1)-dimensional generating face gives exactly one opposite pair
of facets. The facet table (:class:`FacetTable`) holds every facet side's
normal, translation set, translation and support as stacked arrays; the
``BoundingFacet`` records, which add translation-set tuples and facet
volumes, are built from it only on request, and ``geometric_facets`` returns
the same records in geometric-facet order. Vertices are
enumerated over the same closed faces: every vertex is a vertex of a facet
plus that facet's translation set. A closed 2-face is a zonogon whose
vertex cycle comes from one angular sort of its parallel classes, a closed
face of higher rank takes the vertices of its closed faces one rank down
plus one side of the rest, read from one stacked residual table per face
level, and a parallel class has its two ends; no sub-zonotope, candidate
point or linear program is involved.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .errors import CapacityError, DegeneracyError, DimensionError
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

    Rows 2i and 2i + 1 are the minus and plus sides of closed face
    ``faces[i]``: their outward ``units``, ``sides`` (a (2F, k) mask of the
    translation set), ``masks`` (the same sets as int64 sign masks),
    ``translations`` and ``supports``.
    """

    faces: tuple
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
        a = a[:, np.flatnonzero(keep)]
        a.setflags(write=False)
        self.matrix = a
        self.directions = numkit.unit_columns(a)
        self.directions.setflags(write=False)
        self.tol = tol

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
        return [face.columns for face in self.generating_faces(1)]

    def center(self):
        """Center of symmetry, half the generator sum."""
        return self.matrix.sum(axis=1) / 2.0

    # -- faces ----------------------------------------------------------

    @cached_property
    def _face_cache(self):
        return {}

    @cached_property
    def _censuses(self):
        return {}

    def rank_census(self, s):
        """(subsets, ranks): every s-subset of the columns and its rank on ``directions``.

        The subsets come in lexicographic order (``numkit.subsets``), so
        ``numkit.subset_index`` finds a subset's rank. Each size is ranked
        once and cached; faces, facets and tilings all read it.
        """
        if s not in self._censuses:
            self._censuses[s] = numkit.rank_census(self.directions, s, self.tol)
        return self._censuses[s]

    @cached_property
    def _measures(self):
        return {}

    def subset_measures(self, s):
        """Read-only ``numkit.subset_measures`` of every s-subset, in ``rank_census`` order.

        Each size is computed once and cached; volumes, the volume command's
        census and the tiling's signs all read it.
        """
        if s not in self._measures:
            table = numkit.subset_measures(self.matrix, numkit.subsets(self.k, s))
            table.setflags(write=False)
            self._measures[s] = table
        return self._measures[s]

    def generating_faces(self, s):
        """All maximal column subsets of rank s, as GeneratingFace records.

        s = 0 returns the generators themselves, one face per column. Ranks
        are decided on ``directions``. The faces come in column-tuple order.
        ``_face_cache[s]`` keeps them with their closure table: each face's
        first generating s-subset in lexicographic order (a facet takes its
        normal from it) and its (F, k) boolean row of member columns.
        """
        if not 0 <= s <= self.rank:
            raise DegeneracyError(f"face dimension {s} outside 0..{self.rank}")
        if s not in self._face_cache:
            k = self.k
            rows, combos = (np.eye(k, dtype=bool), np.arange(k)[:, None]) if s == 0 else self._closures(s)
            # each closed column set (an exact key, where an int64 mask would merge columns past 63)
            # and the place of its first subset
            first = {}
            for i, row in enumerate(rows.tolist()):
                first.setdefault(tuple(itertools.compress(range(k), row)), i)
            columns = sorted(first)
            at = [first[c] for c in columns]
            members, bases = rows[at], combos[at]
            members.setflags(write=False)
            self._face_cache[s] = ([GeneratingFace(c, s) for c in columns], bases, members)
        return self._face_cache[s][0]

    def _closures(self, s):
        """(members, subsets) of every rank-s s-subset, in lexicographic order.

        Row i of the (N, k) boolean ``members`` marks the closed column set
        of ``subsets[i]``: column j is in it iff the subset plus j still has
        rank s. For j outside the subset that rank is read from the
        (s+1)-census, at the index of the subset plus j sorted; the subset's
        own columns are in it. Runs of ``SUBSET_BATCH // k`` subsets bound the
        index temporaries.
        """
        combos, ranks = self.rank_census(s)
        _, above = self.rank_census(s + 1)
        base = combos[ranks == s]
        k = self.k
        members = np.empty((len(base), k), dtype=bool)
        step = max(1, numkit.SUBSET_BATCH // k)
        for start in range(0, len(base), step):
            chunk = base[start:start + step]
            inside = (chunk[:, :, None] == np.arange(k)).any(axis=1)
            at, j = np.nonzero(~inside)
            grown = np.sort(np.column_stack([chunk[at], j]), axis=1)
            inside[at, j] = above[numkit.subset_index(grown, k)] == s
            members[start:start + step] = inside
        return members, base

    def zone(self, i):
        """Generating facets whose column set contains generator i."""
        if not 0 <= i < self.k:
            raise IndexError(f"generator index {i} outside 0..{self.k - 1}")
        faces = self.generating_faces(self.rank - 1)
        return list(itertools.compress(faces, self._face_cache[self.rank - 1][2][:, i].tolist()))

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
        """The facet table: every bounding facet side as stacked arrays (:class:`FacetTable`)."""
        if self.rank < 2:
            raise DegeneracyError("bounding facets need rank >= 2")
        basis = self._column_space_basis
        coords = self.matrix if basis is None else basis.T @ self.matrix
        faces = tuple(self.generating_faces(self.rank - 1))
        _, bases, members = self._face_cache[self.rank - 1]
        # One row per face. A matmul on (.., m, 1) or (.., 1, m) stacks makes
        # one BLAS matrix-vector or dot call per row, as a loop over the faces
        # would, so every value is bit-identical to the one-face computation.
        normals = _facet_normals(coords, bases)
        if basis is not None:
            normals = np.matmul(basis, normals[:, :, None])[:, :, 0]
        lengths = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None])[:, 0, 0])
        references = numkit.sign_normalize(normals / lengths[:, None], self.tol)
        proj = np.matmul(self.matrix.T, references[:, :, None])[:, :, 0]
        outside = ~members
        # minus then plus side of each face
        sides = np.stack([outside & (proj < 0.0), outside & (proj >= 0.0)], axis=1).reshape(-1, self.k)
        units = np.stack([-references, references], axis=1).reshape(-1, self.n)
        translations = numkit.column_sums(self.matrix, np.arange(self.k), sides)
        supports = np.matmul(units[:, None, :], translations[:, :, None])[:, 0, 0]
        masks = _masks(sides)
        for array in (units, sides, masks, translations, supports):
            array.setflags(write=False)
        return FacetTable(faces, units, sides, masks, translations, supports)

    @cached_property
    def _facet_records(self):
        """The facet table as BoundingFacet records, with translation sets and facet volumes."""
        table = self._bounding_facets
        tsets = [tuple(itertools.compress(range(self.k), row)) for row in table.sides.tolist()]
        supports = table.supports.tolist()
        volumes = _face_volumes(self.matrix, [face.columns for face in table.faces], self.rank - 1).tolist()
        facets = []
        for i, face in enumerate(table.faces):
            neg, pos = tsets[2 * i], tsets[2 * i + 1]
            for j, side in ((2 * i, "minus"), (2 * i + 1, "plus")):
                facets.append(
                    BoundingFacet(
                        generating=face,
                        unit_normal=table.units[j],
                        negative_set=neg,
                        positive_set=pos,
                        side=side,
                        translation=table.translations[j],
                        volume=volumes[i],
                        support=supports[j],
                    )
                )
        return facets

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

    def _flat_sign_vectors(self, flat, s, memo):
        """Vertex sign masks of the face on the closed column set ``flat`` of rank s, as an int64 array.

        At the top (``flat`` all columns, s = rank >= 2) every vertex is a
        vertex of a bounding facet's closed face plus that facet's
        translation set. A closed 2-face below the top gives its vertex cycle
        (``_cycles``) and a parallel class its two ends. Otherwise the facets
        of the face are the parent's closed (s-1)-faces G properly inside
        ``flat``, and every vertex is a vertex of some G plus one side of
        ``flat`` minus G: the columns whose residual off G's span points the
        way of the first column's residual, or the others. The residuals
        come from the level's stack (``_residuals``), so each flat costs one
        mask test and one batched matmul. The top may repeat a mask; the
        levels below it hold each once. ``memo`` maps (columns, rank) to the
        result, so a face shared by several flats is enumerated once; a
        column set can be closed at two ranks near the rank cut.
        """
        if (flat, s) in memo:
            return memo[flat, s]
        if s == self.rank >= 2:
            table = self._bounding_facets
            below = [self._flat_sign_vectors(face.columns, s - 1, memo) for face in table.faces]
            # each face's vertices joined with the translation sets of its minus and plus sides
            sides = np.repeat(table.masks.reshape(-1, 2), [len(b) for b in below], axis=0)
            signs = (sides | np.concatenate(below)[:, None]).ravel()
        elif s == 2:
            signs = self._cycles[flat][0]
        elif s == 1:
            d = self.directions
            half = _mask(np.array(flat)[d[:, flat].T @ d[:, flat[0]] > 0.0].tolist())
            signs = np.array([half, _mask(flat) ^ half])
        else:
            whole = _mask(flat)
            faces = self.generating_faces(s - 1)
            masks, residuals = self._residuals[s - 1]
            # the closed (s-1)-faces G properly inside flat, and flat minus each G
            rows = np.flatnonzero((masks & ~whole == 0) & (masks != whole))
            rest = _columns_of(whole ^ masks[rows], self.k)
            off = residuals[rows]
            lead = off[np.arange(len(rows)), :, rest.argmax(axis=1)]
            sides = _masks(rest & (np.matmul(lead[:, None, :], off)[:, 0] > 0.0))
            below = [self._flat_sign_vectors(faces[i].columns, s - 1, memo) for i in rows.tolist()]
            half = np.repeat(sides, [len(b) for b in below]) | np.concatenate([np.empty(0, np.int64), *below])
            # every face is centrally symmetric: the complement of a vertex is the opposite vertex
            signs = np.unique(np.concatenate([half, whole ^ half]))
        memo[flat, s] = signs
        return signs

    @cached_property
    def _residuals(self):
        """``{s: (masks, residuals)}`` for every face level s in 2..rank-2.

        ``masks`` holds the closed s-faces' sign masks and ``residuals[i]``
        the (n, k) residuals of every direction off the span of face i's
        generating subset; one stacked QR per level.
        """
        d = self.directions
        levels = {}
        for s in range(2, self.rank - 1):
            self.generating_faces(s)
            _, bases, members = self._face_cache[s]
            q, _ = np.linalg.qr(numkit.column_subsets(d, bases))
            levels[s] = (_masks(members), d - q @ (np.swapaxes(q, 1, 2) @ d))
        return levels

    @cached_property
    def _cycles(self):
        """Vertex cycle of every closed 2-face: ``{columns: (sign masks, frame)}``.

        The frame's rows e1, e2 span the face's plane: e1 is the first column
        of the face's generating pair, e2 the second made orthogonal to it.
        Each closed 1-face properly inside the face is split into its two
        halves (the columns pointing the way of its first column, and the
        rest), and the angle of its first column in the frame is folded into
        [0, pi), swapping the halves when it folds. From the union of the
        second halves, the walk trades each class's second half for its
        first in angle order; the complements of those m masks, in the same
        order, close the cycle. Consecutive masks differ in one parallel
        class, and the 2m of them run counter-clockwise from e1 towards e2.
        Faces with equally many classes walk together, one array step per
        class.
        """
        d = self.directions
        faces = self.generating_faces(2)
        self.generating_faces(1)
        _, pairs, planes = self._face_cache[2]
        _, _, lines = self._face_cache[1]
        e1 = d[:, pairs[:, 0]].T
        e2 = d[:, pairs[:, 1]].T
        e2 = e2 - e1 * np.sum(e1 * e2, axis=1)[:, None]
        e2 /= np.linalg.norm(e2, axis=1)[:, None]
        heads = lines.argmax(axis=1)
        classes, flats = _masks(lines), _masks(planes)
        # each class's columns pointing the way of its first column
        firsts = _masks(lines & (d[:, heads].T @ d > 0.0))
        angles = np.arctan2(e2 @ d, e1 @ d)[:, heads]
        flipped = angles < 0.0
        angles[flipped] += np.pi
        # each face's classes in angle order, ties in class order, the classes outside it last
        inner = (classes & ~flats[:, None] == 0) & (classes != flats[:, None])
        order = np.argsort(np.where(inner, angles, np.inf), axis=1, kind="stable")
        first = np.take_along_axis(firsts ^ np.where(flipped, classes, 0), order, axis=1)
        second = first ^ classes[order]
        counts = inner.sum(axis=1)
        frames = np.stack([e1, e2], axis=1)
        cycles = {}
        for m in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == m)
            v = np.bitwise_or.reduce(second[rows, :m], axis=1)
            walk = np.empty((len(rows), m), dtype=np.int64)
            for step in range(m):
                walk[:, step] = v
                v = (v & ~second[rows, step]) | first[rows, step]
            rings = np.concatenate([walk, flats[rows, None] ^ walk], axis=1)
            for f, ring in zip(rows.tolist(), rings):
                cycles[faces[f].columns] = (ring, frames[f])
        return cycles

    @cached_property
    def _vertices(self):
        """One read-only record per vertex, sorted by point: its ``point`` and sign ``mask``.

        Equal points, possible only near the rank cut, come in mask order.
        """
        if self.k > VERTEX_ENUM_LIMIT:
            raise CapacityError(f"vertex enumeration capped at k = {VERTEX_ENUM_LIMIT}")
        masks = np.unique(self._flat_sign_vectors(tuple(range(self.k)), self.rank, {}))
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
        rows = _columns_of(self._vertices["mask"], self.k).tolist()
        return [frozenset(itertools.compress(range(self.k), row)) for row in rows]


def _mask(columns):
    """Sign mask of a column collection: bit j set iff column j is in it."""
    return sum(1 << j for j in columns)


def _masks(rows):
    """Int64 sign mask of each row of a (R, k) boolean array."""
    return rows @ (np.int64(1) << np.arange(rows.shape[1], dtype=np.int64))


def _columns_of(masks, k):
    """(R, k) boolean array whose row i marks the columns of ``masks[i]``."""
    return (masks[:, None] >> np.arange(k)) & 1 == 1


def _facet_normals(coords, bases):
    """Cross product of each face's generating (r-1)-subset, one row per face.

    Component i of every normal is (-1)^i times the minor with row i deleted,
    all of them one stacked determinant.
    """
    r = coords.shape[0]
    # a C-ordered stack gives C-ordered normals, whose rows later BLAS dots read contiguously
    minors = np.linalg.det(np.ascontiguousarray(numkit.column_subsets(coords, bases)[:, numkit.omit_each(r)]))
    return np.where(np.arange(r) % 2 == 1, -minors, minors)


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
    """Whether two facet signatures agree entrywise within tolerance."""
    if len(sig1) != len(sig2):
        return False
    cut = tol.threshold(1.0)
    used = [False] * len(sig2)
    for normal, vol in sig1:
        hit = False
        for j, (normal2, vol2) in enumerate(sig2):
            if used[j]:
                continue
            if np.max(np.abs(np.asarray(normal) - np.asarray(normal2))) <= cut and tol.close(vol, vol2):
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True
