"""Zonotope model: faces, facets, normals, volumes, zones, and vertices.

A zonotope is the column image of a unit cube, Z(A) = {A t : t in [0,1]^k}.
Everything here is derived from the defining matrix; the Zonotope object is
immutable and caches its derived structure on first use.

Faces are keyed by column subsets: a generating face by its closed column
set, a vertex A 1_S by its sign vector S. Every rank decision on a column
subset is made on the generators scaled to unit length, so it sees
directions only; face closures read one cached rank census per subset
size. Each closed (rank-1)-dimensional generating face gives exactly one
opposite pair of facets. Vertices are enumerated over the same
closed faces: every vertex is a vertex of a facet plus that facet's
translation set. A closed 2-face is a zonogon whose vertex cycle comes from
one angular sort of its parallel classes, a closed face of higher rank
takes the vertices of its closed faces one rank down plus one side of the
rest, and a parallel class has its two ends; no sub-zonotope, candidate
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


@dataclass(eq=False)
class GeometricFacet:
    """One actual facet of the zonotope: exactly one bounding facet.

    ``constituents`` is that bounding facet as a one-element list; normal,
    support and volume are its own.
    """

    constituents: list
    unit_normal: np.ndarray
    support: float
    volume: float


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
        """Groups of mutually parallel generators (each a tuple of indices)."""
        classes = []
        assigned = [False] * self.k
        for i in range(self.k):
            if assigned[i]:
                continue
            group = [i]
            assigned[i] = True
            for j in range(i + 1, self.k):
                if not assigned[j] and numkit.rank(self.directions[:, [i, j]], self.tol) == 1:
                    group.append(j)
                    assigned[j] = True
            classes.append(tuple(group))
        return classes

    def column(self, i):
        return self.matrix[:, i]

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
        are decided on ``directions``. Each face's first generating s-subset
        in lexicographic order is kept alongside (``_face_cache[s]``); a
        facet takes its normal from that subset.
        """
        if not 0 <= s <= self.rank:
            raise DegeneracyError(f"face dimension {s} outside 0..{self.rank}")
        if s not in self._face_cache:
            if s == 0:
                bases = {(i,): (i,) for i in range(self.k)}
            else:
                bases = {}
                for closure, base in self._closures(s):
                    bases.setdefault(closure, base)
            order = sorted(bases)
            self._face_cache[s] = ([GeneratingFace(c, s) for c in order], [bases[c] for c in order])
        return self._face_cache[s][0]

    def _closures(self, s):
        """(closed column set, subset) for every rank-s s-subset, in lexicographic order.

        Column j is in the closure of S iff S plus j still has rank s. For j
        outside S that rank is read from the (s+1)-census, at the index of
        S plus j sorted; the columns of S are in it. Runs of
        ``SUBSET_BATCH // k`` subsets bound the index temporaries.
        """
        combos, ranks = self.rank_census(s)
        _, above = self.rank_census(s + 1)
        base = combos[ranks == s]
        k = self.k
        pairs = []
        step = max(1, numkit.SUBSET_BATCH // k)
        for start in range(0, len(base), step):
            chunk = base[start:start + step]
            inside = (chunk[:, :, None] == np.arange(k)).any(axis=1)
            at, j = np.nonzero(~inside)
            grown = np.sort(np.column_stack([chunk[at], j]), axis=1)
            inside[at, j] = above[numkit.subset_index(grown, k)] == s
            closures = [tuple(itertools.compress(range(k), row)) for row in inside.tolist()]
            pairs.extend(zip(closures, map(tuple, chunk.tolist())))
        return pairs

    def zone(self, i):
        """Generating facets whose column set contains generator i."""
        if not 0 <= i < self.k:
            raise IndexError(f"generator index {i} outside 0..{self.k - 1}")
        return [f for f in self.generating_faces(self.rank - 1) if i in f.columns]

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
        """Orthonormal basis of the column space (identity-free when full rank)."""
        if self.rank == self.n:
            return None
        # near the cut greedy picks can outnumber the rank (a subset can rank
        # above the whole set); the first ``rank`` of them span the basis
        picked = numkit.independent_columns(self.directions, self.tol)[:self.rank]
        q, _ = numkit.qr_decompose(self.directions[:, picked], self.tol)
        return q

    @cached_property
    def _bounding_facets(self):
        if self.rank < 2:
            raise DegeneracyError("bounding facets need rank >= 2")
        basis = self._column_space_basis
        coords = self.matrix if basis is None else basis.T @ self.matrix
        faces = self.generating_faces(self.rank - 1)
        bases = self._face_cache[self.rank - 1][1]
        # One row per face. A matmul on (.., m, 1) or (.., 1, m) stacks makes
        # one BLAS matrix-vector or dot call per row, as a loop over the faces
        # would, so every value is bit-identical to the one-face computation.
        normals = _facet_normals(coords, bases)
        if basis is not None:
            normals = np.matmul(basis, normals[:, :, None])[:, :, 0]
        lengths = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None])[:, 0, 0])
        references = numkit.sign_normalize(normals / lengths[:, None], self.tol)
        proj = np.matmul(self.matrix.T, references[:, :, None])[:, :, 0]
        k = self.k
        outside = np.ones((len(faces), k), dtype=bool)
        for i, face in enumerate(faces):
            outside[i, face.columns] = False
        # minus then plus side of each face
        sides = np.stack([outside & (proj < 0.0), outside & (proj >= 0.0)], axis=1).reshape(-1, k)
        units = np.stack([-references, references], axis=1).reshape(-1, self.n)
        tsets = [tuple(itertools.compress(range(k), row)) for row in sides.tolist()]
        translations = numkit.column_sums(self.matrix, np.arange(k), sides)
        supports = np.matmul(units[:, None, :], translations[:, :, None])[:, 0, 0].tolist()
        volumes = _face_volumes(self.matrix, [face.columns for face in faces], self.rank - 1).tolist()
        facets = []
        for i, face in enumerate(faces):
            neg, pos = tsets[2 * i], tsets[2 * i + 1]
            for j, side in ((2 * i, "minus"), (2 * i + 1, "plus")):
                facets.append(
                    BoundingFacet(
                        generating=face,
                        unit_normal=units[j],
                        negative_set=neg,
                        positive_set=pos,
                        side=side,
                        translation=translations[j],
                        volume=volumes[i],
                        support=supports[j],
                    )
                )
        return facets

    def bounding_facets(self):
        return list(self._bounding_facets)

    @cached_property
    def _geometric_facets(self):
        out = [
            GeometricFacet(
                constituents=[bf],
                unit_normal=bf.unit_normal.copy(),
                support=bf.support,
                volume=float(bf.volume),
            )
            for bf in self._bounding_facets
        ]
        # lexsort's last key is the primary one: normal coordinates in order,
        # then the support; it is stable, so ties keep facet-table order
        normals = np.round([f.unit_normal for f in out], 9).reshape(len(out), self.n)
        supports = [round(f.support, 9) for f in out]
        order = np.lexsort([supports, *normals.T[::-1]])
        return [out[i] for i in order.tolist()]

    def geometric_facets(self):
        return list(self._geometric_facets)

    def facet_signature(self):
        """Canonical multiset of (sign-normalized unit normal, facet volume).

        One entry per opposite facet pair, that is per "plus" bounding facet,
        whose normal is already sign-normalized; ordered lexicographically.
        """
        entries = [(tuple(bf.unit_normal), bf.volume) for bf in self._bounding_facets if bf.side == "plus"]
        entries.sort(key=lambda e: (tuple(round(x, 9) for x in e[0]), round(e[1], 9)))
        return tuple(entries)

    # -- vertices ---------------------------------------------------------

    def _flat_sign_vectors(self, flat, s, memo):
        """Vertex sign vectors of the face on the closed column set ``flat`` of rank s.

        At the top of a full-rank zonotope (``flat`` all columns, s = rank =
        n >= 2) every vertex is a vertex of a bounding facet's closed face
        plus that facet's translation set. A closed 2-face below the top
        gives the set of its vertex cycle (``_cycles``) and a parallel class
        its two ends. Otherwise, and at the top of a rank-deficient zonotope,
        whose column-space basis can disagree with its rank near the cut,
        the facets of the face
        are the parent's closed (s-1)-faces G properly inside ``flat``, and
        every vertex is a vertex of some G plus one side of ``flat`` minus G:
        the columns whose residual off G's span points the way of the first
        column's residual, or the others. ``memo`` maps (columns, rank) to
        the result, so a face shared by several flats is enumerated once; a
        column set can be closed at two ranks near the rank cut.
        """
        if (flat, s) in memo:
            return memo[flat, s]
        if s == self.rank == self.n >= 2:
            signs = {
                frozenset(bf.translation_set) | v
                for bf in self._bounding_facets
                for v in self._flat_sign_vectors(bf.generating.columns, s - 1, memo)
            }
        elif s == 2 < self.rank:
            signs = set(self._cycles[flat][0])
        elif s == 1:
            half = self._half(flat)
            signs = {half, frozenset(flat) - half}
        else:
            d = self.directions
            inside = set(flat)
            half = []
            for face, base in zip(self.generating_faces(s - 1), self._face_cache[s - 1][1]):
                below = face.columns
                if len(below) == len(flat) or not inside.issuperset(below):
                    continue
                rest = [j for j in flat if j not in below]
                q, _ = np.linalg.qr(d[:, base])
                off = d[:, rest] - q @ (q.T @ d[:, rest])
                side = frozenset(np.array(rest)[off.T @ off[:, 0] > 0.0].tolist())
                half.extend(b | side for b in self._flat_sign_vectors(below, s - 1, memo))
            # every face is centrally symmetric: the complement of a vertex is the opposite vertex
            signs = {v for h in half for v in (h, frozenset(flat) - h)}
        memo[flat, s] = signs
        return signs

    def _half(self, flat):
        """The columns of ``flat`` pointing the way of its first column."""
        d = self.directions
        return frozenset(np.array(flat)[d[:, flat].T @ d[:, flat[0]] > 0.0].tolist())

    @cached_property
    def _cycles(self):
        """Vertex cycle of every closed 2-face: ``{columns: (sign vectors, frame)}``.

        The frame's rows e1, e2 span the face's plane: e1 is the first column
        of the face's generating pair, e2 the second made orthogonal to it.
        Each closed 1-face properly inside the face is split into its two
        halves (:meth:`_half` and the rest), and the angle of its first
        column in the frame is folded into [0, pi), swapping the halves when
        it folds. From the union of the second halves, the walk trades each
        class's second half for its first in angle order; the complements of
        those m sets, in the same order, close the cycle. Consecutive sign
        vectors differ in one parallel class, and the 2m of them run
        counter-clockwise from e1 towards e2.
        """
        d = self.directions
        faces = self.generating_faces(2)
        pairs = np.array(self._face_cache[2][1])
        e1 = d[:, pairs[:, 0]].T
        e2 = d[:, pairs[:, 1]].T
        e2 = e2 - e1 * np.sum(e1 * e2, axis=1)[:, None]
        e2 /= np.linalg.norm(e2, axis=1)[:, None]
        classes = [c.columns for c in self.generating_faces(1)]
        firsts = [self._half(c) for c in classes]
        halves = [(h, frozenset(c) - h) for c, h in zip(classes, firsts)]
        angles = np.arctan2(e2 @ d, e1 @ d)[:, [c[0] for c in classes]]
        flipped = angles < 0.0
        angles[flipped] += np.pi
        angles, flipped = angles.tolist(), flipped.tolist()
        frames = np.stack([e1, e2], axis=1)
        cycles = {}
        for f, face in enumerate(faces):
            flat = frozenset(face.columns)
            inner = [c for c, cls in enumerate(classes) if len(cls) < len(flat) and flat.issuperset(cls)]
            inner.sort(key=angles[f].__getitem__)
            steps = [halves[c][::-1] if flipped[f][c] else halves[c] for c in inner]
            v = frozenset().union(*(second for _, second in steps))
            walk = []
            for first, second in steps:
                walk.append(v)
                v = (v - second) | first
            cycles[face.columns] = (walk + [flat - w for w in walk], frames[f])
        return cycles

    @cached_property
    def _vertices(self):
        """Sorted (point, sign vector) pairs."""
        if self.k > VERTEX_ENUM_LIMIT:
            raise CapacityError(f"vertex enumeration capped at k = {VERTEX_ENUM_LIMIT}")
        signs = list(self._flat_sign_vectors(tuple(range(self.k)), self.rank, {}))
        indicator = np.zeros((len(signs), self.k))
        for i, s in enumerate(signs):
            indicator[i, list(s)] = 1.0
        points = indicator @ self.matrix.T
        order = sorted(range(len(signs)), key=lambda i: tuple(points[i]))
        return [(points[i], signs[i]) for i in order]

    def vertices(self):
        """Extreme points, sorted lexicographically.

        Each vertex is A 1_S for exactly one column subset S (its sign
        vector); the subsets come from the closed generating faces, so no
        candidate outside the vertex set is ever formed.
        """
        return [p.copy() for p, _ in self._vertices]

    def vertex_sign_vectors(self):
        """Sign vectors of :meth:`vertices`, in the same order (frozensets)."""
        return [s for _, s in self._vertices]


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
