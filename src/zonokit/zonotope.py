"""Zonotope model: faces, facets, normals, volumes, zones, and vertices.

A zonotope is the column image of a unit cube, Z(A) = {A t : t in [0,1]^k}.
Everything here is derived from the defining matrix; the Zonotope object is
immutable and caches its derived structure on first use.

Faces are keyed by column subsets: a generating face by its closed column
set, a vertex A 1_S by its sign vector S. Vertices are enumerated from the
bounding facets, recursively down to zonogons and segments, which have
closed forms; no candidate point or linear program is involved.
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
    """Coplanar bounding facets merged into one actual facet."""

    constituents: list
    unit_normal: np.ndarray
    support: float
    volume: float


def _vec_close(p, q, cut):
    return np.max(np.abs(p - q)) <= cut


class Zonotope:
    """Zonotope given by its n x k defining matrix plus a tolerance.

    Zero generators are stripped at construction (recorded in
    ``stripped_columns`` with a warning); all queries are pure and cached.
    """

    def __init__(self, matrix, tol=DEFAULT_TOL):
        a = as_matrix(matrix)
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError("a zonotope needs ambient dimension and generators")
        cut = tol.threshold(np.abs(a).max() if a.size else 0.0)
        keep = [j for j in range(a.shape[1]) if np.abs(a[:, j]).max() > cut]
        self.stripped_columns = tuple(j for j in range(a.shape[1]) if j not in keep)
        if self.stripped_columns:
            warnings.warn(
                f"stripped zero generators at columns {self.stripped_columns}",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        if not keep:
            raise DegeneracyError("all generators are zero")
        a = a[:, keep]
        a.setflags(write=False)
        self.matrix = a
        self.tol = tol

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1]

    @cached_property
    def rank(self):
        return numkit.rank(self.matrix, self.tol)

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
                if not assigned[j] and numkit.rank(self.matrix[:, [i, j]], self.tol) == 1:
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

    def generating_faces(self, s):
        """All maximal column subsets of rank s, as GeneratingFace records.

        s = 0 returns the generators themselves, one face per column.
        """
        if not 0 <= s <= self.rank:
            raise DegeneracyError(f"face dimension {s} outside 0..{self.rank}")
        if s in self._face_cache:
            return self._face_cache[s]
        if s == 0:
            faces = [GeneratingFace((i,), 0) for i in range(self.k)]
        else:
            closures = set()
            combos = itertools.combinations(range(self.k), s)
            while batch := list(itertools.islice(combos, max(1, numkit.SUBSET_BATCH // self.k))):
                closures.update(self._closures(np.reshape(batch, (len(batch), s)), s))
            faces = [GeneratingFace(c, s) for c in sorted(closures)]
        self._face_cache[s] = faces
        return faces

    def _closures(self, combos, s):
        """Closed column sets of the rank-s subsets among the rows of ``combos``.

        Column j is in a closure iff the subset plus j still has rank s; both
        the subsets and their extensions by every column are one stacked rank.
        """
        ranks = numkit.rank_batch(numkit.column_subsets(self.matrix, combos), self.tol)
        base = combos[ranks == s]
        extended = np.column_stack(
            [np.repeat(base, self.k, axis=0), np.tile(np.arange(self.k), len(base))]
        )
        inside = numkit.rank_batch(numkit.column_subsets(self.matrix, extended), self.tol) == s
        return {tuple(np.flatnonzero(row).tolist()) for row in inside.reshape(-1, self.k)}

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
        total = 0.0
        for _, d in numkit.subset_determinants(self.matrix, self.n):
            total += abs(d)
        return total

    def m_volume(self, m):
        """Intrinsic m-volume: sum over m-subsets of sqrt(det Gram)."""
        if m != self.rank:
            raise DimensionError(f"m_volume needs m = rank = {self.rank}, got {m}")
        return _subset_volume(self.matrix, m)

    def facet_volume(self, face):
        """(rank-1)-volume of the sub-zonotope on a generating facet."""
        if face.dim != self.rank - 1:
            raise DimensionError(f"facet_volume needs a face of dim {self.rank - 1}")
        return _subset_volume(self.matrix[:, face.columns], face.dim)

    # -- facets ----------------------------------------------------------

    @cached_property
    def _column_space_basis(self):
        """Orthonormal basis of the column space (identity-free when full rank)."""
        if self.rank == self.n:
            return None
        picked = numkit.independent_columns(self.matrix, self.tol)
        q, _ = numkit.qr_decompose(self.matrix[:, picked], self.tol)
        return q

    @cached_property
    def _bounding_facets(self):
        if self.rank < 2:
            raise DegeneracyError("bounding facets need rank >= 2")
        basis = self._column_space_basis
        coords = self.matrix if basis is None else basis.T @ self.matrix
        faces = self.generating_faces(self.rank - 1)
        facets = []
        for face, normal in zip(faces, _facet_normals(coords, faces, self.tol)):
            if basis is not None:
                normal = basis @ normal
            normal = normal / np.linalg.norm(normal)
            reference = numkit.sign_normalize(normal, self.tol)
            proj = self.matrix.T @ reference
            rest = [j for j in range(self.k) if j not in face.columns]
            negative = tuple(j for j in rest if proj[j] < 0.0)
            positive = tuple(j for j in rest if proj[j] >= 0.0)
            vol = self.facet_volume(face)
            for side, unit, tset in (
                ("minus", -reference, negative),
                ("plus", reference, positive),
            ):
                translation = (
                    self.matrix[:, tset].sum(axis=1) if tset else np.zeros(self.n)
                )
                facets.append(
                    BoundingFacet(
                        generating=face,
                        unit_normal=unit,
                        negative_set=negative,
                        positive_set=positive,
                        side=side,
                        translation=translation,
                        volume=vol,
                        support=float(unit @ translation),
                    )
                )
        return facets

    def bounding_facets(self):
        return list(self._bounding_facets)

    @cached_property
    def _geometric_facets(self):
        facets = self._bounding_facets
        m = len(facets)
        keys = []
        for bf in facets:
            g = numkit.sign_normalize(bf.unit_normal, self.tol)
            sigma = 1.0 if float(g @ bf.unit_normal) > 0 else -1.0
            keys.append((g, sigma * bf.support))
        cut_n = self.tol.threshold(1.0)
        supports = [abs(h) for _, h in keys] or [0.0]
        cut_h = self.tol.threshold(max(supports))
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(m):
            for j in range(i + 1, m):
                gi, hi = keys[i]
                gj, hj = keys[j]
                if _vec_close(gi, gj, cut_n) and abs(hi - hj) <= cut_h:
                    parent[find(j)] = find(i)
        clusters = {}
        for i in range(m):
            clusters.setdefault(find(i), []).append(facets[i])
        out = []
        for members in clusters.values():
            lead = members[0]
            out.append(
                GeometricFacet(
                    constituents=members,
                    unit_normal=lead.unit_normal.copy(),
                    support=lead.support,
                    volume=float(sum(bf.volume for bf in members)),
                )
            )
        out.sort(key=lambda f: (tuple(np.round(f.unit_normal, 9)), round(f.support, 9)))
        return out

    def geometric_facets(self):
        return list(self._geometric_facets)

    def facet_signature(self):
        """Canonical multiset of (sign-normalized unit normal, facet volume).

        One entry per opposite facet pair, ordered lexicographically.
        """
        geo = self._geometric_facets
        cut_n = self.tol.threshold(1.0)
        entries = []
        used = [False] * len(geo)
        for i, f in enumerate(geo):
            if used[i]:
                continue
            g = numkit.sign_normalize(f.unit_normal, self.tol)
            for j in range(i + 1, len(geo)):
                if used[j]:
                    continue
                gj = numkit.sign_normalize(geo[j].unit_normal, self.tol)
                if _vec_close(g, gj, cut_n):
                    used[j] = True
                    break
            used[i] = True
            entries.append((tuple(g), f.volume))
        entries.sort(key=lambda e: (tuple(round(x, 9) for x in e[0]), round(e[1], 9)))
        return tuple(entries)

    # -- vertices ---------------------------------------------------------

    def _labelled_sign_vectors(self, labels, memo):
        """Vertex sign vectors with column j written as ``labels[j]``.

        Rank 1 and 2 have closed forms; above that every vertex is a bounding
        facet's translation set plus a vertex of the facet's sub-zonotope.
        ``memo`` maps a label tuple to its sub-zonotope's result, so a face
        reached through several facets (both sides of one facet, or a ridge
        shared by two) is enumerated once.
        """
        if self.rank == 1:
            proj = self.matrix.T @ self.matrix[:, 0]
            return {_labelled(proj > 0.0, labels), _labelled(proj < 0.0, labels)}
        if self.rank == 2:
            return self._zonogon_sign_vectors(labels)
        signs = set()
        for bf in self._bounding_facets:
            face = tuple(labels[j] for j in bf.generating.columns)
            if face not in memo:
                sub = Zonotope(self.matrix[:, bf.generating.columns], self.tol)
                memo[face] = sub._labelled_sign_vectors(face, memo)
            side = frozenset(labels[j] for j in bf.translation_set)
            signs.update(s | side for s in memo[face])
        return signs

    def _zonogon_sign_vectors(self, labels):
        """Rank 2: the two ends of each edge normal to +-(column j rotated 90 deg)."""
        basis = self._column_space_basis
        c = self.matrix if basis is None else basis.T @ self.matrix
        cross = np.outer(c[0], c[1]) - np.outer(c[1], c[0])  # [j, m] = det(c_j, c_m)
        dot = c.T @ c
        norms = np.sqrt(np.diag(dot))
        parallel = np.abs(cross) <= self.tol.threshold(1.0) * np.outer(norms, norms)
        sides = [~parallel & (cross > 0.0), ~parallel & (cross < 0.0)]
        ends = [parallel & (dot > 0.0), parallel & (dot < 0.0)]
        return {_labelled(row, labels) for side in sides for end in ends for row in side | end}

    @cached_property
    def _vertices(self):
        """Sorted (point, sign vector) pairs."""
        if self.k > VERTEX_ENUM_LIMIT:
            raise CapacityError(f"vertex enumeration capped at k = {VERTEX_ENUM_LIMIT}")
        signs = list(self._labelled_sign_vectors(tuple(range(self.k)), {}))
        indicator = np.zeros((len(signs), self.k))
        for i, s in enumerate(signs):
            indicator[i, list(s)] = 1.0
        points = indicator @ self.matrix.T
        order = sorted(range(len(signs)), key=lambda i: tuple(points[i]))
        return [(points[i], signs[i]) for i in order]

    def vertices(self):
        """Extreme points, sorted lexicographically.

        Each vertex is A 1_S for exactly one column subset S (its sign
        vector); the subsets come from the facet structure, so no candidate
        outside the vertex set is ever formed.
        """
        return [p.copy() for p, _ in self._vertices]

    def vertex_sign_vectors(self):
        """Sign vectors of :meth:`vertices`, in the same order (frozensets)."""
        return [s for _, s in self._vertices]


def _facet_normals(coords, faces, tol):
    """Cross product of each face's greedy independent columns, one row per face.

    The columns are those ``numkit.independent_columns`` picks from
    ``coords[:, face.columns]``, found for all faces at once with one stacked
    rank per greedy step and trial size; component i of every normal is one
    stacked determinant with row i deleted.
    """
    r = coords.shape[0]
    picked = [[] for _ in faces]
    for j in range(max((len(f.columns) for f in faces), default=0)):
        trials = {}
        for f, face in enumerate(faces):
            if j < len(face.columns):
                trials.setdefault(len(picked[f]) + 1, []).append(f)
        for size, members in trials.items():
            stack = numkit.column_subsets(coords, [picked[f] + [faces[f].columns[j]] for f in members])
            for f, got in zip(members, numkit.rank_batch(stack, tol)):
                if got == size:
                    picked[f].append(faces[f].columns[j])
    for face, cols in zip(faces, picked):
        if len(cols) != r - 1:
            raise DegeneracyError(
                f"generating facet on columns {face.columns} has {len(cols)} greedy independent "
                f"columns in rank {r}, not {r - 1}: the rank decisions depend on the column scales"
            )
    stack = numkit.column_subsets(coords, np.reshape(picked, (len(faces), r - 1)))
    normals = np.empty((len(faces), r))
    keep = np.ones(r, dtype=bool)
    for i in range(r):
        keep[i] = False
        normals[:, i] = (-1.0) ** i * np.linalg.det(stack[:, keep, :])
        keep[i] = True
    return normals


def _labelled(mask, labels):
    return frozenset(labels[j] for j in np.flatnonzero(mask))


def _subset_volume(matrix, m):
    total = 0.0
    for _, d in numkit.subset_determinants(matrix, m):
        total += abs(d)
    return total


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
            if _vec_close(np.asarray(normal), np.asarray(normal2), cut) and tol.close(vol, vol2):
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True
