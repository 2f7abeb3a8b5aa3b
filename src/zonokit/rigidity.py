"""Exterior roots, parallelotope reconstruction from facet data, and the
facet-congruence checkers.

The key identity: for square A, the unsigned minor matrix satisfies
minors(A) = D cof(A) D with D = diag((-1)^i), so minors(A) = b solves to
A = det(A) * (D b^T D)^-1 with det(A)^(n-1) = det(b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import congruence
from .errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    NoRealRootError,
    ReconstructionError,
)
from .numkit import DEFAULT_TOL, as_matrix, as_vector, compound, rank
from .zonotope import Zonotope, signatures_match

ROOT_RESIDUAL_LIMIT = 1e-8


@dataclass(eq=False)
class FacetDatum:
    """Outward unit normal plus positive facet volume."""

    unit_normal: np.ndarray
    volume: float

    def __init__(self, unit_normal, volume, tol=DEFAULT_TOL):
        u = as_vector(unit_normal)
        if not tol.close(float(np.linalg.norm(u)), 1.0):
            raise ValueError("facet normal must have unit norm")
        if volume <= 0:
            raise ValueError("facet volume must be positive")
        self.unit_normal = u
        self.volume = float(volume)


@dataclass(eq=False)
class ExteriorRootResult:
    root: np.ndarray
    residual: float
    alternates: list = field(default_factory=list)
    column_signs: tuple = ()


@dataclass(eq=False)
class FacetCongruenceReport:
    combinatorial_match: bool
    facet_results: list
    all_facets_congruent: bool
    witness: Optional[congruence.CongruenceWitness]
    note: str = ""


@dataclass(eq=False)
class SignatureCongruenceReport:
    raw_equal: bool
    census_match: bool
    witness: Optional[congruence.CongruenceWitness]
    aligned_equal: bool
    note: str = ""


def resign_for_compound(b):
    """Entrywise (-1)^(n+i+j) re-signing linking the two minor conventions."""
    b = as_matrix(b)
    n = b.shape[0]
    d = (-1.0) ** np.arange(n)
    return ((-1.0) ** n) * np.outer(d, d) * b


def _root_for(bs, n, tol):
    """Solve minors(A) = bs; requires det(bs) > 0 when n is odd."""
    delta = float(np.linalg.det(bs))
    if n % 2 == 1 and delta < 0:
        return None
    power = 1.0 / (n - 1)
    t = np.sign(delta) * abs(delta) ** power if n % 2 == 0 else abs(delta) ** power
    d = (-1.0) ** np.arange(n)
    m = np.outer(d, d) * bs
    return t * np.linalg.inv(m.T)


def exterior_root(b, tol=DEFAULT_TOL, allow_column_flips=False):
    """Find A with minors(A) = b, the (n-1)-st exterior root.

    For odd n the compound determinant is an even power, so det(b) < 0 admits
    no real root; with ``allow_column_flips`` the 2^n column sign patterns of
    b are tried in lexicographic order and the applied signs are recorded in
    the result. The root is always verified before being returned; for odd n
    the negated root is an equally valid alternate.
    """
    b = as_matrix(b)
    n = b.shape[0]
    if b.shape[0] != b.shape[1]:
        raise DimensionError("exterior_root needs a square matrix")
    if n < 2:
        raise DimensionError("exterior_root needs n >= 2")
    if rank(b, tol) != n:
        raise DegeneracyError("exterior_root needs a nonsingular matrix")
    if allow_column_flips:
        patterns = itertools.product((1.0, -1.0), repeat=n)
    else:
        patterns = [(1.0,) * n]
    for signs in patterns:
        bs = b * np.asarray(signs)
        root = _root_for(bs, n, tol)
        if root is None:
            continue
        residual = float(np.linalg.norm(compound(root) - bs) / np.linalg.norm(bs))
        if residual <= ROOT_RESIDUAL_LIMIT:
            alternates = [-root] if n % 2 == 1 else []
            return ExteriorRootResult(root, residual, alternates, tuple(int(s) for s in signs))
        if not allow_column_flips:
            raise ReconstructionError(
                f"root verification failed with relative residual {residual:.3e}"
            )
    raise NoRealRootError(
        f"det = {np.linalg.det(b):.6g} with n = {n} odd: the compound determinant "
        "is an even power, so no real root exists for these column signs"
    )


def parallelotope_from_facets(data, tol=DEFAULT_TOL):
    """Defining matrix of the unique parallelotope with the given facet data.

    Takes exactly n (unit normal, volume) pairs with independent normals.
    The scaled normals are packed into a matrix, re-signed into the minor
    convention, and exterior-rooted; the result is verified by extracting the
    built parallelotope's facets and matching them back to the input.
    """
    data = list(data)
    if not data:
        raise DimensionError("no facet data given")
    n = data[0].unit_normal.size
    if len(data) != n:
        raise DimensionError(f"need exactly {n} facet data in dimension {n}")
    normals = np.column_stack([d.unit_normal for d in data])
    if rank(normals, tol) != n:
        raise DegeneracyError("facet normals must be linearly independent")
    b = normals * np.asarray([d.volume for d in data])
    target = resign_for_compound(b)
    result = exterior_root(target, tol, allow_column_flips=True)
    a = result.root
    _verify_facet_data(a, data, tol)
    return a


def _verify_facet_data(a, data, tol):
    z = Zonotope(a, tol)
    facets = z.geometric_facets()
    if len(facets) != 2 * len(data):
        raise ReconstructionError(
            f"expected {2 * len(data)} facets, reconstruction has {len(facets)}"
        )
    scale = max(d.volume for d in data)
    vcut = max(16.0 * tol.threshold(scale), 1e-9 * scale)
    ncut = max(16.0 * tol.threshold(1.0), 1e-9)
    for d in data:
        hits = [
            f
            for f in facets
            if min(
                np.abs(f.unit_normal - d.unit_normal).max(),
                np.abs(f.unit_normal + d.unit_normal).max(),
            )
            <= ncut
            and abs(f.volume - d.volume) <= vcut
        ]
        if len(hits) != 2:
            raise ReconstructionError(
                "reconstructed facets do not reproduce the requested data"
            )


def minkowski_balance(data):
    """Weighted normal sum; zero for facet data of a closed convex polytope."""
    data = list(data)
    if not data:
        return np.zeros(0)
    total = np.zeros(data[0].unit_normal.size)
    for d in data:
        total = total + d.volume * d.unit_normal
    return total


def facet_congruence_check(a, b, tol=DEFAULT_TOL):
    """Compare generating facets of two zonotopes pairwise by shape.

    Requires equal shapes and full rank. Facet column sets must coincide
    (combinatorial equivalence at the generator level); each shared facet is
    tested with same_shape, and when all pairs pass, a congruence witness for
    the whole zonotopes is searched to certify the conclusion.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError("facet_congruence_check needs equal shapes")
    n = a.shape[0]
    if rank(a, tol) != n or rank(b, tol) != n:
        raise DegeneracyError("facet_congruence_check needs rank-n matrices")
    za = Zonotope(a, tol)
    zb = Zonotope(b, tol)
    census_a = [f.columns for f in za.generating_faces(n - 1)]
    census_b = [f.columns for f in zb.generating_faces(n - 1)]
    if census_a != census_b:
        return FacetCongruenceReport(
            False, [], False, None, "generating-facet censuses differ"
        )
    results = []
    for cols in census_a:
        ok = congruence.same_shape(a[:, cols], b[:, cols], tol)
        results.append((cols, bool(ok)))
    all_ok = all(ok for _, ok in results)
    witness = None
    note = ""
    if all_ok:
        try:
            witness = congruence.congruent_zonotopes(a, b, tol)
        except CapacityError:
            note = "witness search skipped: generator count above the search cap"
        if witness is None and not note:
            note = "all facets congruent but no witness found"
    return FacetCongruenceReport(True, results, all_ok, witness, note)


def signature_congruence_check(z1, z2, tol=DEFAULT_TOL):
    """Compare facet signatures and certify congruence with a witness.

    Raw signatures compare normals in absolute coordinates; when the witness
    search succeeds, the aligned signature (z1 mapped through the witness) is
    compared against z2's as well.
    """
    if z1.rank != z2.rank:
        raise DimensionError("signature_congruence_check needs equal ranks")
    s1 = z1.facet_signature()
    s2 = z2.facet_signature()
    raw_equal = signatures_match(s1, s2, tol)
    c1 = sorted(len(f.columns) for f in z1.generating_faces(z1.rank - 1))
    c2 = sorted(len(f.columns) for f in z2.generating_faces(z2.rank - 1))
    census_match = c1 == c2 and z1.k == z2.k
    witness = None
    aligned_equal = False
    note = ""
    if z1.k == z2.k:
        try:
            witness = congruence.congruent_zonotopes(z1.matrix, z2.matrix, tol)
        except CapacityError:
            note = "witness search skipped: generator count above the search cap"
    else:
        note = "generator counts differ"
    if witness is not None:
        mapped = Zonotope(witness.apply(z1.matrix)[: z2.n, :], tol)
        aligned_equal = signatures_match(mapped.facet_signature(), s2, tol)
    return SignatureCongruenceReport(raw_equal, census_match, witness, aligned_equal, note)
