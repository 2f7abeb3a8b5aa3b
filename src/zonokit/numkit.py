"""Dense real linear algebra primitives used by every other module.

Matrices and vectors are plain float64 numpy arrays; ``as_matrix`` and
``as_vector`` are the validating constructors (finite entries only).
All equality decisions go through :class:`Tolerance`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError

# Subsets per stacked call in subset_determinants and in the face closures:
# bounds the temporary stacks of wide inputs without splitting desk-scale ones.
SUBSET_BATCH = 8192


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative comparison thresholds.

    Two scalars x, y are "equal" iff |x - y| <= abs + rel * max(|x|, |y|).
    """

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        # a NaN cutoff makes every comparison false and an infinite one makes all values equal
        if not all(math.isfinite(t) and t >= 0 for t in (self.abs, self.rel)):
            raise ValueError(f"tolerances must be finite and nonnegative, got abs={self.abs}, rel={self.rel}")

    def close(self, x, y):
        return abs(x - y) <= self.abs + self.rel * max(abs(x), abs(y))

    def allclose(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return False
        bound = self.abs + self.rel * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))

    def threshold(self, scale):
        """Decision threshold for values whose natural magnitude is ``scale``."""
        return self.abs + self.rel * abs(scale)


DEFAULT_TOL = Tolerance()


def as_matrix(m):
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v):
    """Coerce to a 1-D float64 array, rejecting NaN/Inf entries."""
    a = np.array(v, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def determinant(m):
    """Determinant of a square matrix (LU with partial pivoting)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"determinant needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(a))


def rank(m, tol=DEFAULT_TOL):
    """Numerical rank by elimination with complete pivoting.

    A pivot counts iff |pivot| > tol.abs + tol.rel * (largest |entry| of the
    input); the threshold is fixed at elimination start for reproducibility.
    """
    a = as_matrix(m).copy()
    if a.size == 0:
        return 0
    cut = tol.threshold(np.abs(a).max())
    rows, cols = a.shape
    r = 0
    while r < min(rows, cols):
        sub = np.abs(a[r:, r:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, sub.shape[1])
        if sub[i, j] <= cut:
            break
        if i:
            a[[r, r + i], :] = a[[r + i, r], :]
        if j:
            a[:, [r, r + j]] = a[:, [r + j, r]]
        pivot = a[r, r]
        a[r + 1:, r:] -= np.outer(a[r + 1:, r] / pivot, a[r, r:])
        r += 1
    return r


def rank_batch(stack, tol=DEFAULT_TOL):
    """Numerical rank of every slice of a (B, m, p) stack, as an int array.

    Slice b gets exactly ``rank(stack[b], tol)``: the same cut from the
    slice's own largest entry, the same complete pivoting with the first
    maximum winning ties, and the same swaps and updates, step by step, for
    all slices at once. A slice leaves the stack at its first pivot under the
    cut, so no division by a small pivot happens.
    """
    a = np.array(stack, dtype=float)
    if a.ndim != 3:
        raise DimensionError(f"expected a (B, m, p) stack, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    ranks = np.zeros(a.shape[0], dtype=int)
    if a.size == 0:
        return ranks
    cut = tol.threshold(np.abs(a).max(axis=(1, 2)))
    live = np.arange(a.shape[0])
    _, rows, cols = a.shape
    for r in range(min(rows, cols)):
        sub = np.abs(a[:, r:, r:]).reshape(live.size, -1)
        flat = sub.argmax(axis=1)
        at = np.arange(live.size)
        stop = sub[at, flat] <= cut
        if stop.any():
            keep = ~stop
            live, a, cut, flat = live[keep], a[keep], cut[keep], flat[keep]
            if not live.size:
                break
            at = np.arange(live.size)
        i, j = np.divmod(flat, cols - r)
        a[at, r], a[at, r + i] = a[at, r + i], a[at, r]
        a[at, :, r], a[at, :, r + j] = a[at, :, r + j], a[at, :, r]
        pivot = a[:, r, r]
        a[:, r + 1:, r:] -= (a[:, r + 1:, r] / pivot[:, None])[:, :, None] * a[:, None, r, r:]
        ranks[live] += 1
    return ranks


def column_subsets(m, subsets):
    """(B, n, s) stack whose slice b is ``m[:, subsets[b]]`` (C-contiguous)."""
    a = as_matrix(m)
    idx = np.asarray(subsets, dtype=int)
    return np.ascontiguousarray(a[:, idx].transpose(1, 0, 2))


def cross_product(vectors):
    """Generalized cross product of n-1 vectors in R^n.

    Component i is (-1)^i times the minor of the n x (n-1) stack obtained by
    deleting row i (0-based). The output is orthogonal to every input and its
    norm is the (n-1)-volume of the parallelotope the inputs span.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise DimensionError("cross_product needs at least one vector")
    n = vs[0].size
    if n < 2 or len(vs) != n - 1:
        raise DimensionError(f"need exactly n-1 vectors of dimension n >= 2, got {len(vs)} in dim {n}")
    if any(v.size != n for v in vs):
        raise DimensionError("cross_product inputs must share one dimension")
    stack = np.column_stack(vs)
    keep = np.ones(n, dtype=bool)
    out = np.empty(n)
    for i in range(n):
        keep[i] = False
        out[i] = (-1.0) ** i * np.linalg.det(stack[keep, :])
        keep[i] = True
    return out


def gram(m):
    """Gram matrix m^T m (symmetric positive semidefinite, cols x cols)."""
    a = as_matrix(m)
    return a.T @ a


def qr_decompose(m, tol=DEFAULT_TOL):
    """QR factorization with the diagonal of R strictly positive.

    Requires full column rank; the sign normalization makes the factorization
    unique, so equal-Gram inputs get identical R factors.
    """
    a = as_matrix(m)
    n, k = a.shape
    if rank(a, tol) != k:
        raise DegeneracyError("qr_decompose requires independent columns")
    q, r = np.linalg.qr(a)
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * flip, flip[:, None] * r


def _minor_matrix(a, signed):
    n = a.shape[0]
    out = np.empty((n, n))
    keep_r = np.ones(n, dtype=bool)
    keep_c = np.ones(n, dtype=bool)
    for i in range(n):
        keep_r[i] = False
        for j in range(n):
            keep_c[j] = False
            minor = np.linalg.det(a[np.ix_(keep_r, keep_c)]) if n > 1 else 1.0
            out[i, j] = (-1.0) ** (n + i + j) * minor if signed else minor
            keep_c[j] = True
        keep_r[i] = True
    return out


def compound(m):
    """Matrix of (n-1) x (n-1) minors: entry (i,j) omits row i and column j."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"compound needs a square matrix, got {a.shape}")
    return _minor_matrix(a, signed=False)


def signed_compound(m):
    """Sign-alternating minor matrix: entry (i,j) = (-1)^(n+i+j) * minor(i,j).

    Equals (-1)^n times the cofactor matrix. Column j is, up to the sign
    (-1)^(n+j+1), the cross product of the columns of m with column j omitted,
    so its columns carry facet normals and facet volumes of the parallelotope
    on m's columns.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"signed_compound needs a square matrix, got {a.shape}")
    return _minor_matrix(a, signed=True)


def subset_determinants(m, size):
    """|det| of every ``size``-column submatrix, in lexicographic subset order.

    Yields (subset_tuple, det_value) pairs; subsets index columns 0-based.
    Square subsets give their determinant; smaller ones the square root of
    their Gram determinant. Each run of up to ``SUBSET_BATCH`` subsets is one
    stacked ``np.linalg.det``.
    """
    a = as_matrix(m)
    if size > a.shape[0]:
        raise DimensionError("subset size exceeds row count")
    combos = itertools.combinations(range(a.shape[1]), size)
    while batch := list(itertools.islice(combos, SUBSET_BATCH)):
        stack = column_subsets(a, np.reshape(batch, (len(batch), size)))
        if size == a.shape[0]:
            values = np.linalg.det(stack)
        else:
            values = np.sqrt(np.maximum(np.linalg.det(np.swapaxes(stack, 1, 2) @ stack), 0.0))
        yield from zip(batch, values.tolist())


def independent_columns(m, tol=DEFAULT_TOL):
    """Greedy left-to-right maximal independent column subset (0-based indices)."""
    a = as_matrix(m)
    picked = []
    for j in range(a.shape[1]):
        trial = picked + [j]
        if rank(a[:, trial], tol) == len(trial):
            picked.append(j)
    return picked


def orthonormal_complement(q):
    """Orthonormal basis of the orthogonal complement of col(q) in its ambient space.

    ``q`` must have orthonormal columns; returns an n x (n-k) matrix, chosen
    deterministically via a full QR extension.
    """
    q = as_matrix(q)
    n, k = q.shape
    if k == 0:
        return np.eye(n)
    if k >= n:
        return np.zeros((n, 0))
    full, _ = np.linalg.qr(q, mode="complete")
    comp = full[:, k:]
    # full QR may flip the leading block's orientation; re-orthogonalize against q
    comp = comp - q @ (q.T @ comp)
    comp, _ = np.linalg.qr(comp)
    return comp


def sign_normalize(v, tol=DEFAULT_TOL):
    """Flip v so its first coordinate of significant magnitude is positive."""
    v = as_vector(v)
    cut = tol.threshold(np.abs(v).max() if v.size else 0.0)
    for x in v:
        if abs(x) > cut:
            return -v if x < 0 else v.copy()
    return v.copy()
