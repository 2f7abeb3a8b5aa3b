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

# Bytes of rows per run of every stacked pass (:func:`chunks`): bounds the
# temporaries of wide inputs without splitting desk-scale ones much.
CHUNK_BYTES = 1 << 19


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


def _checked(x, ndims, shape, entries):
    """Float64 copy of ``x``: DimensionError unless its ndim is in ``ndims``, ValueError on a NaN/Inf entry."""
    a = np.array(x, dtype=float)
    if a.ndim not in ndims:
        raise DimensionError(f"expected {shape}, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{entries} entries must be finite")
    return a


def as_matrix(m):
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    return _checked(m, (2,), "a 2-D matrix", "matrix")


def as_vector(v):
    """Coerce to a 1-D float64 array, rejecting NaN/Inf entries."""
    return _checked(v, (1,), "a 1-D vector", "vector")


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
    a = as_matrix(m)
    if a.size == 0:
        return 0
    cut = tol.threshold(np.abs(a).max())
    last = min(a.shape) - 1
    for r in range(last):
        sub = np.abs(a[r:, r:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, sub.shape[1])
        if sub[i, j] <= cut:
            return r
        if i:
            a[[r, r + i], :] = a[[r + i, r], :]
        if j:
            a[:, [r, r + j]] = a[:, [r + j, r]]
        pivot = a[r, r]
        a[r + 1:, r:] -= np.outer(a[r + 1:, r] / pivot, a[r, r:])
    # the last step reads only its pivot against the cut; its swaps and update go unused
    return last + int(np.abs(a[last:, last:]).max() > cut)


def rank_batch(stack, tol=DEFAULT_TOL):
    """Numerical rank of every slice of a (B, m, p) stack, as an int array.

    Slice b gets exactly ``rank(stack[b], tol)``: the same cut from the
    slice's own largest entry, the same complete pivoting with the first
    maximum winning ties, and the same swaps and updates, step by step, for
    all slices at once. A slice leaves the stack at its first pivot under the
    cut, so no division by a small pivot happens.
    """
    a = _checked(stack, (3,), "a (B, m, p) stack", "matrix")
    ranks = np.zeros(a.shape[0], dtype=int)
    if a.size == 0:
        return ranks
    cut = tol.threshold(np.abs(a).max(axis=(1, 2)))
    live = np.arange(a.shape[0])
    _, rows, cols = a.shape
    last = min(rows, cols) - 1
    for r in range(last):
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
    else:
        # the last step reads only each pivot against the cut, as rank does
        ranks[live] += np.abs(a[:, last:, last:]).max(axis=(1, 2)) > cut
    return ranks


def unit_columns(m):
    """Columns scaled to unit length (zero columns stay zero); ValueError names a column whose length overflows."""
    a = as_matrix(m)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=0)
    if not np.isfinite(norms).all():
        raise ValueError(f"the length of column {np.argmin(np.isfinite(norms))} overflows float64")
    return a / np.where(norms > 0.0, norms, 1.0)


def column_subsets(m, subsets):
    """(B, n, s) stack whose slice b is ``m[:, subsets[b]]`` (C-contiguous)."""
    a = as_matrix(m)
    idx = np.asarray(subsets, dtype=int)
    return np.ascontiguousarray(a[:, idx].transpose(1, 0, 2))


def subsets(k, size):
    """(C(k, size), size) array of the ``size``-subsets of range(k), in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), size))
    return np.fromiter(flat, dtype=int).reshape(math.comb(k, size), size)


def subset_index(rows, k):
    """Place of each sorted row of ``rows`` among the :func:`subsets` of range(k) of its size.

    Reflecting every column c to k - 1 - c turns lexicographic order into
    reverse colexicographic order, so the place of c_0 < ... < c_(s-1) is
    C(k, s) - 1 minus the colexicographic index of the reflected row, the
    sum of C(k - 1 - c_i, s - i).
    """
    idx = np.asarray(rows, dtype=int)
    s = idx.shape[-1]
    binom = np.array([[math.comb(a, b) for b in range(s + 1)] for a in range(k)], dtype=int).reshape(k, s + 1)
    return math.comb(k, s) - 1 - binom[k - 1 - idx, s - np.arange(s)].sum(axis=-1)


def chunks(count, row_bytes):
    """Index runs covering ``range(count)``, each of about CHUNK_BYTES of rows of ``row_bytes``."""
    step = max(1, CHUNK_BYTES // max(row_bytes, 1))
    return [np.arange(start, min(start + step, count)) for start in range(0, count, step)]


def within(a, b, cut):
    """(len(a), len(b)) booleans, in runs of :func:`chunks`: is a_i - b_j at most ``cut`` in every coordinate."""
    return np.concatenate([np.abs(a[rows, None] - b).max(axis=2) <= cut for rows in chunks(len(a), 8 * b.size)])


def subset_ranks(m, tables, tol=DEFAULT_TOL):
    """Rank of ``m[:, row]`` for every row of every (B, s) subset table, one int array per table.

    All tables are ranked by one stacked :func:`rank_batch` per run of
    :func:`chunks`: each n x s slice is zero-padded on the right to the
    widest size. That leaves its rank exact. Zero columns change neither the
    slice's largest entry (the cut) nor the row-major order of its real
    entries, so they never win a pivot that passes the cut, and they leave
    every update x - (c/p)x' of a real entry unchanged; once the s real
    columns are eliminated only zeros remain, so the slice stops where the
    unpadded one does. A slice's rank does not depend on the slices beside it.
    """
    a = as_matrix(m)
    width = max(t.shape[1] for t in tables)
    # column k of the padded matrix is zero; every row is filled up with it
    padded = np.concatenate([a, np.zeros((a.shape[0], 1))], axis=1)
    ends = np.cumsum([len(t) for t in tables])
    idx = np.full((ends[-1], width), a.shape[1])
    for table, end in zip(tables, ends.tolist()):
        idx[end - len(table):end, :table.shape[1]] = table
    ranks = np.zeros(len(idx), dtype=int)
    for rows in chunks(len(idx), 8 * a.shape[0] * width):
        ranks[rows] = rank_batch(column_subsets(padded, idx[rows]), tol)
    return np.split(ranks, ends[:-1])


def column_sums(m, columns, mask):
    """(R, n) array whose row i is ``m[:, columns[i][mask[i]]].sum(axis=1)``.

    ``columns`` broadcasts against the (R, p) boolean ``mask``. numpy adds
    fewer than 8 terms one after another from +0.0, so rows with 1 to 7
    chosen columns are one cumulative sum over the mask's columns in order,
    -0.0 standing for the unchosen ones (x + -0.0 is x), plus 0.0. Longer
    rows with equally many chosen columns are summed together along the last
    axis, which numpy adds in the same order as it adds one row's columns
    alone. Every row is bit-identical to the one-row sum; empty rows give zero.
    """
    a = as_matrix(m)
    mask = np.asarray(mask, dtype=bool)
    columns = np.broadcast_to(columns, mask.shape)
    lengths = mask.sum(axis=1)
    sums = np.zeros((len(mask), a.shape[0]))
    rows = np.flatnonzero((lengths > 0) & (lengths < 8))
    if rows.size:
        terms = np.where(mask[rows], a[:, columns[rows]], -0.0)
        sums[rows] = terms.cumsum(axis=2)[:, :, -1].T + 0.0
    for length in np.unique(lengths[lengths >= 8]).tolist():
        rows = np.flatnonzero(lengths == length)
        # a boolean mask reads row by row, so each row keeps its columns' order
        chosen = columns[rows][mask[rows]].reshape(len(rows), length)
        sums[rows] = a[:, chosen].sum(axis=2).T
    return sums


def cross_product(vectors):
    """Generalized cross product of n-1 vectors in R^n, or of each column set of an (F, n, n-1) array.

    Component i is (-1)^i times the minor of the n x (n-1) stack obtained by
    deleting row i (0-based). The output is orthogonal to every input and its
    norm is the (n-1)-volume of the parallelotope the inputs span. An array
    gives one row per column set, its minors stacked in runs of
    :func:`chunks`; each row is bit-identical to the call on that set alone.
    """
    stacked = isinstance(vectors, np.ndarray) and vectors.ndim == 3
    vs = [] if stacked else [as_vector(v) for v in vectors]
    if not (stacked or vs):
        raise DimensionError("cross_product needs at least one vector")
    _, n, count = vectors.shape if stacked else (1, vs[0].size, len(vs))
    if n < 2 or count != n - 1:
        raise DimensionError(f"need exactly n-1 vectors of dimension n >= 2, got {count} in dim {n}")
    if any(v.size != n for v in vs):
        raise DimensionError("cross_product inputs must share one dimension")
    stack = _checked(vectors, (3,), "an (F, n, n-1) stack", "vector") if stacked else np.column_stack(vs)[None]
    # C-ordered rows, which later BLAS dots read contiguously
    normals = np.empty(stack.shape[:2])
    for rows in chunks(len(stack), 8 * n * (n - 1) ** 2):
        normals[rows] = np.linalg.det(stack[rows][:, omit_each(n)])
    np.negative(normals[:, 1::2], out=normals[:, 1::2])
    return normals if stacked else normals[0]


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


def omit_each(n):
    """(n, n - 1) array whose row i is range(n) without i: it stacks the minors deleting one row or column.

    ``np.linalg.det`` factors every slice of a stack on its own, so a stacked minor is its one-matrix value.
    """
    return (np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])).reshape(n, max(n - 1, 0))


def compound(m):
    """Matrix of (n-1) x (n-1) minors: entry (i,j) omits row i and column j; one stacked determinant."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"compound needs a square matrix, got {a.shape}")
    others = omit_each(a.shape[0])
    return np.linalg.det(a[others[:, None, :, None], others[None, :, None, :]])


def resign_for_compound(b):
    """Entrywise (-1)^(n+i+j) re-signing linking the two minor conventions."""
    return _resign(as_matrix(b))


def _resign(b):
    """``b`` with entry (i, j) negated where n + i + j is odd (an overflowed minor stays infinite)."""
    n = b.shape[0]
    parity = (n + np.arange(n)[:, None] + np.arange(n)) % 2
    return np.where(parity == 1, -b, b)


def signed_compound(m):
    """Sign-alternating minor matrix: entry (i,j) = (-1)^(n+i+j) * minor(i,j), ``resign_for_compound(compound(m))``.

    Equals (-1)^n times the cofactor matrix. Column j is, up to the sign
    (-1)^(n+j+1), the cross product of the columns of m with column j omitted,
    so its columns carry facet normals and facet volumes of the parallelotope
    on m's columns.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"signed_compound needs a square matrix, got {a.shape}")
    return _resign(compound(a))


def subset_measures(m, subsets):
    """Determinant of ``m[:, s]`` for each row s of ``subsets``, as an array.

    Square subsets give their determinant; smaller ones the square root of
    their Gram determinant. Each run of :func:`chunks` is one stacked
    ``np.linalg.det``, which factors every slice on its own, so a value does
    not depend on the rows beside it.
    """
    a = as_matrix(m)
    idx = np.asarray(subsets, dtype=int)
    if idx.ndim != 2 or idx.shape[1] > a.shape[0]:
        raise DimensionError(f"expected (B, size) subsets with size <= {a.shape[0]}, got shape {idx.shape}")
    values = np.empty(len(idx))
    for rows in chunks(len(idx), 8 * a.shape[0] * idx.shape[1]):
        stack = column_subsets(a, idx[rows])
        if idx.shape[1] == a.shape[0]:
            values[rows] = np.linalg.det(stack)
        else:
            gram_dets = np.linalg.det(np.swapaxes(stack, 1, 2) @ stack)
            values[rows] = np.sqrt(np.maximum(gram_dets, 0.0))
    return values


def sign_normalize(v, tol=DEFAULT_TOL):
    """Flip v so its first coordinate of significant magnitude is positive.

    A 2-D ``v`` is a stack of rows, each normalized on its own with the cut
    taken from its own largest entry.
    """
    a = _checked(v, (1, 2), "a vector or a stack of rows", "vector")
    if not a.size:
        return a
    rows = a.reshape(-1, a.shape[-1])
    big = np.abs(rows) > tol.threshold(np.abs(rows).max(axis=1))[:, None]
    lead = rows[np.arange(len(rows)), big.argmax(axis=1)]
    flip = big.any(axis=1) & (lead < 0.0)
    return np.where(flip[:, None], -rows, rows).reshape(a.shape)
