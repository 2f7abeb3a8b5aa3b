"""Congruence of zonotopes through their Gram ("shape") matrices.

Two defining matrices describe congruent zonotopes exactly when their Grams
agree after permuting columns and flipping column signs; the witness
(sigma, signs, Q) makes the isometry explicit as B = Q A Sigma J. The
decision compares Gram invariants first (sorted entries, then colour
refinement of the columns on labelled |G| entries), fixes every sign from
the strong entries of each connected component, and searches column
assignments only inside components of matching colours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError, DegeneracyError, DimensionError, NoWitnessError
from .numkit import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    gram,
    qr_decompose,
    rank,
)

SEARCH_LIMIT = 10


@dataclass(eq=False)
class CongruenceWitness:
    """Signed permutation plus orthonormal-column map realizing B = Q A Sigma J.

    ``sigma[i]`` is the source column of A placed at position i; ``signs[i]``
    scales it by +-1; ``q`` maps the rearranged A onto B.
    """

    sigma: tuple
    signs: tuple
    q: np.ndarray

    def apply(self, a):
        a = as_matrix(a)
        return self.q @ (a[:, list(self.sigma)] * np.asarray(self.signs, dtype=float))

    def residual(self, a, b):
        b = as_matrix(b)
        mapped = self.apply(a)
        if mapped.shape[0] > b.shape[0]:
            b = np.vstack([b, np.zeros((mapped.shape[0] - b.shape[0], b.shape[1]))])
        return float(np.linalg.norm(mapped - b))


@dataclass(eq=False)
class ConditionReport:
    """Truth values of the three comparison conditions plus derived witnesses."""

    c1: bool
    c2: bool
    c3: bool
    q1: Optional[np.ndarray]
    q2: Optional[np.ndarray]
    derivation_note: str


@dataclass(eq=False)
class SquareComparison:
    a2_eq_b2: bool
    gram_eq: bool
    rowgram_eq: bool
    shared_q: Optional[np.ndarray]


def same_shape(a, b, tol=DEFAULT_TOL):
    """Whether A^T A = B^T B entrywise within tolerance."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError("same_shape needs equal column counts")
    return tol.allclose(gram(a), gram(b))


def find_orthogonal(a, b, tol=DEFAULT_TOL):
    """Construct Q with orthonormal columns such that b = Q a.

    Requires same_shape(a, b) and a.rows <= b.rows. Q = U V^T from the thin
    SVD U S V^T of b a^T is the orthogonal Procrustes solution (Schoenemann,
    1966): it minimizes ||b - Q a|| over every Q with orthonormal columns,
    and the minimum depends only on the singular values, so no rank decision
    is made. On the complement of col(a), Q is whatever completion the SVD
    returns.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] > b.shape[0]:
        raise DimensionError("find_orthogonal requires a.rows <= b.rows")
    if not same_shape(a, b, tol):
        raise NoWitnessError("Gram matrices differ; no orthogonal map exists")
    u, _, vt = np.linalg.svd(b @ a.T, full_matrices=False)
    return u @ vt


def triangular_signs(r, s, tol=DEFAULT_TOL):
    """Recover the diagonal sign matrix J with r = J s, row by row.

    Both inputs must be nonsingular upper triangular with equal Grams; the
    sign of each diagonal ratio fixes the whole row, which is then verified.
    """
    r = as_matrix(r)
    s = as_matrix(s)
    if r.shape != s.shape or r.shape[0] != r.shape[1]:
        raise DimensionError("triangular_signs needs equal square shapes")
    k = r.shape[0]
    scale = max(np.abs(r).max(), np.abs(s).max())
    cut = tol.threshold(scale)
    for m, name in ((r, "r"), (s, "s")):
        if np.abs(np.tril(m, -1)).max(initial=0.0) > cut:
            raise DimensionError(f"{name} is not upper triangular")
        if np.abs(np.diag(m)).min() <= cut:
            raise DegeneracyError(f"{name} is singular")
    gr, gs = gram(r), gram(s)
    gcut = tol.threshold(max(np.abs(gr).max(), np.abs(gs).max()))
    bad = np.argwhere(np.abs(gr - gs) > gcut)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise NoWitnessError(f"r^T r != s^T s, first violated at entry ({i}, {j})")
    signs = np.empty(k)
    for i in range(k):
        signs[i] = 1.0 if r[i, i] * s[i, i] > 0 else -1.0
        row_diff = np.abs(r[i, i:] - signs[i] * s[i, i:])
        if row_diff.max() > cut:
            j = i + int(np.argmax(row_diff))
            raise NoWitnessError(f"row {i} is not a signed copy, first violated at entry ({i}, {j})")
    return signs


def congruent_zonotopes(a, b, tol=DEFAULT_TOL):
    """Search for a congruence witness (Sigma, J, Q) with B = Q A Sigma J.

    B^T B must equal A^T A after a signed permutation of the columns. The
    search runs from cheapest to dearest and returns None at the first step
    that fails:

    1. the sorted diagonals and the sorted |off-diagonal| entries of the two
       Grams must agree within the cut;
    2. the pooled |G| values of both Grams get integer labels by single
       linkage at gap > cut, so entries a witness could match share a label;
    3. colour refinement (1-WL) runs on both column sets together, on edges
       labelled by |G_ij| and by the switching-invariant triangle balance of
       the strong edges; the colour histograms must agree, and a column of B
       only takes a column of A of its own colour;
    4. strong entries (a nonzero label, so a value > cut) split the columns
       into components, which every witness maps onto components; walked in
       BFS order, each column after a component's root has a placed strong
       neighbour, which forces its sign;
    5. the components of B are placed in turn on unused components of A with
       the same colours, backtracking over components, columns of the same
       colour and root signs (the very first root keeps +1, since flipping
       every column changes nothing).

    Every placed column is checked against all columns placed before it,
    inside its component or not, exactly as a plain signed-permutation
    search would: a label-0 entry between components need not be near 0,
    since single linkage can chain label 0 far above the cut. A witness
    comes only from ``find_orthogonal`` and the residual check, run on each
    complete assignment; when they reject it the search backtracks.
    Capacity-bounded at k = 10 columns. A column whose squared length, a
    Gram diagonal entry, overflows raises ValueError.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError("congruent_zonotopes needs equal column counts")
    k = a.shape[1]
    if k > SEARCH_LIMIT:
        raise CapacityError(f"signed-permutation search capped at k = {SEARCH_LIMIT}")
    if a.shape[0] > b.shape[0]:
        b = np.vstack([b, np.zeros((a.shape[0] - b.shape[0], k))])
    with np.errstate(over="ignore"):
        ga, gb = gram(a), gram(b)
    top = max(np.abs(ga).max(), np.abs(gb).max())
    if not np.isfinite(top):
        name, g = ("A", ga) if np.isinf(ga.trace()) else ("B", gb)
        raise ValueError(f"the squared length of column {np.isinf(np.diag(g)).argmax()} of {name} overflows float64")
    cut = tol.threshold(top)
    upper = np.triu_indices(k, 1)
    for pa, pb in ((np.diag(ga), np.diag(gb)), (np.abs(ga[upper]), np.abs(gb[upper]))):
        if np.any(np.abs(np.sort(pa) - np.sort(pb)) > cut):
            return None
    la, lb = _joint_labels(ga, gb, cut)
    colours = _refine(la, lb, ga, gb)
    if colours is None:
        return None
    ca, cb = colours
    parts_a, parts_b = _components(la), _components(lb)
    perm = [0] * k
    sgn = [1.0] * k
    used = [False] * k
    taken = [False] * len(parts_a)
    placed = []

    def match(n):
        if n == len(parts_b):
            return _verify_assignment(a, b, perm, sgn, tol, cut)
        want = sorted(cb[i] for i in parts_b[n][0])
        for m, (cols, _) in enumerate(parts_a):
            if not taken[m] and sorted(ca[c] for c in cols) == want:
                taken[m] = True
                if (witness := place(n, sorted(cols), 0)) is not None:
                    return witness
                taken[m] = False
        return None

    def place(n, cols, pos):
        order, parent = parts_b[n]
        if pos == len(order):
            return match(n + 1)
        i, j = order[pos], parent[pos]
        for c in cols:
            if used[c] or ca[c] != cb[i] or abs(ga[c, c] - gb[i, i]) > cut:
                continue
            if j is not None:
                signs = (sgn[j] if (gb[i, j] > 0) == (ga[c, perm[j]] > 0) else -sgn[j],)
            else:
                signs = (1.0, -1.0) if placed else (1.0,)  # flipping every column changes nothing
            for s in signs:
                if any(abs(s * sgn[q] * ga[c, perm[q]] - gb[i, q]) > cut for q in placed):
                    continue
                used[c] = True
                perm[i], sgn[i] = c, s
                placed.append(i)
                if (witness := place(n, cols, pos + 1)) is not None:
                    return witness
                placed.pop()
                used[c] = False
        return None

    return match(0)


def _joint_labels(ga, gb, cut):
    """Integer labels of |G| entries: single-linkage clusters of the pooled values.

    The pool holds every |entry| of both Grams and 0; a new cluster starts
    wherever consecutive sorted values are more than ``cut`` apart. Values
    within ``cut`` of each other share a label, and label 0 is the cluster
    of 0, so a nonzero label marks a value above the cut.
    """
    pooled = np.sort(np.concatenate([[0.0], np.abs(ga).ravel(), np.abs(gb).ravel()]))
    starts = pooled[1:][np.diff(pooled) > cut]
    return tuple(np.searchsorted(starts, np.abs(g), side="right") for g in (ga, gb))


def _refine(la, lb, ga, gb):
    """Joint colour refinement of the columns of A and B, or None on a mismatch.

    A column starts with the label of its squared norm. Its next colour is
    its own colour with the sorted multiset of (neighbour colour, edge)
    pairs, where an edge codes the |G| label and, for strong entries, the sum
    of the signs of the triangles through it, which a column sign flip
    leaves unchanged. Colours are numbered over both sides at once, and the
    rounds stop when the partition stops splitting.
    """
    k = la.shape[0]
    others = ~np.eye(k, dtype=bool)
    edges = []
    for lab, g in ((la, ga), (lb, gb)):
        s = np.where(lab > 0, np.sign(g), 0.0)
        np.fill_diagonal(s, 0.0)
        balance = np.rint((s @ s) * s).astype(int)  # within [-k, k]
        edges.append((lab * (2 * k + 1) + balance + k)[others].reshape(k, k - 1))
    span = max(int(e.max(initial=0)) for e in edges) + 1
    colours = np.concatenate([np.diag(la), np.diag(lb)])
    count = len(set(colours.tolist()))
    while True:
        rows = []
        for c, e in ((colours[:k], edges[0]), (colours[k:], edges[1])):
            pairs = np.broadcast_to(c, (k, k))[others].reshape(k, k - 1) * span + e
            rows.append(np.column_stack([c, np.sort(pairs, axis=1)]))
        rows = np.vstack(rows)
        keys = [tuple(row) for row in rows.tolist()]
        palette = {key: n for n, key in enumerate(sorted(set(keys)))}
        colours = np.array([palette[key] for key in keys])
        if sorted(colours[:k].tolist()) != sorted(colours[k:].tolist()):
            return None
        if len(palette) == count:
            return colours[:k].tolist(), colours[k:].tolist()
        count = len(palette)


def _components(labels):
    """Components of the graph of nonzero off-diagonal labels.

    Each is (order, parent): its columns in BFS order from the lowest one,
    neighbours ascending, and each column's BFS parent (None for the root).
    """
    k = labels.shape[0]
    seen = [False] * k
    parts = []
    for root in range(k):
        if seen[root]:
            continue
        seen[root] = True
        order, parent = [root], [None]
        for i in order:
            for j in range(k):
                if j != i and not seen[j] and labels[i, j] > 0:
                    seen[j] = True
                    order.append(j)
                    parent.append(i)
        parts.append((order, parent))
    return parts


def _verify_assignment(a, b, perm, sgn, tol, cut):
    """The witness of one signed assignment, or None: Q is built and accepted on a small residual.

    Q is the Procrustes map of ``find_orthogonal``, so the residual is the
    smallest any Q with orthonormal columns gives, and negating every sign
    (which maps Q to -Q) leaves it unchanged. The Gram check inside uses the
    search cut as its absolute part, as the pairwise checks did.
    """
    signs = np.asarray(sgn, dtype=float)
    mapped = a[:, perm] * signs
    try:
        q = find_orthogonal(mapped, b, Tolerance(abs=max(cut, tol.abs), rel=tol.rel))
    except NoWitnessError:
        return None
    if np.linalg.norm(b - q @ mapped) > max(1e-8 * np.linalg.norm(b), 1e-12):
        return None
    return CongruenceWitness(tuple(perm), tuple(int(s) for s in signs), q)


def _comparison_factor(m, tol):
    """Upper-triangular factor used by the comparison condition.

    An already upper-triangular matrix factors trivially as I times itself;
    anything else goes through sign-normalized QR.
    """
    m = as_matrix(m)
    cut = tol.threshold(np.abs(m).max())
    if m.shape[0] == m.shape[1] and np.abs(np.tril(m, -1)).max(initial=0.0) <= cut:
        return m
    return qr_decompose(m, tol)[1]


def verify_condition3(a, b, q1, q2, tol=DEFAULT_TOL):
    """Test the comparison condition A Q1 R = B Q2 S for supplied Q1, Q2.

    R and S are the triangular factors of a and b; existence of (Q1, Q2) is
    not searched for, only the supplied witnesses are checked.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    k = a.shape[1]
    if b.shape[1] != k:
        raise DimensionError("verify_condition3 needs equal column counts")
    for q in (q1, q2):
        q = as_matrix(q)
        if q.shape != (k, k) or not tol.allclose(q.T @ q, np.eye(k)):
            raise DimensionError("q1 and q2 must be k x k orthogonal")
    if rank(a, tol) != k or rank(b, tol) != k:
        raise DegeneracyError("verify_condition3 needs full column rank")
    r = _comparison_factor(a, tol)
    s = _comparison_factor(b, tol)
    return tol.allclose(a @ as_matrix(q1) @ r, b @ as_matrix(q2) @ s)


def check_conditions(a, b, tol=DEFAULT_TOL):
    """Evaluate the three comparison conditions between equal-shape matrices.

    (1) equal Grams, (2) equal row Grams; when both hold, witnesses Q1 (from
    the triangular factors) and Q2 (from the row Grams) are constructed and
    condition (3) A Q1 R = B Q2 S is verified explicitly.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError("check_conditions needs equal shapes")
    k = a.shape[1]
    if rank(a, tol) != k or rank(b, tol) != k:
        raise DegeneracyError("check_conditions needs independent columns")
    c1 = tol.allclose(gram(a), gram(b))
    c2 = tol.allclose(a @ a.T, b @ b.T)
    if not (c1 and c2):
        return ConditionReport(
            c1,
            c2,
            False,
            None,
            None,
            "condition (3) is only derived when (1) and (2) both hold; "
            "supply explicit witnesses to verify_condition3 otherwise",
        )
    r = _comparison_factor(a, tol)
    s = _comparison_factor(b, tol)
    q1 = find_orthogonal(r, s, tol)  # s = q1 r
    q2 = find_orthogonal(a.T, b.T, tol)  # b^T = q2 a^T
    ok = tol.allclose(a @ q1 @ r, b @ q2 @ s)
    return ConditionReport(
        c1,
        c2,
        bool(ok),
        q1,
        q2,
        "Q1 maps the triangular factor of A onto that of B; Q2 comes from the row Grams",
    )


def square_comparison(a, b, tol=DEFAULT_TOL):
    """Compare square nonsingular matrices: A^2 = B^2, both Grams, shared Q.

    When all three equalities hold, the single orthogonal Q = B A^-1 realizes
    both B = Q A and B^T = Q A^T and is returned.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError("square_comparison needs equal square shapes")
    n = a.shape[0]
    if rank(a, tol) != n or rank(b, tol) != n:
        raise DegeneracyError("square_comparison needs nonsingular inputs")
    a2_eq_b2 = tol.allclose(a @ a, b @ b)
    gram_eq = tol.allclose(gram(a), gram(b))
    rowgram_eq = tol.allclose(a @ a.T, b @ b.T)
    shared = None
    if a2_eq_b2 and gram_eq and rowgram_eq:
        q = b @ np.linalg.inv(a)
        if (
            tol.allclose(q.T @ q, np.eye(n))
            and tol.allclose(q @ a, b)
            and tol.allclose(q @ a.T, b.T)
        ):
            shared = q
    return SquareComparison(a2_eq_b2, gram_eq, rowgram_eq, shared)
