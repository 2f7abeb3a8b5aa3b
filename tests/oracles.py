"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own computational paths:
exact rational arithmetic via fractions.Fraction, scipy's qhull wrapper for
hulls, direct support-function enumeration for facets, and hand-rolled
classical Gram-Schmidt. Keep it slow and obvious.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull


def _frac_rows(m):
    return [[Fraction(x) for x in row] for row in np.asarray(m, dtype=float).tolist()]


def exact_pivots(m):
    """Pivots of exact Gaussian elimination with partial pivoting (Fractions)."""
    a = _frac_rows(m)
    n = len(a)
    pivots = []
    for col in range(n):
        pick = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pick][col] == 0:
            return pivots + [Fraction(0)] * (n - col)
        a[col], a[pick] = a[pick], a[col]
        pivots.append(a[col][col])
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [a[r][c] - factor * a[col][c] for c in range(n)]
    return pivots


def exact_det(m):
    """Exact determinant by cofactor expansion over Fractions."""
    a = _frac_rows(m)

    def cof(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = Fraction(0)
        for pos, c in enumerate(cols):
            sub = cof(rows[1:], cols[:pos] + cols[pos + 1 :])
            total += (-1) ** pos * rows[0][c] * sub
        return total

    n = len(a)
    if n == 0:
        return Fraction(1)
    return cof(a, list(range(n)))


def exact_rank(m):
    """Exact rank over Fractions by elimination."""
    a = _frac_rows(m)
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        pick = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        for i in range(r + 1, rows):
            factor = a[i][col] / a[r][col]
            a[i] = [a[i][c] - factor * a[r][c] for c in range(cols)]
        r += 1
        if r == rows:
            break
    return r


def exact_cross(vectors):
    """Generalized cross product by direct minor expansion over Fractions."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    n = vs[0].size
    stack = [[Fraction(v[i]) for v in vs] for i in range(n)]
    out = []
    for i in range(n):
        rows = [stack[r] for r in range(n) if r != i]
        out.append((-1) ** i * exact_det(rows))
    return out


def minor_sum_volume(m, size):
    """Exact sum of |det| over all ``size``-column subsets (full-rank case)."""
    a = np.asarray(m, dtype=float)
    total = Fraction(0)
    for combo in combinations(range(a.shape[1]), size):
        total += abs(exact_det(a[:, combo]))
    return total


def shoelace_area(vertices):
    """Polygon area for a ccw vertex cycle."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def hull_vertex_set(points, decimals=9):
    """Vertices of the convex hull of a point cloud, as a set of tuples.

    Rank-deficient clouds are projected onto their affine span first.
    """
    pts = np.asarray(points, dtype=float)
    pts = np.unique(np.round(pts, decimals), axis=0)
    base = pts[0]
    deltas = pts - base
    u, s, vt = np.linalg.svd(deltas, full_matrices=False)
    dim = int(np.sum(s > 1e-9 * max(s.max(), 1.0))) if s.size else 0
    if dim == 0:
        return {tuple(base)}
    if dim == 1:
        axis = vt[0]
        coords = deltas @ axis
        return {tuple(pts[int(np.argmin(coords))]), tuple(pts[int(np.argmax(coords))])}
    proj = deltas @ vt[:dim].T
    hull = ConvexHull(proj)
    return {tuple(np.round(pts[i], decimals)) for i in hull.vertices}


def support_function(matrix, u):
    """h(u) = sum of positive generator projections (zonotope anchored at 0)."""
    proj = np.asarray(matrix, dtype=float).T @ np.asarray(u, dtype=float)
    return float(np.sum(proj[proj > 0]))


def support_facets(matrix, tol=1e-9):
    """Brute-force facet enumeration via the support function.

    Candidate normals come from cross products of independent (n-1)-subsets
    of generators (both orientations); a direction is a facet normal exactly
    when the generators orthogonal to it span a rank-(n-1) set. Returns a
    list of (unit normal, support, facet volume) triples, deduplicated.
    """
    a = np.asarray(matrix, dtype=float)
    n, k = a.shape
    candidates = []
    for combo in combinations(range(k), n - 1):
        cross = np.array([float(x) for x in exact_cross([a[:, j] for j in combo])])
        norm = np.linalg.norm(cross)
        if norm <= tol:
            continue
        u = cross / norm
        candidates.extend([u, -u])
    facets = []
    for u in candidates:
        if any(np.abs(u - v).max() <= 1e-7 for v, _, _ in facets):
            continue
        zero = [j for j in range(k) if abs(float(a[:, j] @ u)) <= 1e-9 * max(1.0, np.abs(a).max())]
        if not zero or exact_rank(a[:, zero]) != n - 1:
            continue
        vol = Fraction(0)
        for sub in combinations(zero, n - 1):
            g = a[:, sub]
            vol += _sqrt_float(exact_det((g.T @ g)))
        facets.append((u, support_function(a, u), float(vol)))
    return facets


def _sqrt_float(frac):
    return Fraction(float(np.sqrt(float(frac))))


def classical_gram_schmidt_qr(m):
    """Textbook Gram-Schmidt QR with positive-diagonal normalization."""
    a = np.asarray(m, dtype=float)
    n, k = a.shape
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    for j in range(k):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = float(q[:, i] @ a[:, j])
            v -= r[i, j] * q[:, i]
        # second re-orthogonalization pass for numerical hygiene
        for i in range(j):
            c = float(q[:, i] @ v)
            r[i, j] += c
            v -= c * q[:, i]
        r[j, j] = float(np.linalg.norm(v))
        q[:, j] = v / r[j, j]
    return q, r


def mc_volume_estimate(matrix, facets, samples, seed):
    """Monte Carlo membership volume using an oracle-supplied facet H-rep."""
    a = np.asarray(matrix, dtype=float)
    lo = np.minimum(a, 0.0).sum(axis=1)
    hi = np.maximum(a, 0.0).sum(axis=1)
    box = float(np.prod(hi - lo))
    normals = np.array([u for u, _, _ in facets])
    offsets = np.array([h for _, h, _ in facets])
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1_000_000)
        pts = rng.uniform(lo, hi, size=(chunk, a.shape[0]))
        hits += int(np.all(pts @ normals.T <= offsets + 1e-9, axis=1).sum())
        remaining -= chunk
    return box * hits / samples


def random_orthogonal(rng, n):
    """Haar-ish random orthogonal matrix via QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_signed_permutation(rng, k):
    """Random (sigma, signs) pair: sigma[i] is the source column at position i."""
    sigma = rng.permutation(k)
    signs = rng.choice([-1.0, 1.0], size=k)
    return sigma, signs


def backtrack_congruent(a, b, tol):
    """Signed-permutation backtracking congruence search, kept as a reference.

    Branches over column assignments ordered by descending norm and over
    column signs, pruning only on generator norms and pairwise inner
    products; every complete assignment goes through the package's own
    witness verification. Exponential in k: use only for small inputs.
    """
    from zonokit.congruence import _verify_assignment
    from zonokit.numkit import as_matrix, gram

    a = as_matrix(a)
    b = as_matrix(b)
    k = a.shape[1]
    if a.shape[0] > b.shape[0]:
        b = np.vstack([b, np.zeros((a.shape[0] - b.shape[0], k))])
    ga, gb = gram(a), gram(b)
    cut = tol.threshold(max(np.abs(ga).max(), np.abs(gb).max()))

    def profile(g, i):
        return tuple(sorted(round(abs(g[i, j]), 9) for j in range(k) if j != i))

    order = sorted(range(k), key=lambda i: (-gb[i, i], profile(gb, i)))
    perm = [0] * k
    sgn = [0.0] * k
    used = [False] * k
    found = {}

    def extend(pos):
        if pos == k:
            return _verify_assignment(a, b, perm, sgn, tol, cut, found)
        i = order[pos]
        for c in range(k):
            if used[c] or abs(ga[c, c] - gb[i, i]) > cut:
                continue
            for s in ((1.0,) if pos == 0 else (1.0, -1.0)):
                ok = True
                for prev in range(pos):
                    j = order[prev]
                    if abs(s * sgn[j] * ga[c, perm[j]] - gb[i, j]) > cut:
                        ok = False
                        break
                if not ok:
                    continue
                used[c] = True
                perm[i], sgn[i] = c, s
                if extend(pos + 1):
                    return True
                used[c] = False
        return False

    if extend(0):
        return found["witness"]
    return None


# -- loop references for the stacked face, facet and tiling passes -----------
#
# One numkit.rank, cross_product or np.linalg.det call per subset, face or
# tile, as the package computed them before it stacked them; the stacked code
# must return exactly the same values. Ranks are decided on the generators
# scaled to unit length (``directions``), as the package does; cross products,
# volumes and translations use the raw matrix.


def directions(m):
    """Columns of ``m`` scaled to unit length."""
    return m / np.linalg.norm(m, axis=0)


def pivot_rank(m, tol):
    """numkit.rank with every elimination step carried out, the last one's swaps and update too."""
    a = np.array(m, dtype=float)
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


def loop_subset_determinants(m, size):
    """(subset, |det| or sqrt(det Gram)) pairs, one np.linalg.det per subset."""
    a = np.asarray(m, dtype=float)
    for combo in combinations(range(a.shape[1]), size):
        sub = a[:, combo]
        if size == a.shape[0]:
            yield combo, float(np.linalg.det(sub))
        else:
            d = float(np.linalg.det(sub.T @ sub))
            yield combo, float(np.sqrt(max(d, 0.0)))


def _loop_subset_volume(matrix, m):
    total = 0.0
    for _, d in loop_subset_determinants(matrix, m):
        total += abs(d)
    return total


def loop_generating_faces(z, s):
    """Closed rank-s column sets: k + 1 rank calls per s-subset."""
    from zonokit.numkit import rank
    from zonokit.zonotope import GeneratingFace

    if s == 0:
        return [GeneratingFace((i,), 0) for i in range(z.k)]
    dirs = directions(z.matrix)
    seen = {}
    for combo in combinations(range(z.k), s):
        if rank(dirs[:, combo], z.tol) != s:
            continue
        closure = tuple(j for j in range(z.k) if rank(dirs[:, combo + (j,)], z.tol) == s)
        seen[closure] = GeneratingFace(closure, s)
    return [seen[c] for c in sorted(seen)]


def lookup_closures(z, s):
    """``Zonotope._closures(s)`` by one census lookup per (subset, column) pair.

    The package's face closures before they were scattered from the
    dependent (s+1)-subsets: for every rank-s subset and every column j
    outside it, the subset plus j sorted is looked up in the (s+1)-census.
    Runs of ``numkit.chunks`` bound the index temporaries.
    """
    from zonokit import numkit

    combos, ranks = z.rank_census(s)
    _, above = z.rank_census(s + 1)
    base = combos[ranks == s]
    k = z.k
    members = np.empty((len(base), k), dtype=bool)
    for rows in numkit.chunks(len(base), 8 * k * (s + 1)):
        chunk = base[rows]
        inside = (chunk[:, :, None] == np.arange(k)).any(axis=1)
        at, j = np.nonzero(~inside)
        grown = np.sort(np.column_stack([chunk[at], j]), axis=1)
        inside[at, j] = above[numkit.subset_index(grown, k)] == s
        members[rows] = inside
    return members, base


def loop_level(z, s):
    """(bases, members) of the closed s-faces: the closure rows deduplicated one row at a time.

    The package's face levels before one lexsort deduplicated them: each
    closure row's column tuple keys a dict that keeps its first row, and the
    tuples are sorted.
    """
    k = z.k
    rows, combos = (np.eye(k, dtype=bool), np.arange(k)[:, None]) if s == 0 else z._closures(s)
    first = {}
    for i, row in enumerate(rows.tolist()):
        first.setdefault(tuple(j for j in range(k) if row[j]), i)
    at = [first[c] for c in sorted(first)]
    return combos[at], rows[at]


def loop_sign_normalize(v, tol):
    """Flip v so its first coordinate above the cut is positive, one entry at a time."""
    cut = tol.threshold(np.abs(v).max() if v.size else 0.0)
    for x in v:
        if abs(x) > cut:
            return -v if x < 0 else v.copy()
    return v.copy()


def independent_columns(m, tol):
    """Greedy left-to-right maximal independent column subset (0-based indices), one rank call per column."""
    from zonokit.numkit import rank

    a = np.asarray(m, dtype=float)
    picked = []
    for j in range(a.shape[1]):
        if rank(a[:, picked + [j]], tol) == len(picked) + 1:
            picked.append(j)
    return picked


def loop_bounding_facets(z):
    """Both sides of every generating facet, one cross product per face.

    The column-space basis and each face's cross product are taken over
    greedy independent columns (:func:`independent_columns`).
    """
    from zonokit import numkit
    from zonokit.zonotope import BoundingFacet

    r = z.rank
    dirs = directions(z.matrix)
    basis = None
    if r < z.n:
        picked = independent_columns(dirs, z.tol)
        basis, _ = numkit.qr_decompose(dirs[:, picked], z.tol)
    coords = z.matrix if basis is None else basis.T @ z.matrix
    facets = []
    for face in loop_generating_faces(z, r - 1):
        picked = independent_columns(dirs[:, face.columns], z.tol)
        normal = numkit.cross_product([coords[:, face.columns[j]] for j in picked])
        if basis is not None:
            normal = basis @ normal
        normal = normal / np.linalg.norm(normal)
        reference = loop_sign_normalize(normal, z.tol)
        proj = z.matrix.T @ reference
        rest = [j for j in range(z.k) if j not in face.columns]
        negative = tuple(j for j in rest if proj[j] < 0.0)
        positive = tuple(j for j in rest if proj[j] >= 0.0)
        vol = _loop_subset_volume(z.matrix[:, face.columns], face.dim)
        for side, unit, tset in (("minus", -reference, negative), ("plus", reference, positive)):
            translation = z.matrix[:, tset].sum(axis=1) if tset else np.zeros(z.n)
            facets.append(
                BoundingFacet(face, unit, negative, positive, side, translation, vol, float(unit @ translation))
            )
    return facets


def loop_validate_tiling(z, tiling, tol):
    """validate_tiling with one rank per n-subset and O(T^2 + T F) loops."""
    from zonokit.numkit import rank
    from zonokit.tiling import TilingReport

    matrix, n = z.matrix, z.n
    expected = _loop_subset_volume(matrix, n)
    vol_sum = float(sum(abs(np.linalg.det(matrix[:, list(t.columns)])) for t in tiling.tiles))
    volume_ok = abs(vol_sum - expected) <= 1e-8 * max(expected, 1e-300)

    dirs = directions(matrix)
    want = {combo for combo in combinations(range(z.k), n) if rank(dirs[:, combo], tol) == n}
    got = [t.columns for t in tiling.tiles]
    seen, duplicates = set(), []
    for c in got:
        if c in seen:
            duplicates.append(c)
        seen.add(c)
    duplicates = sorted(set(duplicates))
    missing = sorted(want - set(got))
    unexpected = sorted(set(got) - want)

    eps = tol.threshold(1.0)
    bodies = [(matrix[:, list(t.columns)], t.translation) for t in tiling.tiles]
    centers = [tr + gen.sum(axis=1) / 2.0 for gen, tr in bodies]
    disjoint = []
    for i, (gen_i, tr_i) in enumerate(bodies):
        inv = np.linalg.inv(gen_i)
        for j, c in enumerate(centers):
            if i == j:
                continue
            coords = inv @ (c - tr_i)
            if np.all(coords > eps) and np.all(coords < 1.0 - eps):
                disjoint.append((i, j))

    h_rep = [(bf.unit_normal, bf.support) for bf in loop_bounding_facets(z)]
    max_h = max((abs(h) for _, h in h_rep), default=0.0)
    slack = 16.0 * tol.threshold(max_h if max_h else 1.0)
    corners = np.array([[float(b) for b in np.binary_repr(i, n)] for i in range(2**n)])
    outside = []
    for idx, (gen, tr) in enumerate(bodies):
        pts = tr + corners @ gen.T
        if any(np.any(pts @ u > h + slack) for u, h in h_rep):
            outside.append(idx)

    return TilingReport(
        volume_ok=bool(volume_ok),
        census_ok=not duplicates and not missing and not unexpected,
        disjoint_ok=not disjoint,
        containment_ok=not outside,
        volume_sum=vol_sum,
        expected_volume=expected,
        duplicates=duplicates,
        missing=missing,
        unexpected=unexpected,
        disjoint_violations=disjoint,
        containment_violations=outside,
    )


def exact_faces(m, s):
    """Sorted closed column sets of the rank-s column subsets, by exact rank."""
    a = np.asarray(m, dtype=float)
    k = a.shape[1]
    closures = set()
    for combo in combinations(range(k), s):
        if exact_rank(a[:, combo]) == s:
            closures.add(tuple(j for j in range(k) if exact_rank(a[:, combo + (j,)]) == s))
    return sorted(closures)


# -- shelling tiling, kept as the reference for the lifted tiling ------------
#
# The package's tiling code before it computed tiles from the lexicographic
# lift: generators join one at a time, each either extending every tile or
# gluing a cup of tiles onto the visible surface of a prefix Zonotope, with a
# perturbation loop for exact visibility ties. Ranks are decided on unit
# columns. The lifted tiling must return exactly the same tiles.


def _shelling_segment_cup(matrix, placed, g, tol):
    """One new tile when everything so far lies on a single line."""
    from zonokit.tiling import Tile

    gvec = matrix[:, g]
    ghat = gvec / np.linalg.norm(gvec)
    pos = [i for i in placed if float(matrix[:, i] @ ghat) > 0.0]
    translation = matrix[:, pos].sum(axis=1) if pos else np.zeros(matrix.shape[0])
    return [Tile((g,), translation)]


def _shelling_cup(matrix, units, placed, g, tol, notes):
    """Tiles filling the gap when generator g does not raise the prefix rank."""
    from zonokit.errors import DegeneracyError
    from zonokit.numkit import rank
    from zonokit.tiling import Tile
    from zonokit.zonotope import Zonotope

    prefix = Zonotope(matrix[:, placed], tol)
    r = prefix.rank
    if r == 1:
        return _shelling_segment_cup(matrix, placed, g, tol)
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
        inner = _shelling_tile_ordered(matrix, units, face_cols, tol, notes)
        for t in inner:
            tiles.append(
                Tile(tuple(sorted(t.columns + (g,))), bf.translation + t.translation)
            )
    return tiles


def _shelling_tile_ordered(matrix, units, order, tol, notes):
    """Tiles of the zonotope on ``order``'s columns, built in that order.

    ``units`` is ``matrix`` with unit columns; every rank is decided on it.
    """
    from zonokit.numkit import rank
    from zonokit.tiling import Tile

    placed = [order[0]]
    tiles = [Tile((order[0],), np.zeros(matrix.shape[0]))]
    cur_rank = 1
    for g in order[1:]:
        new_rank = rank(units[:, placed + [g]], tol)
        if new_rank == cur_rank + 1:
            tiles = [Tile(tuple(sorted(t.columns + (g,))), t.translation) for t in tiles]
        else:
            tiles = tiles + _shelling_cup(matrix, units, placed, g, tol, notes)
        placed.append(g)
        cur_rank = new_rank
    return tiles


def shelling_tile_zonotope(z, order=None):
    """tile_zonotope by the shelling induction in ``order`` (default natural)."""
    from zonokit.errors import DegeneracyError, DimensionError
    from zonokit.tiling import Tiling

    if z.rank < z.n:
        raise DegeneracyError(f"tiling needs full rank, got {z.rank} < {z.n}")
    if order is None:
        order = list(range(z.k))
    order = [int(i) for i in order]
    if sorted(order) != list(range(z.k)):
        raise DimensionError("order must be a permutation of the generator indices")
    notes = {"order": list(order)}
    tiles = _shelling_tile_ordered(z.matrix, z.directions, order, z.tol, notes)
    tiles.sort(key=lambda t: t.columns)
    return Tiling(tiles, notes)


def shelling_cup_of_cubes(z_prefix, new_gen, new_index):
    """cup_of_cubes as one shelling step appending ``new_gen`` to the prefix."""
    from zonokit.errors import DegeneracyError, DimensionError
    from zonokit.numkit import as_vector, unit_columns
    from zonokit.tiling import CupOfCubes, Tile

    if z_prefix.rank < z_prefix.n:
        raise DegeneracyError("cup_of_cubes needs a full-rank prefix")
    g = as_vector(new_gen)
    if g.size != z_prefix.n:
        raise DimensionError("new generator dimension mismatch")
    matrix = np.column_stack([z_prefix.matrix, g])
    notes = {}
    local = matrix.shape[1] - 1
    raw = _shelling_cup(matrix, unit_columns(matrix), list(range(z_prefix.k)), local, z_prefix.tol, notes)
    tiles = [
        Tile(
            tuple(sorted(new_index if c == local else c for c in t.columns)),
            t.translation,
        )
        for t in raw
    ]
    tiles.sort(key=lambda t: t.columns)
    return CupOfCubes(new_index, tiles)


# -- sub-zonotope vertex recursion, kept as the reference for the flat one ----
#
# The package's vertex enumeration before it recursed over the parent's own
# closed faces: one sub-Zonotope per bounding facet, down to a zonogon closed
# form at rank 2 and the two ends of a segment at rank 1. Near the rank cut a
# facet's sub-zonotope can have the parent's rank, and then this recursion
# never ends (RecursionError).


def _labelled(mask, labels):
    return frozenset(labels[j] for j in np.flatnonzero(mask))


def _zonogon_sign_vectors(z, labels):
    """Rank 2: the two ends of each edge normal to +-(column j rotated 90 deg)."""
    basis = z._column_space_basis
    c = z.matrix if basis is None else basis.T @ z.matrix
    cross = np.outer(c[0], c[1]) - np.outer(c[1], c[0])  # [j, m] = det(c_j, c_m)
    dot = c.T @ c
    norms = np.sqrt(np.diag(dot))
    parallel = np.abs(cross) <= z.tol.threshold(1.0) * np.outer(norms, norms)
    sides = [~parallel & (cross > 0.0), ~parallel & (cross < 0.0)]
    ends = [parallel & (dot > 0.0), parallel & (dot < 0.0)]
    return {_labelled(row, labels) for side in sides for end in ends for row in side | end}


def _labelled_sign_vectors(z, labels, memo):
    """Vertex sign vectors with column j written as ``labels[j]``.

    Rank 1 and 2 have closed forms; above that every vertex is a bounding
    facet's translation set plus a vertex of the facet's sub-zonotope.
    ``memo`` maps a label tuple to its sub-zonotope's result, so a face
    reached through several facets (both sides of one facet, or a ridge
    shared by two) is enumerated once.
    """
    from zonokit.zonotope import Zonotope

    if z.rank == 1:
        proj = z.matrix.T @ z.matrix[:, 0]
        return {_labelled(proj > 0.0, labels), _labelled(proj < 0.0, labels)}
    if z.rank == 2:
        return _zonogon_sign_vectors(z, labels)
    signs = set()
    for bf in z.bounding_facets():
        face = tuple(labels[j] for j in bf.generating.columns)
        if face not in memo:
            sub = Zonotope(z.matrix[:, bf.generating.columns], z.tol)
            memo[face] = _labelled_sign_vectors(sub, face, memo)
        side = frozenset(labels[j] for j in bf.translation_set)
        signs.update(s | side for s in memo[face])
    return signs


def recursive_vertex_sign_vectors(z):
    """Vertex sign vectors of ``z`` by the sub-zonotope recursion, as a set."""
    return _labelled_sign_vectors(z, tuple(range(z.k)), {})


# -- per-face recursion over the closed faces, kept as the reference for the --
# -- level passes ---------------------------------------------------------------
#
# The package's vertex enumeration before it built each face level in one
# pass: a closed face at a time, memoised on (level, face row), with one
# stacked residual QR per level and one class's halves per gemv. It reads the
# package's closed faces, facet table and 2-face cycles.


def _int_masks(rows):
    return rows @ (np.int64(1) << np.arange(rows.shape[1], dtype=np.int64))


def _face_sign_masks(z, s, row, memo, residuals):
    """Vertex sign masks of the closed s-face ``z.generating_faces(s)[row]``, all columns at row None."""
    if (s, row) in memo:
        return memo[s, row]
    flat = tuple(range(z.k)) if row is None else z.generating_faces(s)[row].columns
    whole = sum(1 << j for j in flat)
    if s == z.rank >= 2:
        below = [_face_sign_masks(z, s - 1, i, memo, residuals) for i in range(len(z.generating_faces(s - 1)))]
        sides = np.repeat(z._bounding_facets.masks.reshape(-1, 2), [len(b) for b in below], axis=0)
        signs = (sides | np.concatenate(below)[:, None]).ravel()
    elif s == 2:
        rings, starts, sizes, _ = z._cycles
        signs = rings[starts[row]:starts[row] + sizes[row]]
    elif s == 1:
        d = z.directions
        half = sum(1 << j for j in np.array(flat)[d[:, flat].T @ d[:, flat[0]] > 0.0].tolist())
        signs = np.array([half, whole ^ half])
    else:
        masks, off = residuals[s - 1]
        rows = np.flatnonzero((masks & ~whole == 0) & (masks != whole))
        rest = (((whole ^ masks[rows])[:, None] >> np.arange(z.k)) & 1) == 1
        off = off[rows]
        lead = off[np.arange(len(rows)), :, rest.argmax(axis=1)]
        sides = _int_masks(rest & (np.matmul(lead[:, None, :], off)[:, 0] > 0.0))
        below = [_face_sign_masks(z, s - 1, i, memo, residuals) for i in rows.tolist()]
        half = np.repeat(sides, [len(b) for b in below]) | np.concatenate([np.empty(0, np.int64), *below])
        signs = np.unique(np.concatenate([half, whole ^ half]))
    memo[s, row] = signs
    return signs


def face_recursion_vertex_masks(z):
    """Sorted int64 vertex sign masks of ``z``, one closed face at a time."""
    d = z.directions
    residuals = {}
    for s in range(2, z.rank - 1):
        bases, members = z._level(s)
        q, _ = np.linalg.qr(np.ascontiguousarray(d[:, bases].transpose(1, 0, 2)))
        residuals[s] = (_int_masks(members), d - q @ (np.swapaxes(q, 1, 2) @ d))
    return np.unique(_face_sign_masks(z, z.rank, None, {}, residuals))


# -- membership-mask mesh polygons, kept as the reference for the cycle walk --
#
# ``zonokit mesh`` before it walked each closed 2-face's vertex cycle: every
# facet finds its vertices with a (vertices x columns) membership mask and
# sorts them by atan2 about their centroid. It writes whatever surface that
# gives, sphere or not.


def mask_off_mesh(z):
    """OFF text for a rank-3 zonotope: vertices then facet polygons (CCW)."""
    from zonokit.cli import _fmt

    verts = z.vertices()
    signs = z.vertex_sign_vectors()
    facets = z.geometric_facets()
    lines = ["OFF", f"{len(verts)} {len(facets)} 0"]
    for v in verts:
        lines.append(" ".join(_fmt(x) for x in v))
    indicator = np.zeros((len(signs), z.k), dtype=bool)
    for i, s in enumerate(signs):
        indicator[i, list(s)] = True
    for f in facets:
        # vertex S lies on the facet iff S minus the facet's columns is its sign set
        free = np.zeros(z.k, dtype=bool)
        free[list(f.generating.columns)] = True
        side = np.zeros(z.k, dtype=bool)
        side[list(f.translation_set)] = True
        on = np.all((indicator == side) | free, axis=1)
        members = np.flatnonzero(on).tolist()
        u = f.unit_normal
        seed_axis = np.argmin(np.abs(u))
        b1 = np.zeros(3)
        b1[seed_axis] = 1.0
        b1 = b1 - u * float(u @ b1)
        b1 = b1 / np.linalg.norm(b1)
        b2 = np.cross(u, b1)
        centroid = np.mean([verts[i] for i in members], axis=0)
        members.sort(
            key=lambda i: math.atan2(
                float((verts[i] - centroid) @ b2), float((verts[i] - centroid) @ b1)
            )
        )
        lines.append(" ".join([str(len(members))] + [str(i) for i in members]))
    return "\n".join(lines) + "\n"


def off_is_sphere(text):
    """Whether an OFF surface has every edge in two faces, once each way, and V - E + F = 2."""
    lines = text.splitlines()
    v, f, _ = (int(x) for x in lines[1].split())
    directed = []
    for line in lines[2 + v : 2 + v + f]:
        idx = [int(x) for x in line.split()[1:]]
        directed.extend(zip(idx, idx[1:] + idx[:1]))
    edges = {frozenset(e) for e in directed}
    once_each_way = len(set(directed)) == len(directed) == 2 * len(edges)
    return once_each_way and v - len(edges) + f == 2


# -- loop references for the minor table, the stacked compound and the -------
# -- pairwise symmetry tests ---------------------------------------------------
#
# One np.linalg.det per minor, one numpy call per column, and one small numpy
# call per point pair, edge or segment, as the package computed them before it
# took them as arrays; the array code must give exactly the same values,
# witnesses and messages.


def loop_minor_matrix(m, signed):
    """compound (or signed_compound) with one np.linalg.det per (i, j) minor."""
    a = np.asarray(m, dtype=float)
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


def loop_stripped_columns(m, tol):
    """Columns no entry of which exceeds the cut from the whole matrix's largest entry."""
    a = np.asarray(m, dtype=float)
    cut = tol.threshold(np.abs(a).max() if a.size else 0.0)
    keep = [j for j in range(a.shape[1]) if np.abs(a[:, j]).max() > cut]
    return tuple(j for j in range(a.shape[1]) if j not in keep)


def loop_dedupe(pts, cut):
    """Greedy: a point is dropped when it is within ``cut`` of an earlier kept one."""
    unique = []
    for p in pts:
        if not any(np.abs(p - q).max() <= cut for q in unique):
            unique.append(p)
    return unique


def loop_central_center(points, tol):
    """central_center with one comparison per (image, point) pair."""
    from zonokit.symmetry import SymmetryReport

    pts = np.asarray(points, dtype=float)
    cut = tol.threshold(np.abs(pts).max() if pts.size else 0.0)
    unique = loop_dedupe(pts, cut)
    c = np.mean(unique, axis=0)
    for p in unique:
        image = 2.0 * c - p
        if not any(np.abs(image - q).max() <= cut for q in unique):
            return SymmetryReport(False, None, (p.copy(), image), "missing reflected point")
    return SymmetryReport(True, c, None, None)


def loop_loop_symmetric(segments, tol):
    """SegmentLoop's closure check, then loop_symmetric, one segment at a time.

    Returns the ValueError message of an unclosed loop, else the report.
    """
    from zonokit.symmetry import SymmetryReport

    seg = np.asarray(segments, dtype=float)
    cut = tol.threshold(np.abs(seg).max() if seg.size else 0.0)
    count = seg.shape[0]
    for j in range(count):
        gap = seg[(j + 1) % count, 0] - seg[j, 1]
        if np.abs(gap).max() > cut:
            return f"loop not closed between segments {j} and {(j + 1) % count}"
    if count % 2 != 0:
        return SymmetryReport(False, None, None, f"odd segment count {count}")
    t = count // 2
    disp = seg[:, 1, :] - seg[:, 0, :]
    cut = tol.threshold(np.abs(disp).max() if disp.size else 0.0)
    for j in range(t):
        if np.abs(disp[t + j] + disp[j]).max() > cut:
            return SymmetryReport(False, None, (disp[j].copy(), -disp[j]), f"segment {t + j} is not the reverse of segment {j}")
    return SymmetryReport(True, (seg[0, 0] + seg[t, 0]) / 2.0, None, None)


def loop_zonogon_recognize(vertices, tol):
    """zonogon_recognize with one test per edge and per opposite edge pair.

    Returns the ValueError message of a polygon that is not strictly convex
    and counterclockwise, else the generators (or None).
    """
    pts = np.asarray(vertices, dtype=float)
    m = pts.shape[0]
    edges = [pts[(i + 1) % m] - pts[i] for i in range(m)]
    scale = max(float(np.linalg.norm(e)) for e in edges)
    cut = tol.threshold(scale * scale)
    for i in range(m):
        z = edges[i][0] * edges[(i + 1) % m][1] - edges[i][1] * edges[(i + 1) % m][0]
        if z <= cut:
            return "vertices must be strictly convex and counterclockwise"
    if m % 2 != 0:
        return None
    t = m // 2
    ecut = tol.threshold(scale)
    for j in range(t):
        if np.abs(edges[j] + edges[j + t]).max() > ecut:
            return None
    poly = [p.copy() for p in pts]
    generators = []
    while len(poly) > 2:
        half = len(poly) // 2
        d = poly[1] - poly[0]
        generators.append(d)
        poly = [poly[0]] + [poly[i] - d for i in range(2, half + 1)] + [poly[i] for i in range(half + 2, len(poly))]
    generators.append(poly[1] - poly[0])
    return generators
