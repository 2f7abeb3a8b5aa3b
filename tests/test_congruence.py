import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonokit import congruence
from zonokit.congruence import (
    check_conditions,
    congruent_zonotopes,
    find_orthogonal,
    same_shape,
    square_comparison,
    triangular_signs,
    verify_condition3,
)
from zonokit.errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    NoWitnessError,
)
from zonokit.numkit import DEFAULT_TOL, Tolerance, gram, qr_decompose

import oracles
from fixture_matrices import comparison_counterexample, gram_equal_pairs
from test_acceptance import cpu_budget

PAIRS = gram_equal_pairs()


def random_full_rank(rng, n, k):
    m = rng.normal(size=(n, k))
    while np.linalg.matrix_rank(m) < min(n, k):
        m = rng.normal(size=(n, k))
    return m


class TestSameShape:
    @pytest.mark.parametrize("idx", [0, 1, 2, 3])
    def test_listed_pairs(self, idx):
        a, b = PAIRS[idx]
        assert same_shape(a, b)

    def test_scaling_breaks_shape(self):
        a = PAIRS[0][0]
        assert not same_shape(a, 2 * a)

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionError):
            same_shape(np.eye(2), np.eye(3))


class TestFindOrthogonal:
    def test_identity(self):
        q = find_orthogonal(np.eye(3), np.eye(3))
        assert np.allclose(q, np.eye(3))

    def test_first_pair(self):
        a, b = PAIRS[0]
        q = find_orthogonal(a, b)
        assert np.linalg.norm(q @ a - b) <= 1e-9
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-12

    def test_rectangular_pair(self):
        a, b = PAIRS[1]
        q = find_orthogonal(a, b)
        assert q.shape == (3, 3)
        assert np.linalg.norm(q @ a - b) <= 1e-9
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12

    def test_gram_mismatch_rejected(self):
        with pytest.raises(NoWitnessError):
            find_orthogonal(np.eye(2), 2 * np.eye(2))

    def test_taller_source_rejected(self):
        with pytest.raises(DimensionError):
            find_orthogonal(np.zeros((3, 2)) + np.eye(3)[:, :2], np.eye(2))

    def test_soundness_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 7))
            k = int(rng.integers(1, 6))
            a = rng.normal(size=(m, k))
            q0 = oracles.random_orthogonal(rng, n)[:, :m]
            b = q0 @ a
            q = find_orthogonal(a, b)
            assert np.linalg.norm(q @ a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-10

    def test_dependent_columns_carried(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, 6))
            base = rng.normal(size=(m, m - 1))
            coeffs = rng.normal(size=(m - 1, 2))
            a = np.hstack([base, base @ coeffs])  # duplicated/dependent columns
            q0 = oracles.random_orthogonal(rng, n)[:, :m]
            b = q0 @ a
            q = find_orthogonal(a, b)
            assert np.linalg.norm(q @ a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-10


class TestTriangularSigns:
    def test_equal_inputs(self):
        r = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert np.allclose(triangular_signs(r, r), [1.0, 1.0])

    def test_hand_case(self):
        r = np.array([[1.0, 2.0], [0.0, 3.0]])
        s = np.array([[1.0, 2.0], [0.0, -3.0]])
        j = triangular_signs(r, s)
        assert np.allclose(j, [1.0, -1.0])
        assert np.allclose(r, j[:, None] * s)
        assert np.allclose(gram(r), [[1, 2], [2, 13]])

    def test_random_recovery(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            r = np.triu(rng.normal(size=(k, k)))
            r[np.diag_indices(k)] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1, 1], size=k)
            j = rng.choice([-1.0, 1.0], size=k)
            s = j[:, None] * r
            assert np.array_equal(triangular_signs(r, s), j)

    def test_hypothesis_violation_named(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NoWitnessError, match=r"\(0, 0\)"):
            triangular_signs(r, s)

    def test_singular_rejected(self):
        r = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegeneracyError):
            triangular_signs(r, r)


class TestCongruentZonotopes:
    def test_constructed_swap_and_negate(self):
        rng = np.random.default_rng(44)
        a = random_full_rank(rng, 3, 4)
        b = a.copy()
        b[:, [0, 1]] = b[:, [1, 0]]
        b[:, 0] = -b[:, 0]
        w = congruent_zonotopes(a, b)
        assert w is not None
        assert w.residual(a, b) <= 1e-9

    def test_overflowing_length_refused(self):
        # a 1e200 entry makes its Gram diagonal, the squared length, overflow to inf
        with pytest.raises(ValueError, match="squared length of column 1 of B overflows"):
            congruent_zonotopes(np.eye(2), np.diag([1.0, 1e200]))

    def test_first_pair_identity_witness(self):
        a, b = PAIRS[0]
        w = congruent_zonotopes(a, b)
        assert w.sigma == (0, 1)
        assert w.signs == (1, 1)
        assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)

    def test_random_signed_permutation_instances(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 8))
            a = random_full_rank(rng, n, k)
            sigma, signs = oracles.random_signed_permutation(rng, k)
            q0 = oracles.random_orthogonal(rng, n)
            b = q0 @ (a[:, sigma] * signs)
            w = congruent_zonotopes(a, b)
            assert w is not None
            assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)

    def test_negative_instances(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 8))
            a = random_full_rank(rng, n, k)
            b = random_full_rank(rng, n, k)
            norms_a = sorted(np.linalg.norm(a, axis=0))
            norms_b = sorted(np.linalg.norm(b, axis=0))
            if np.allclose(norms_a, norms_b, atol=1e-6):
                continue
            assert congruent_zonotopes(a, b) is None

    def test_reflexive_and_symmetric(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(n, 7))
            a = random_full_rank(rng, n, k)
            w = congruent_zonotopes(a, a)
            assert w is not None and w.residual(a, a) <= 1e-9
            assert w.sigma == tuple(range(k))
            assert w.signs == (1,) * k
            assert np.abs(w.q - np.eye(n)).max() <= 1e-9
            sigma, signs = oracles.random_signed_permutation(rng, k)
            b = oracles.random_orthogonal(rng, n) @ (a[:, sigma] * signs)
            assert congruent_zonotopes(a, b) is not None
            assert congruent_zonotopes(b, a) is not None

    def test_capacity(self):
        rng = np.random.default_rng(48)
        a = rng.normal(size=(2, 11))
        with pytest.raises(CapacityError):
            congruent_zonotopes(a, a)

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionError):
            congruent_zonotopes(np.eye(2), np.eye(3))


def family_instance(rng):
    """A seeded (a, b) pair: Gaussian or integer -2..2 columns, some of them
    parallel or antiparallel copies, against a signed-permuted rotated copy,
    a near-miss of one, or an unrelated matrix; n = 2..4, k = 2..7."""
    n = int(rng.integers(2, 5))
    k = int(rng.integers(2, 8))
    integer = rng.random() < 0.5
    a = rng.integers(-2, 3, size=(n, k)).astype(float) if integer else rng.normal(size=(n, k))
    if rng.random() < 0.3:
        for _ in range(int(rng.integers(1, k + 1))):
            i, j = rng.choice(k, 2)
            a[:, j] = rng.choice([-2.0, -1.0, 1.0, 2.0]) * a[:, i]
    sigma, signs = oracles.random_signed_permutation(rng, k)
    b = a[:, sigma] * signs
    if not integer or rng.random() < 0.5:
        b = oracles.random_orthogonal(rng, n) @ b
    kind = rng.integers(3)
    if kind == 1:
        b[rng.integers(n), rng.integers(k)] += rng.choice([1e-6, 1e-3, 1.0])
    elif kind == 2:
        b = rng.integers(-2, 3, size=(n, k)).astype(float) if integer else rng.normal(size=(n, k))
    return a, b


def scaled_instance(rng, mixed_scales, kmax):
    """A seeded (a, b) pair for loose tolerances and spread column norms.

    Columns are optionally scaled by 10^-2..10^5 and stretched by 1e-4
    steps, so that a cut of rel = 1e-3 admits assignments the strict
    residual check rejects; b is a signed-permuted (rotated) copy, a copy
    with one entry bent, or a shuffled, stretched copy.
    """
    n = int(rng.integers(2, 5))
    k = int(rng.integers(2, kmax + 1))
    a = rng.normal(size=(n, k)) if rng.random() < 0.5 else rng.integers(-2, 3, size=(n, k)).astype(float)
    if mixed_scales:
        a = a * 10.0 ** rng.integers(-2, 6, size=k)
    if rng.random() < 0.3:
        for _ in range(int(rng.integers(1, k + 1))):
            i, j = rng.choice(k, 2)
            a[:, j] = rng.choice([-2.0, -1.0, 1.0, 2.0]) * a[:, i]
    if rng.random() < 0.5:
        a = a * (1 + 1e-4 * rng.integers(0, 4, size=k))
    sigma, signs = oracles.random_signed_permutation(rng, k)
    b = a[:, sigma] * signs
    if rng.random() < 0.5:
        b = oracles.random_orthogonal(rng, n) @ b
    kind = rng.integers(3)
    if kind == 1:
        b[rng.integers(n), rng.integers(k)] += rng.choice([1e-6, 1e-3, 1.0]) * np.abs(b).max()
    elif kind == 2:
        b = b[:, rng.permutation(k)] * (1 + 1e-4 * rng.integers(0, 3, size=k))
    return a, b


def from_gram(g):
    """A square matrix whose Gram is the positive definite g."""
    return np.linalg.cholesky(g).T


def weighted_graph(k, edges, weight=0.3, diagonal=None):
    """Gram diag + weight * signed adjacency; an edge is (i, j) or (i, j, sign)."""
    g = np.eye(k) if diagonal is None else np.diag(np.asarray(diagonal, dtype=float))
    for i, j, *sign in edges:
        g[i, j] = g[j, i] = weight * (sign[0] if sign else 1)
    return g


def cycle(length, start=0, negative=0):
    return [(start + i, start + (i + 1) % length, -1 if i < negative else 1) for i in range(length)]


def signed_copy(rng, a):
    sigma, signs = oracles.random_signed_permutation(rng, a.shape[1])
    return oracles.random_orthogonal(rng, a.shape[0]) @ (a[:, sigma] * signs)


def huge_column(rng):
    """Gaussian 3x6 with column 0 scaled by 1e6."""
    a = rng.normal(size=(3, 6))
    a[:, 0] *= 1e6
    return a


def spread_norms(rng):
    """4x5 with column norms log-uniform on [0.03, 3.6e5]."""
    a = rng.normal(size=(4, 5))
    norms = np.exp(rng.uniform(np.log(0.03), np.log(3.6e5), size=5))
    return a * (norms / np.linalg.norm(a, axis=0))


def adversarial_k10():
    """(name, a, b, congruent) at k = 10, where signed-permutation backtracking
    explores on the order of k! * 2^(k-1) nodes."""
    rng = np.random.default_rng(52)
    k = 10
    frame = np.eye(k)[:, rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)
    bent = frame.copy()
    bent[:, 0] = math.cos(0.01) * frame[:, 0] + math.sin(0.01) * frame[:, 1]
    heavy = [1.0] * 5 + [2.0] * 5
    two_c5 = from_gram(weighted_graph(k, cycle(5) + cycle(5, 5)))
    complete = list(itertools.combinations(range(k), 2))
    # Petersen graph: 2-subsets of {0..4}, adjacent when disjoint; the prism
    # C5 x K2 is cubic and triangle-free too, so colour refinement ties them
    pairs = list(itertools.combinations(range(5), 2))
    petersen = from_gram(weighted_graph(
        k, [(i, j) for (i, u), (j, v) in itertools.combinations(enumerate(pairs), 2) if not set(u) & set(v)]
    ))
    prism = from_gram(weighted_graph(k, cycle(5) + cycle(5, 5) + [(i, i + 5) for i in range(5)]))
    return [
        ("bent identity frame", frame, bent, False),
        (
            "odd against even signed 5-cycle, 5 isolated heavier columns",
            from_gram(weighted_graph(k, cycle(5, negative=1), diagonal=heavy)),
            from_gram(weighted_graph(k, cycle(5, negative=2), diagonal=heavy)),
            False,
        ),
        (
            "two disjoint edges against a path",
            from_gram(weighted_graph(k, [(0, 1), (2, 3)])),
            from_gram(weighted_graph(k, [(0, 1), (1, 2)])),
            False,
        ),
        ("C10 against 2 C5", from_gram(weighted_graph(k, cycle(10))), two_c5, False),
        (
            # equal |G| everywhere; only the triangle signs tell them apart
            "K10 against K10 with one negative edge",
            from_gram(weighted_graph(k, complete, 0.1)),
            from_gram(weighted_graph(k, complete[:-1] + [(8, 9, -1)], 0.1)),
            False,
        ),
        ("Petersen graph against the pentagonal prism", petersen, prism, False),
        ("2 C5 against a signed-permuted rotated copy", two_c5, signed_copy(rng, two_c5), True),
        ("Petersen graph against a signed-permuted rotated copy", petersen, signed_copy(rng, petersen), True),
        ("I10 against a signed permutation of itself", np.eye(k), signed_copy(rng, np.eye(k)), True),
    ]


class TestCongruenceDecision:
    def test_same_verdicts_as_backtracking(self):
        rng = np.random.default_rng(53)
        positives = 0
        for _ in range(2400):
            a, b = family_instance(rng)
            expected = oracles.backtrack_congruent(a, b, DEFAULT_TOL)
            w = congruent_zonotopes(a, b)
            assert (w is None) == (expected is None)
            if w is not None:
                positives += 1
                assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)
        assert positives > 600

    @pytest.mark.parametrize(
        "rel, mixed_scales, count, kmax",
        [(1e-9, True, 600, 6), (1e-3, False, 600, 6), (1e-3, True, 200, 4)],
        ids=["mixed scales", "rel 1e-3", "rel 1e-3, mixed scales"],
    )
    def test_same_verdicts_as_backtracking_at_wide_cuts(self, rel, mixed_scales, count, kmax):
        # a wide cut admits assignments that the residual check rejects, so
        # the search must back out of them rather than stop at the first one
        tol = Tolerance(rel=rel)
        rng = np.random.default_rng(55)
        positives = 0
        for _ in range(count):
            a, b = scaled_instance(rng, mixed_scales, kmax)
            expected = oracles.backtrack_congruent(a, b, tol)
            w = congruent_zonotopes(a, b, tol)
            assert (w is None) == (expected is None)
            if w is not None:
                positives += 1
                assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)
        assert positives > count // 5

    def test_column_swap_within_a_loose_cut(self):
        # both diagonals fall within the cut, so the identity assignment
        # passes every Gram check and only the residual rejects it
        a = np.array([[1.0, 0.0], [0.0, 1.0005]])
        b = a[:, ::-1]
        w = congruent_zonotopes(a, b, Tolerance(rel=1e-3))
        assert w is not None and w.sigma == (1, 0)
        assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)

    def test_column_swap_below_a_large_cut(self):
        # the 1e10 diagonal makes the cut about 10, so label 0 chains over
        # every other entry and all three columns are single components
        a = np.array([[1e5, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        b = a[:, [0, 2, 1]]
        w = congruent_zonotopes(a, b)
        assert w is not None and w.sigma == (0, 2, 1)
        assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("case", adversarial_k10(), ids=lambda case: case[0])
    def test_adversarial_k10_under_a_second(self, case):
        _, a, b, congruent = case
        # a positive gets more copies: a lucky first assignment must not decide it
        rng = np.random.default_rng(54)
        targets = [b] + [signed_copy(rng, a) for _ in range(8 if congruent else 0)]
        with cpu_budget(1.0):
            witnesses = [congruent_zonotopes(a, t) for t in targets]
        for w, t in zip(witnesses, targets):
            assert (w is not None) == congruent
            if congruent:
                assert w.residual(a, t) <= 1e-8 * np.linalg.norm(t)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_verdict_invariant_under_congruence_and_swap(self, seed):
        rng = np.random.default_rng(seed)
        a, b = family_instance(rng)
        pairs = [(a, b), (a, signed_copy(rng, b)), (b, a)]
        witnesses = [congruent_zonotopes(x, y) for x, y in pairs]
        assert len({w is None for w in witnesses}) == 1
        for w, (x, y) in zip(witnesses, pairs):
            if w is not None:
                assert w.residual(x, y) <= 1e-8 * np.linalg.norm(y)


class TestProcrustesWitness:
    @pytest.mark.parametrize("source", [huge_column, spread_norms], ids=lambda f: f.__name__)
    def test_spread_copies_found(self, source):
        # a rank decision at the Gram cut counted the small columns as
        # dependent here, and the witness for a genuine copy failed
        rng = np.random.default_rng(57)
        for _ in range(100):
            a = source(rng)
            b = signed_copy(rng, a)
            w = congruent_zonotopes(a, b)
            assert w is not None
            assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("rel", [1e-9, 1e-3])
    def test_global_sign_gives_the_same_verdict(self, rel):
        # negating every column changes no Gram entry, so it must not change
        # the verdict, for the true assignment and for a random one alike
        tol = Tolerance(rel=rel)
        rng = np.random.default_rng(58)
        accepted = 0
        for i in range(300):
            source = (huge_column, spread_norms, lambda r: scaled_instance(r, True, 6)[0])[i % 3]
            a = source(rng)
            k = a.shape[1]
            sigma, signs = oracles.random_signed_permutation(rng, k)
            b = oracles.random_orthogonal(rng, a.shape[0]) @ (a[:, sigma] * signs)
            ga, gb = gram(a), gram(b)
            cut = tol.threshold(max(np.abs(ga).max(), np.abs(gb).max()))
            assignments = [(sigma, signs), oracles.random_signed_permutation(rng, k)]
            for perm, sgn in assignments:
                verdicts = [
                    congruence._verify_assignment(a, b, list(perm), list(s * sgn), tol, cut, {})
                    for s in (1.0, -1.0)
                ]
                assert verdicts[0] == verdicts[1]
                accepted += verdicts[0]
        assert accepted >= 300


class TestCheckConditions:
    def test_fourth_pair_all_conditions(self):
        a, b = PAIRS[3]
        report = check_conditions(a, b)
        assert report.c1 and report.c2 and report.c3
        r = qr_decompose(a)[1]
        s = qr_decompose(b)[1]
        assert np.allclose(a @ report.q1 @ r, b @ report.q2 @ s, atol=1e-8)
        # for this pair the bare comparison A R = B S fails
        assert np.abs(a @ r - b @ s).max() > 1e-3

    def test_third_pair_with_unequal_squares(self):
        a, b = PAIRS[2]
        report = check_conditions(a, b)
        assert report.c1 and report.c2 and report.c3
        assert np.abs(a @ a - b @ b).max() > 1e-3

    def test_counterexample_conditions_fail(self):
        a, b = comparison_counterexample()
        report = check_conditions(a, b)
        assert not report.c1 and not report.c2 and not report.c3
        assert verify_condition3(a, b, np.eye(2), np.eye(2))

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegeneracyError):
            check_conditions(np.ones((2, 2)), np.ones((2, 2)))

    def test_orthonormal_image_invariance(self):
        # conditions (1) and (2) survive mapping both matrices by any Q'
        rng = np.random.default_rng(49)
        for a, b in PAIRS:
            n = a.shape[0]
            m = n + int(rng.integers(0, 3))
            qprime = oracles.random_orthogonal(rng, m)[:, :n]
            r1 = check_conditions(a, b)
            r2 = check_conditions(qprime @ a, qprime @ b)
            assert (r1.c1, r1.c2) == (r2.c1, r2.c2)
        for _ in range(20):
            n, k = 3, 2
            a = random_full_rank(rng, n, k)
            b = random_full_rank(rng, n, k)
            qprime = oracles.random_orthogonal(rng, n + 1)[:, :n]
            r1 = check_conditions(a, b)
            r2 = check_conditions(qprime @ a, qprime @ b)
            assert (r1.c1, r1.c2) == (r2.c1, r2.c2)


class TestVerifyCondition3:
    def test_identity_case(self):
        a = PAIRS[0][0]
        assert verify_condition3(a, a, np.eye(2), np.eye(2))

    def test_counterexample_squares(self):
        a, b = comparison_counterexample()
        assert np.allclose(a @ a, [[4, 6], [0, 1]])
        assert np.allclose(b @ b, [[4, 6], [0, 1]])
        assert verify_condition3(a, b, np.eye(2), np.eye(2))

    def test_pipeline_self_check(self):
        a, b = PAIRS[0]
        report = check_conditions(a, b)
        assert verify_condition3(a, b, report.q1, report.q2)

    def test_non_orthogonal_witness_rejected(self):
        a = PAIRS[0][0]
        with pytest.raises(DimensionError):
            verify_condition3(a, a, 2 * np.eye(2), np.eye(2))


class TestSquareComparison:
    def test_equal_inputs(self):
        a = PAIRS[0][0]
        rec = square_comparison(a, a)
        assert rec.a2_eq_b2 and rec.gram_eq and rec.rowgram_eq
        assert np.allclose(rec.shared_q, np.eye(2))

    def test_third_pair(self):
        a, b = PAIRS[2]
        rec = square_comparison(a, b)
        assert rec.gram_eq and rec.rowgram_eq
        assert not rec.a2_eq_b2
        assert rec.shared_q is None

    def test_commuting_construction_recovers_q(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            v = oracles.random_orthogonal(rng, n)
            q0 = v @ np.diag(rng.choice([-1.0, 1.0], size=n)) @ v.T
            a = v @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ v.T
            b = q0 @ a
            rec = square_comparison(a, b)
            assert rec.a2_eq_b2 and rec.gram_eq and rec.rowgram_eq
            assert np.allclose(rec.shared_q, q0, atol=1e-8)

    def test_singular_rejected(self):
        with pytest.raises(DegeneracyError):
            square_comparison(np.zeros((2, 2)), np.zeros((2, 2)))


class TestQRUniqueness:
    def test_matches_gram_schmidt_oracle(self):
        # sign-normalized factors from two different algorithms coincide
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            m = random_full_rank(rng, n, k)
            q1, r1 = qr_decompose(m)
            q2, r2 = oracles.classical_gram_schmidt_qr(m)
            assert np.abs(r1 - r2).max() <= 1e-10 * max(1.0, np.abs(r1).max())
            assert np.abs(q1 - q2).max() <= 1e-9
