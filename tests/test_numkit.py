import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonokit import numkit
from zonokit.errors import DegeneracyError, DimensionError
from zonokit.numkit import (
    Tolerance,
    as_matrix,
    compound,
    cross_product,
    determinant,
    gram,
    qr_decompose,
    rank,
    rank_batch,
    sign_normalize,
    signed_compound,
)

import oracles
from fixture_matrices import gram_equal_pairs, hex_facet_generators

A0 = hex_facet_generators()


def small_matrix(draw, nmin=2, nmax=5, square=True):
    n = draw(st.integers(nmin, nmax))
    m = n if square else draw(st.integers(nmin, nmax))
    entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    data = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    return np.asarray(data)


square_matrices = st.builds(lambda seed, n: np.round(np.random.default_rng(seed).integers(-9, 10, size=(n, n)).astype(float)),
                            st.integers(0, 10_000), st.integers(2, 5))


class TestTolerance:
    def test_scalar_semantics(self):
        t = Tolerance(abs=1e-3, rel=0.0)
        assert t.close(1.0, 1.0005)
        assert not t.close(1.0, 1.01)
        t = Tolerance(abs=0.0, rel=1e-2)
        assert t.close(100.0, 100.5)
        assert not t.close(1.0, 1.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("field", ["abs", "rel"])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Tolerance(**{field: value})

    def test_allclose_shape_mismatch(self):
        assert not Tolerance().allclose(np.zeros(2), np.zeros(3))


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("inf")]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_unit_columns_refuse_an_overflowing_length(self):
        # a length squares its entries: 1e200 overflows to inf, 1e150 does not
        with pytest.raises(ValueError, match="length of column 1 overflows"):
            numkit.unit_columns([[1.0, 1e200], [0.0, 0.0]])
        assert numkit.unit_columns([[1e150, 0.0], [0.0, 3.0]]).tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_hand_cofactor_2x2(self):
        assert determinant([[5.0, 1.0], [1.0, 3.0]]) == pytest.approx(14.0)

    def test_dependent_triple_complement(self):
        # columns {2,3,4} of the 3x5 fixture, cofactor expansion gives -2
        assert determinant(A0[:, [2, 3, 4]]) == pytest.approx(-2.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(np.zeros((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices)
    def test_matches_exact_oracle(self, m):
        exact = float(oracles.exact_det(m))
        assert determinant(m) == pytest.approx(exact, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices)
    def test_pivot_product_oracle(self, m):
        pivots = oracles.exact_pivots(m)
        prod = float(abs(np.prod([float(p) for p in pivots])))
        assert abs(determinant(m)) == pytest.approx(prod, rel=1e-9, abs=1e-9)


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((2, 3))) == 0

    def test_full_rank_fixture(self):
        assert rank(A0) == 3

    def test_dependent_triple(self):
        assert rank(A0[:, [0, 1, 2]]) == 2

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n, k = rng.integers(1, 6, size=2)
            m = rng.integers(-4, 5, size=(n, k)).astype(float)
            assert rank(m) == oracles.exact_rank(m)

    def test_threshold_is_scale_relative(self):
        m = np.array([[1e6, 0.0], [0.0, 1e-12]])
        assert rank(m, Tolerance(abs=1e-9, rel=1e-9)) == 1


def rank_stack(seed, b, m, p, kind):
    """(b, m, p) stack: Gaussian, integer -2..2 with parallel columns, spread column scales, or near-parallel."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        stack = rng.integers(-2, 3, size=(b, m, p)).astype(float)
        if p >= 2:
            stack[:, :, -1] = rng.integers(-2, 3) * stack[:, :, 0]
        return stack
    stack = rng.normal(size=(b, m, p))
    if kind == "scaled":
        stack *= 10.0 ** rng.uniform(-4, 4, size=(b, 1, p))
    if kind == "near-parallel":  # the last column within 10^U(-12, -2) of the first
        stack[:, :, -1] = stack[:, :, 0] + 10.0 ** rng.uniform(-12, -2) * stack[:, :, -1]
    return stack


class TestRankBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.integers(0, 6),
        st.integers(0, 6),
        st.sampled_from(["gaussian", "integer", "scaled"]),
        st.sampled_from([Tolerance(), Tolerance(rel=1e-3)]),
    )
    def test_equals_rank_slice_by_slice(self, seed, b, m, p, kind, tol):
        stack = rank_stack(seed, b, m, p, kind)
        with warnings.catch_warnings():
            # slices that stop early must not divide by their sub-cut pivots
            warnings.simplefilter("error")
            got = rank_batch(stack, tol)
        assert got.shape == (b,)
        assert [int(r) for r in got] == [rank(x, tol) for x in stack]

    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(abs=0.0, rel=0.0)])
    def test_mixed_stopping_steps(self, tol):
        # with a zero tolerance the remainders are exact zeros, right at the cut
        stack = np.zeros((4, 3, 3))
        stack[1, 0, 0] = 1.0
        stack[2] = np.eye(3)
        stack[3, :2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank_batch(stack, tol).tolist() == [0, 1, 3, 1]
        assert [rank(x, tol) for x in stack] == [0, 1, 3, 1]
        assert [oracles.pivot_rank(x, tol) for x in stack] == [0, 1, 3, 1]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(1, 6),
        st.sampled_from(["gaussian", "integer", "scaled", "near-parallel"]),
        st.sampled_from([Tolerance(), Tolerance(rel=1e-3)]),
    )
    def test_equals_full_elimination(self, seed, b, m, p, kind, tol):
        # the last step decides on its pivot alone; the oracle also swaps and updates there
        stack = rank_stack(seed, b, m, p, kind)
        want = [oracles.pivot_rank(x, tol) for x in stack]
        assert [rank(x, tol) for x in stack] == want
        assert rank_batch(stack, tol).tolist() == want

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            rank_batch(np.eye(3))
        with pytest.raises(ValueError):
            rank_batch(np.full((2, 2, 2), np.nan))


class TestSubsetDeterminants:
    """``subset_measures`` over every subset of one size, against the one-det-per-subset loop."""

    def test_equals_loop_reference(self):
        rng = np.random.default_rng(23)
        for trial in range(80):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, 10))
            a = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, size=k)
            if trial % 2:
                a = rng.integers(-2, 3, size=(n, k)).astype(float)
            for size in range(n + 1):
                combos = numkit.subsets(k, size)
                want = list(oracles.loop_subset_determinants(a, size))
                assert [tuple(c) for c in combos.tolist()] == [c for c, _ in want]
                assert numkit.subset_measures(a, combos).tolist() == [d for _, d in want]

    def test_chunks_give_the_same_pairs(self, monkeypatch):
        a = np.random.default_rng(24).normal(size=(3, 8))
        whole = [numkit.subset_measures(a, numkit.subsets(8, s)).tolist() for s in (2, 3)]
        monkeypatch.setattr(numkit, "CHUNK_BYTES", 240)  # 5 or 3 subsets per stacked det
        assert [numkit.subset_measures(a, numkit.subsets(8, s)).tolist() for s in (2, 3)] == whole

    def test_size_above_rows_rejected(self):
        with pytest.raises(DimensionError):
            numkit.subset_measures(np.ones((2, 4)), numkit.subsets(4, 3))


class TestRankCensus:
    def test_subsets_and_their_index(self):
        for k in range(1, 8):
            for size in range(1, k + 1):
                rows = numkit.subsets(k, size)
                assert rows.tolist() == [list(c) for c in combinations(range(k), size)]
                assert numkit.subset_index(rows, k).tolist() == list(range(len(rows)))

    def test_ranks_equal_rank(self, monkeypatch):
        # entries in {-1, 0, 1} tie under complete pivoting; 4, 2 or 2 subsets per rank_batch
        a = np.random.default_rng(25).integers(-1, 2, size=(3, 7)).astype(float)
        monkeypatch.setattr(numkit, "CHUNK_BYTES", 192)
        for size in (2, 3, 4):
            combos = numkit.subsets(7, size)
            ranks = numkit.subset_ranks(a, [combos])[0]
            assert ranks.tolist() == [rank(a[:, c]) for c in combos.tolist()]

    def test_column_sums_equal_one_row_sums(self):
        rng = np.random.default_rng(26)
        a = rng.normal(size=(3, 12)) * 10.0 ** rng.uniform(-4, 4, size=12)
        columns = np.stack([rng.permutation(12) for _ in range(40)])
        mask = rng.random((40, 12)) < 0.6
        sums = numkit.column_sums(a, columns, mask)
        for row, cols, chosen in zip(sums, columns, mask):
            assert [x.hex() for x in row] == [x.hex() for x in a[:, cols[chosen]].sum(axis=1)]

    def test_column_sums_short_and_long_rows_bit_for_bit(self):
        # rows of 1-7 chosen columns take the cumulative sum, longer rows the grouped one
        rng = np.random.default_rng(27)
        long_rows = 0
        for trial in range(300):
            n, p = int(rng.integers(1, 5)), int(rng.integers(1, 14))
            if trial % 3 == 0:  # signed zeros and small integers
                a = rng.integers(-2, 3, size=(n, p)).astype(float)
                a[rng.random((n, p)) < 0.4] = -0.0
            elif trial % 3 == 1:  # columns that cancel exactly
                b = rng.normal(size=(n, p // 2 + 1))
                a = np.concatenate([b, -b], axis=1)[:, rng.permutation(p)]
            else:
                a = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-6, 6, size=p)
            a[:, rng.random(p) < 0.2] = -0.0  # whole -0.0 columns
            columns = np.stack([rng.permutation(p) for _ in range(6)]) if trial % 2 else np.arange(p)
            mask = rng.random((6, p)) < rng.uniform(0.2, 1.0)
            sums = numkit.column_sums(a, columns, mask)
            long_rows += int(np.count_nonzero(mask.sum(axis=1) >= 8))
            for row, cols, chosen in zip(sums, np.broadcast_to(columns, mask.shape), mask):
                want = a[:, cols[chosen]].sum(axis=1)
                assert row.tolist() == want.tolist() and np.signbit(row).tolist() == np.signbit(want).tolist()
        assert long_rows > 0

    def test_padded_census_equals_per_size_census(self):
        # sizes of one stacked, zero-padded call rank as each size alone
        rng = np.random.default_rng(28)
        for trial in range(160):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(n, n + 4))
            family = trial % 4
            if family == 0:  # rank-deficient
                r = int(rng.integers(1, n))
                a = rng.normal(size=(n, r)) @ rng.integers(-2, 3, size=(r, k))
            elif family == 1:  # one column within about 1e-9 of the span of two others
                a = rng.normal(size=(n, k))
                a[:, -1] = a[:, 0] + a[:, 1] + 10.0 ** rng.uniform(-11, -8) * rng.normal(size=n)
            elif family == 2:  # entries in {-1, 0, 1}: ties under complete pivoting
                a = rng.integers(-1, 2, size=(n, k)).astype(float)
            else:  # a nearly parallel pair, decided at rel = 1e-3
                a = rng.normal(size=(n, k))
                a[:, 1] = 2.0 * a[:, 0] + 10.0 ** rng.uniform(-5, -2) * rng.normal(size=n)
            tol = Tolerance(rel=1e-3) if family == 3 else Tolerance()
            sizes = list(range(1, k + 1))
            tables = [numkit.subsets(k, s) for s in sizes]
            got = numkit.subset_ranks(a, tables, tol)
            for s, ranks in zip(sizes, got):
                assert ranks.tolist() == numkit.subset_ranks(a, [numkit.subsets(k, s)], tol)[0].tolist()


class TestCrossProduct:
    def test_e1_e2_gives_e3(self):
        assert np.allclose(cross_product([[1, 0, 0], [0, 1, 0]]), [0, 0, 1])

    def test_fixture_first_two(self):
        assert np.allclose(cross_product([A0[:, 0], A0[:, 1]]), [0, 0, 1])

    def test_fixture_minor_expansion(self):
        # (a3, a5) in 1-based labelling; 2x2 minor expansion gives (1, -1, 2)
        assert np.allclose(cross_product([A0[:, 2], A0[:, 4]]), [1, -1, 2])

    def test_2d_rotation(self):
        assert np.allclose(cross_product([[3.0, 4.0]]), [4.0, -3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cross_product([[1, 0, 0]])

    def test_orthogonality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            vs = [rng.normal(size=n) for _ in range(n - 1)]
            c = cross_product(vs)
            for v in vs:
                assert abs(float(c @ v)) <= 1e-9 * max(1.0, np.linalg.norm(c) * np.linalg.norm(v))

    def test_norm_squared_is_gram_det(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            vs = [rng.normal(size=n) for _ in range(n - 1)]
            c = cross_product(vs)
            g = gram(np.column_stack(vs))
            assert float(c @ c) == pytest.approx(determinant(g), rel=1e-9, abs=1e-12)

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            vs = [rng.integers(-5, 6, size=n).astype(float) for _ in range(n - 1)]
            want = [float(x) for x in oracles.exact_cross(vs)]
            assert np.allclose(cross_product(vs), want)

    @pytest.mark.parametrize("budget", [numkit.CHUNK_BYTES, 600])
    def test_stack_equals_one_det_and_each_set(self, budget, monkeypatch):
        # 600 bytes: from 37 sets per run at n = 2 down to one at n >= 5
        monkeypatch.setattr(numkit, "CHUNK_BYTES", budget)
        rng = np.random.default_rng(1225)
        for trial in range(120):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(n, n + 4))
            coords = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4)
            if trial % 3 == 1:
                coords = rng.integers(-2, 3, size=(n, k)).astype(float)
            bases = numkit.subsets(k, n - 1)
            bases = bases[np.sort(rng.choice(len(bases), size=min(len(bases), 12), replace=False))]
            got = cross_product(numkit.column_subsets(coords, bases))
            assert got.flags.c_contiguous
            assert got.tobytes() == oracles.facet_normals(coords, bases).tobytes()
            for row, base in zip(got, bases):
                assert row.tobytes() == cross_product([coords[:, j] for j in base]).tobytes()

    def test_stack_shape_refused(self):
        with pytest.raises(DimensionError, match="got 3 in dim 3"):
            cross_product(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="vector entries must be finite"):
            cross_product(np.full((2, 3, 2), np.nan))


class TestGram:
    def test_identity(self):
        assert np.allclose(gram(np.eye(3)), np.eye(3))

    def test_first_pair(self):
        a1, b1 = gram_equal_pairs()[0]
        assert np.allclose(gram(a1), [[26, 8], [8, 10]])
        assert np.allclose(gram(b1), [[26, 8], [8, 10]])

    def test_orthonormal_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            m = rng.normal(size=(n, k))
            q = oracles.random_orthogonal(rng, n)
            assert np.abs(gram(q @ m) - gram(m)).max() <= 1e-12 * max(1.0, np.abs(gram(m)).max() * 10)


class TestQR:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        assert np.allclose(q, np.eye(3)) and np.allclose(r, np.eye(3))

    def test_sign_correction(self):
        q, r = qr_decompose([[2.0, 6.0], [0.0, -1.0]])
        assert np.allclose(q, [[1, 0], [0, -1]])
        assert np.allclose(r, [[2, 6], [0, 1]])

    def test_rectangular_reconstruction(self):
        a2 = gram_equal_pairs()[1][0]
        q, r = qr_decompose(a2)
        assert np.abs(q @ r - a2).max() <= 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegeneracyError):
            qr_decompose(np.ones((3, 2)))

    def test_random_contract(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, k))
            q, r = qr_decompose(m)
            assert np.linalg.norm(q @ r - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
            assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
            assert np.all(np.diag(r) > 0)


class TestCompound:
    def test_identity(self):
        for n in (2, 3, 4):
            assert np.allclose(compound(np.eye(n)), np.eye(n))

    def test_2x2_swap(self):
        assert np.allclose(compound([[1.0, 2.0], [3.0, 4.0]]), [[4, 3], [2, 1]])

    def test_sylvester_franke(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n))
            lhs = determinant(compound(m))
            rhs = determinant(m) ** (n - 1)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            compound(np.zeros((2, 3)))

    def test_stacked_minors_equal_the_loop(self):
        # one stacked det over all n^2 minors gives each minor's one-matrix value;
        # n = 1 keeps its empty minor, 1 (-1 when signed)
        rng = np.random.default_rng(1216)
        for trial in range(120):
            n = int(rng.integers(0, 7))
            m = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
            if trial % 3 == 1 and n > 1:  # singular: one row a combination of the others
                m[-1] = rng.normal(size=n - 1) @ m[:-1]
            elif trial % 3 == 2:
                m = np.round(m / max(np.abs(m).max(initial=0.0), 1e-300) * 2.0)
            for signed, fn in ((False, compound), (True, signed_compound)):
                got, want = fn(m), oracles.loop_minor_matrix(m, signed)
                assert got.shape == want.shape == (n, n)
                assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
        assert compound([[5.0]]).tolist() == [[1.0]] and signed_compound([[5.0]]).tolist() == [[-1.0]]


class TestSignedCompound:
    def test_identity_3x3(self):
        assert np.allclose(signed_compound(np.eye(3)), -np.eye(3))

    def test_identity_2x2(self):
        assert np.allclose(signed_compound(np.eye(2)), np.eye(2))

    def test_first_column_is_negated_cross(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            sc = signed_compound(m)
            assert np.allclose(sc[:, 0], -cross_product([m[:, 1], m[:, 2]]))

    def test_column_cross_identity(self):
        # column j = (-1)^(n+j) * cross(columns omit j), 0-based
        rng = np.random.default_rng(18)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n))
            sc = signed_compound(m)
            for j in range(n):
                rest = [m[:, c] for c in range(n) if c != j]
                want = (-1.0) ** (n + j) * cross_product(rest)
                assert np.allclose(sc[:, j], want, atol=1e-10)

    def test_cofactor_relation(self):
        # signed_compound = (-1)^n * cofactor, with cofactor = det(A) * inv(A)^T
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = rng.normal(size=(n, n)) + np.eye(n)
            cof = determinant(m) * np.linalg.inv(m).T
            assert np.allclose(signed_compound(m), (-1.0) ** n * cof, atol=1e-8)


class TestHelpers:
    def test_independent_columns(self):
        # the greedy reference picks the first independent subset of the census
        assert oracles.independent_columns(A0, Tolerance()) == [0, 1, 3]
        combos = numkit.subsets(A0.shape[1], 3)
        ranks = numkit.subset_ranks(A0, [combos])[0]
        assert combos[np.argmax(ranks == 3)].tolist() == [0, 1, 3]

    def test_sign_normalize(self):
        assert np.allclose(sign_normalize(np.array([-1.0, 2.0])), [1.0, -2.0])
        assert np.allclose(sign_normalize(np.array([0.0, -3.0])), [0.0, 3.0])
        # a stack of rows: each row as alone, with its own cut
        rows = np.array([[-1.0, 2.0], [0.0, -3.0], [1e-12, -1.0], [-1e-12, 1e-13], [0.0, 0.0]])
        stacked = sign_normalize(rows)
        for row, got in zip(rows, stacked):
            assert got.tobytes() == oracles.loop_sign_normalize(row, Tolerance()).tobytes()
