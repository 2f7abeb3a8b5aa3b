import numpy as np
import pytest

from zonokit.congruence import congruent_zonotopes, same_shape
from zonokit.errors import (
    DegeneracyError,
    DimensionError,
    NoRealRootError,
    ReconstructionError,
)
from zonokit.numkit import compound, determinant, gram
from zonokit.rigidity import (
    FacetDatum,
    exterior_root,
    minkowski_balance,
    parallelotope_from_facets,
    resign_for_compound,
    signature_congruence_check,
)
from zonokit.zonotope import Zonotope

import oracles


def random_nonsingular(rng, n, spread=2.0):
    m = rng.normal(size=(n, n)) * spread
    while abs(np.linalg.det(m)) < 0.1:
        m = rng.normal(size=(n, n)) * spread
    return m


class TestExteriorRoot:
    def test_identity(self):
        res = exterior_root(np.eye(3))
        assert np.allclose(res.root, np.eye(3))
        assert res.residual <= 1e-12

    def test_diagonal_roundtrip(self):
        a = np.diag([2.0, 1.0, 1.0])
        res = exterior_root(compound(a))
        assert np.allclose(res.root, a, atol=1e-9)

    def test_random_roundtrips(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            a = random_nonsingular(rng, n)
            b = compound(a)
            res = exterior_root(b)
            assert res.residual <= 1e-8
            if n % 2 == 0:
                # odd exterior power: the real root is unique and equals a
                assert np.allclose(res.root, a, atol=1e-7 * max(1.0, np.abs(a).max()))
            else:
                close = np.allclose(res.root, a, atol=1e-7) or np.allclose(
                    -res.root, a, atol=1e-7
                )
                assert close

    def test_odd_dimension_sign_ambiguity(self):
        rng = np.random.default_rng(72)
        a = random_nonsingular(rng, 3)
        res = exterior_root(compound(a))
        assert len(res.alternates) == 1
        alt = res.alternates[0]
        assert np.allclose(alt, -res.root)
        assert np.allclose(compound(alt), compound(res.root), atol=1e-8)

    def test_sylvester_franke_at_root(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            b = compound(random_nonsingular(rng, n))
            res = exterior_root(b)
            lhs = determinant(res.root) ** (n - 1)
            assert lhs == pytest.approx(determinant(b), rel=1e-8)

    def test_negative_det_odd_dimension_no_root(self):
        b = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NoRealRootError):
            exterior_root(b)

    def test_column_flips_recover_flipped_target(self):
        b = np.diag([1.0, 1.0, -1.0])
        res = exterior_root(b, allow_column_flips=True)
        assert res.column_signs.count(-1) >= 1
        target = b * np.asarray(res.column_signs, dtype=float)
        assert np.linalg.norm(compound(res.root) - target) <= 1e-8 * np.linalg.norm(target)

    def test_singular_rejected(self):
        with pytest.raises(DegeneracyError):
            exterior_root(np.ones((3, 3)))

    def test_too_small_rejected(self):
        with pytest.raises(DimensionError):
            exterior_root(np.array([[2.0]]))

    def test_overflowing_determinant_refused(self):
        # finite entries whose determinant, 1e400, overflows: refused without a RuntimeWarning
        with pytest.raises(ValueError, match="^the determinant of the matrix overflows float64$"):
            exterior_root(np.diag([1e200, 1e200]))


class TestCompoundGramIdentity:
    def test_identity_on_random(self):
        # Gram of the compound equals the compound of the Gram
        rng = np.random.default_rng(74)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            a = random_nonsingular(rng, n)
            lhs = gram(compound(a))
            rhs = compound(gram(a))
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale


class TestParallelotopeFromFacets:
    def test_unit_cube(self):
        data = [FacetDatum(np.eye(3)[:, i], 1.0) for i in range(3)]
        a = parallelotope_from_facets(data)
        assert abs(abs(np.linalg.det(a)) - 1.0) <= 1e-9
        vols = sorted(f.volume for f in Zonotope(a).geometric_facets())
        assert np.allclose(vols, 1.0)

    def test_box_with_areas_1_2_3(self):
        data = [FacetDatum(np.eye(3)[:, i], float(i + 1)) for i in range(3)]
        a = parallelotope_from_facets(data)
        z = Zonotope(a)
        areas = sorted(round(f.volume, 9) for f in z.geometric_facets())
        assert np.allclose(areas, [1, 1, 2, 2, 3, 3], atol=1e-7)
        assert z.volume() == pytest.approx(np.sqrt(6.0), abs=1e-7)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            normals = rng.normal(size=(3, 3))
            while abs(np.linalg.det(normals)) < 0.2:
                normals = rng.normal(size=(3, 3))
            normals /= np.linalg.norm(normals, axis=0)
            vols = rng.uniform(0.5, 3.0, size=3)
            data = [FacetDatum(normals[:, i], float(vols[i])) for i in range(3)]
            a = parallelotope_from_facets(data)
            z = Zonotope(a)
            facets = z.geometric_facets()
            assert len(facets) == 6
            for d in data:
                hits = [
                    f
                    for f in facets
                    if min(
                        np.abs(f.unit_normal - d.unit_normal).max(),
                        np.abs(f.unit_normal + d.unit_normal).max(),
                    )
                    <= 1e-7
                    and abs(f.volume - d.volume) <= 1e-7 * max(1.0, d.volume)
                ]
                assert len(hits) == 2

    def test_unique_up_to_signed_permutation(self):
        rng = np.random.default_rng(76)
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=0)
        vols = [1.0, 1.5, 2.0]
        data = [FacetDatum(normals[:, i], vols[i]) for i in range(3)]
        a1 = parallelotope_from_facets(data)
        shuffled = [data[2], data[0], data[1]]
        a2 = parallelotope_from_facets(shuffled)
        w = congruent_zonotopes(a1, a2)
        assert w is not None

    def test_dependent_normals_rejected(self):
        u = np.array([1.0, 0.0, 0.0])
        data = [FacetDatum(u, 1.0), FacetDatum(u, 2.0), FacetDatum(np.array([0.0, 1.0, 0.0]), 1.0)]
        with pytest.raises(DegeneracyError):
            parallelotope_from_facets(data)

    def test_bad_datum_rejected(self):
        with pytest.raises(ValueError):
            FacetDatum(np.array([1.0, 1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            FacetDatum(np.array([1.0, 0.0, 0.0]), -2.0)


class TestMinkowskiBalance:
    def test_opposite_pair_cancels(self):
        u = np.array([0.6, 0.8])
        data = [FacetDatum(u, 2.0), FacetDatum(-u, 2.0)]
        assert np.allclose(minkowski_balance(data), 0.0)

    def test_unbalanced(self):
        data = [FacetDatum(np.array([1.0, 0.0]), 1.0), FacetDatum(np.array([0.0, 1.0]), 1.0)]
        assert np.allclose(minkowski_balance(data), [1.0, 1.0])

    def test_zonotope_boundary_balances(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 8))
            m = rng.normal(size=(n, k))
            if np.linalg.matrix_rank(m) < n:
                continue
            z = Zonotope(m)
            data = [FacetDatum(bf.unit_normal, bf.volume) for bf in z.bounding_facets()]
            surface = sum(d.volume for d in data)
            assert np.linalg.norm(minkowski_balance(data)) <= 1e-9 * surface


class TestFacetCongruenceCheck:
    """Congruent facets against a congruent body: ``same_shape`` on the facets' and the whole matrices."""

    def test_three_facet_grams_force_full_gram(self):
        rng = np.random.default_rng(79)
        for n in (4, 5):
            for _ in range(10):
                a = rng.normal(size=(n, n))
                while abs(np.linalg.det(a)) < 0.1:
                    a = rng.normal(size=(n, n))
                b = oracles.random_orthogonal(rng, n) @ a
                picks = rng.choice(n, size=3, replace=False)
                for j in picks:
                    cols = [c for c in range(n) if c != j]
                    assert same_shape(a[:, cols], b[:, cols])
                assert same_shape(a, b)


class TestSignatureCongruenceCheck:
    def test_signed_permutation_copy(self):
        rng = np.random.default_rng(80)
        a = rng.normal(size=(3, 5))
        while np.linalg.matrix_rank(a) < 3:
            a = rng.normal(size=(3, 5))
        sigma, signs = oracles.random_signed_permutation(rng, 5)
        b = a[:, sigma] * signs
        report = signature_congruence_check(Zonotope(a), Zonotope(b))
        assert report.raw_equal
        assert report.census_match
        assert report.witness is not None
        assert report.aligned_equal

    def test_rotated_square(self):
        theta = np.pi / 6
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        report = signature_congruence_check(
            Zonotope(np.eye(2)), Zonotope(rot @ np.eye(2))
        )
        assert not report.raw_equal
        assert report.witness is not None
        assert report.aligned_equal

    def test_rectangles_transposed(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([2.0, 1.0])
        report = signature_congruence_check(Zonotope(a), Zonotope(b))
        assert report.witness is not None
        assert report.witness.sigma == (1, 0)
        assert report.aligned_equal

    def test_planar_counterexample(self):
        # equal edge lengths, different angle: edges congruent, zonogons not
        a = np.eye(2)
        theta = np.pi / 5
        b = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
        report = signature_congruence_check(Zonotope(a), Zonotope(b))
        assert report.census_match
        assert not report.raw_equal
        assert report.witness is None
        assert not report.aligned_equal


class TestResign:
    def test_involution(self):
        rng = np.random.default_rng(81)
        for n in (2, 3, 4, 5):
            b = rng.normal(size=(n, n))
            assert np.allclose(resign_for_compound(resign_for_compound(b)), b)

    def test_signed_vs_unsigned_compound(self):
        from zonokit.numkit import signed_compound

        rng = np.random.default_rng(82)
        for n in (2, 3, 4):
            a = rng.normal(size=(n, n))
            assert np.allclose(resign_for_compound(compound(a)), signed_compound(a))
