import functools
import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zonokit
from zonokit import cli, tiling
from zonokit.errors import CapacityError, DegeneracyError, DimensionError, MeshSurfaceError, ZonokitError
from zonokit.numkit import Tolerance
from zonokit.zonotope import VERTEX_ENUM_LIMIT, RankDeficiencyWarning, Zonotope, signatures_match

import oracles
from fixture_matrices import (
    hex_facet_generators,
    near_cut_default_tol,
    near_cut_rank_deficient,
    near_cut_wide_tol,
    perturbed_hex_generators,
    scale_dependent_closure,
    spread_scale_mesh,
)

A0 = hex_facet_generators()


def random_zonotope(rng, n, k, span=4):
    m = rng.integers(-span, span + 1, size=(n, k)).astype(float)
    while oracles.exact_rank(m) < n or np.any(np.all(m == 0, axis=0)):
        m = rng.integers(-span, span + 1, size=(n, k)).astype(float)
    return Zonotope(m)


def count_parallel_classes(matrix, columns):
    dirs = set()
    for j in columns:
        v = matrix[:, j]
        lead = next(x for x in v if x != 0)
        dirs.add(tuple(np.round(v / lead, 9)))
    return len(dirs)


class TestConstruction:
    def test_strips_zero_columns(self):
        with pytest.warns(RankDeficiencyWarning):
            z = Zonotope([[1.0, 0.0], [0.0, 0.0]])
        assert z.k == 1
        assert z.stripped_columns == (1,)

    def test_all_zero_rejected(self):
        with pytest.warns(RankDeficiencyWarning):
            with pytest.raises(DegeneracyError):
                Zonotope(np.zeros((2, 2)))

    def test_overflowing_length_named_by_input_column(self):
        # column 0 would be stripped as zero beside the 1e200 column, which keeps its input index
        with pytest.raises(ValueError, match="length of column 2 overflows"):
            Zonotope([[1.0, 0.0, 1e200], [0.0, 1.0, 0.0]])
        assert Zonotope(np.diag([1e150, 1e150])).rank == 2

    def test_overflowing_minors_named_by_columns(self):
        # finite lengths, but the 3 x 3 minor 1e450 and the facet normal lengths, sqrt(2e600), overflow
        z = Zonotope(np.diag([1e150, 1e150, 1e150]))
        with pytest.raises(ValueError, match=r"^the 3-volume of columns \(0, 1, 2\) overflows float64$"):
            z.volume()
        with pytest.raises(ValueError, match=r"^the normal length of the facet on columns \(0, 1\) overflows float64$"):
            z.vertices()
        # minors 1e150 and normal lengths squared 1e300 stay finite
        assert len(Zonotope(np.diag([1e75, 1e75, 1e75])).vertices()) == 8

    def test_rank_cached(self):
        z = Zonotope(A0)
        assert z.rank == 3

    def test_parallel_classes_recorded(self):
        z = Zonotope(np.array([[1.0, 2.0, 0.0, -3.0], [0.0, 0.0, 1.0, 0.0]]))
        assert z.parallel_classes == [(0, 1, 3), (2,)]
        assert Zonotope(A0).parallel_classes == [(i,) for i in range(5)]


class TestCenter:
    def test_unit_cube(self):
        assert np.allclose(Zonotope(np.eye(3)).center(), [0.5, 0.5, 0.5])

    def test_fixture(self):
        assert np.allclose(Zonotope(A0).center(), [0.5, 1.5, 1.0])

    def test_single_segment(self):
        assert np.allclose(Zonotope([[2.0], [0.0]]).center(), [1.0, 0.0])


class TestGeneratingFaces:
    def test_fixture_2_faces(self):
        faces = Zonotope(A0).generating_faces(2)
        expect = [(0, 1, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert [f.columns for f in faces] == expect

    def test_fixture_against_exhaustive_oracle(self):
        # maximal rank-2 subsets by exhaustive enumeration over all subsets
        from itertools import combinations

        maximal = set()
        cols = range(5)
        for size in range(1, 6):
            for combo in combinations(cols, size):
                if oracles.exact_rank(A0[:, combo]) != 2:
                    continue
                if any(
                    oracles.exact_rank(A0[:, combo + (j,)]) == 2
                    for j in cols
                    if j not in combo
                ):
                    continue
                maximal.add(combo)
        got = {f.columns for f in Zonotope(A0).generating_faces(2)}
        assert got == maximal

    def test_cube(self):
        faces = Zonotope(np.eye(3)).generating_faces(2)
        assert [f.columns for f in faces] == [(0, 1), (0, 2), (1, 2)]

    def test_parallel_class_merges(self):
        z = Zonotope(np.array([[1.0, 2.0]]))
        faces = z.generating_faces(1)
        assert [f.columns for f in faces] == [(0, 1)]

    def test_zero_faces_are_generators(self):
        faces = Zonotope(A0).generating_faces(0)
        assert [f.columns for f in faces] == [(i,) for i in range(5)]

    def test_out_of_range(self):
        with pytest.raises(DegeneracyError):
            Zonotope(A0).generating_faces(4)

    def test_seventy_columns_in_the_plane(self):
        # 70 closed 1-faces; int64 sign masks of these columns would merge columns 63..69
        z = Zonotope(np.random.default_rng(70).normal(size=(2, 70)))
        faces = [f.columns for f in z.generating_faces(1)]
        assert faces == [(i,) for i in range(70)]
        assert z.parallel_classes == faces
        assert len(z.bounding_facets()) == 140
        assert tiling.validate_tiling(z, tiling.tile_zonotope(z)).ok

    def test_chunked_closures_give_the_same_faces(self, monkeypatch):
        z = Zonotope(np.random.default_rng(9).integers(-2, 3, size=(4, 8)).astype(float) + np.eye(4, 8))
        whole = [z.generating_faces(s) for s in range(1, 5)]
        monkeypatch.setattr(zonokit.numkit, "SUBSET_BATCH", 20)  # 2 subsets per chunk at k = 8
        z = Zonotope(z.matrix)
        assert [z.generating_faces(s) for s in range(1, 5)] == whole


def closure_inputs():
    """(matrix, tol) pairs for the closure differential: seeded families, near-cut and scale fixtures, the plane."""
    rng = np.random.default_rng(2207)
    for trial in range(48):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(n, 13))
        family = trial % 4
        if family == 0:
            a = rng.normal(size=(n, k))
        elif family in (1, 2):  # integer entries -2..2, or 0/1
            low, high = (-2, 3) if family == 1 else (0, 2)
            a = rng.integers(low, high, size=(n, k)).astype(float)
            a[0, ~a.any(axis=0)] = 1.0
        else:  # the second half of the columns parallel or antiparallel to the first half's
            a = rng.normal(size=(n, k))
            half = k // 2
            a[:, half:] = a[:, rng.integers(0, half, size=k - half)] * rng.choice([-2.0, -1.0, 0.5, 3.0], size=k - half)
        yield a, Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()
    near_cut = (near_cut_default_tol, near_cut_wide_tol, near_cut_rank_deficient)
    for fixture in near_cut + (scale_dependent_closure, spread_scale_mesh):
        for tol in (Tolerance(), Tolerance(rel=1e-3)):
            yield fixture(), tol
    yield np.random.default_rng(70).normal(size=(2, 70)), Tolerance()


class TestClosuresAgainstLookup:
    """The closures scattered from the dependent (s+1)-subsets equal the per-(subset, column) lookups byte for byte."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    @pytest.mark.parametrize("batch", [None, 7], ids=["default-batch", "batch-7"])
    def test_seeded_differential(self, batch, monkeypatch):
        if batch is not None:
            monkeypatch.setattr(zonokit.numkit, "SUBSET_BATCH", batch)
        levels = 0
        for a, tol in closure_inputs():
            z = Zonotope(a, tol)
            for s in range(1, z.rank + 1):
                for got, want in zip(z._closures(s), oracles.lookup_closures(z, s), strict=True):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                levels += 1
        assert levels > 200


class TestBoundingFacets:
    def test_cube_normals(self):
        bfs = Zonotope(np.eye(3)).bounding_facets()
        assert len(bfs) == 6
        normals = sorted(tuple(np.round(bf.unit_normal, 9)) for bf in bfs)
        expect = sorted(
            tuple(v)
            for v in [
                (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
            ]
        )
        assert normals == [tuple(float(x) for x in e) for e in expect]

    def test_fixture_count(self):
        assert len(Zonotope(A0).bounding_facets()) == 16

    def test_perturbed_count(self):
        assert len(Zonotope(perturbed_hex_generators(0.1)).bounding_facets()) == 20

    def test_sides_have_opposite_normals(self):
        bfs = Zonotope(A0).bounding_facets()
        by_face = {}
        for bf in bfs:
            by_face.setdefault(bf.generating.columns, []).append(bf)
        for pair in by_face.values():
            assert len(pair) == 2
            assert np.allclose(pair[0].unit_normal, -pair[1].unit_normal)

    def test_partition(self):
        for bf in Zonotope(A0).bounding_facets():
            parts = set(bf.generating.columns) | set(bf.negative_set) | set(bf.positive_set)
            assert parts == set(range(5))
            assert not (set(bf.negative_set) & set(bf.positive_set))

    def test_facet_generators_orthogonal_to_normal(self):
        for bf in Zonotope(A0).bounding_facets():
            for j in bf.generating.columns:
                assert abs(float(A0[:, j] @ bf.unit_normal)) <= 1e-9

    def test_rank_one_rejected(self):
        with pytest.raises(DegeneracyError):
            Zonotope([[1.0], [0.0]]).bounding_facets()

    @pytest.mark.parametrize("fixture", [scale_dependent_closure, spread_scale_mesh])
    def test_spread_column_scales_give_the_exact_facets(self, fixture):
        a = fixture()
        z = Zonotope(a)
        assert z.rank == a.shape[0]
        want = oracles.exact_faces(a, z.rank - 1)
        assert [f.columns for f in z.generating_faces(z.rank - 1)] == want
        assert len(want) == {4: 10, 3: 15}[z.rank]
        assert [bf.generating.columns for bf in z.bounding_facets()] == [c for c in want for _ in range(2)]
        for bf in z.bounding_facets():
            for j in bf.generating.columns:
                assert abs(float(z.directions[:, j] @ bf.unit_normal)) <= 1e-9

    def test_minkowski_balance(self):
        # facet volume times outward normal sums to zero over the boundary
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 9))
            z = random_zonotope(rng, n, k)
            if z.rank < 2:
                continue
            bfs = z.bounding_facets()
            total = sum(bf.volume * bf.unit_normal for bf in bfs)
            surface = sum(bf.volume for bf in bfs)
            assert np.linalg.norm(total) <= 1e-9 * max(surface, 1.0)


class TestGeometricFacets:
    def test_cube(self):
        gfs = Zonotope(np.eye(3)).geometric_facets()
        assert len(gfs) == 6
        assert all(f.volume == pytest.approx(1.0) for f in gfs)

    def test_fixture_matches_support_oracle(self):
        gfs = Zonotope(A0).geometric_facets()
        oracle = oracles.support_facets(A0)
        assert len(gfs) == len(oracle) == 16
        got = sorted(round(f.volume, 6) for f in gfs)
        want = sorted(round(v, 6) for _, _, v in oracle)
        assert got == want

    def test_perturbed_matches_support_oracle(self):
        a = perturbed_hex_generators(0.1)
        gfs = Zonotope(a).geometric_facets()
        assert len(gfs) == len(oracles.support_facets(a)) == 20

    def test_parallelogram_facet_lower_bound(self):
        # every rank-3 zonotope with >= 3 pairwise independent generators has
        # at least 6 facets whose generating face has exactly 2 directions
        rng = np.random.default_rng(22)
        for _ in range(50):
            z = random_zonotope(rng, 3, int(rng.integers(3, 7)))
            paras = [
                f
                for f in z.geometric_facets()
                if count_parallel_classes(z.matrix, f.generating.columns) == 2
            ]
            assert len(paras) >= 6

    def test_order_is_the_rounded_tuple_sort(self):
        # the lexsort equals sorting by (rounded normal tuple, rounded support), ties in table order
        rng = np.random.default_rng(23)
        for trial in range(60):
            k = int(rng.integers(3, 10))
            z = random_zonotope(rng, 3, k) if trial % 2 else Zonotope(rng.normal(size=(3, k)))
            want = sorted(
                z.bounding_facets(), key=lambda bf: (tuple(np.round(bf.unit_normal, 9)), round(bf.support, 9))
            )
            assert z.geometric_facets() == want


class TestVolume:
    def test_cube(self):
        assert Zonotope(np.eye(3)).volume() == pytest.approx(1.0)

    def test_fixture_exact(self):
        assert Zonotope(A0).volume() == pytest.approx(float(oracles.minor_sum_volume(A0, 3)))
        assert Zonotope(A0).volume() == pytest.approx(10.0, abs=1e-8)

    def test_planar(self):
        z = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert z.volume() == pytest.approx(3.0)

    def test_rank_deficient_warns(self):
        z = Zonotope(A0[:, [0, 1, 2]])
        with pytest.warns(RankDeficiencyWarning):
            v = z.volume()
        assert v == pytest.approx(3.0)

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            z = random_zonotope(rng, n, int(rng.integers(n, 8)))
            sigma, signs = oracles.random_signed_permutation(rng, z.k)
            v1 = z.volume()
            v2 = Zonotope(z.matrix[:, sigma] * signs).volume()
            assert v1 == pytest.approx(v2, rel=1e-10)

    def test_linear_map_scaling(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            z = random_zonotope(rng, n, int(rng.integers(n, 8)))
            m = rng.normal(size=(n, n))
            v1 = Zonotope(m @ z.matrix).volume()
            assert v1 == pytest.approx(abs(np.linalg.det(m)) * z.volume(), rel=1e-8)

    def test_symmetric_cone_decomposition(self):
        # (1/n) * facet volume * total projection height sums to the volume
        rng = np.random.default_rng(25)
        zs = [Zonotope(A0)] + [random_zonotope(rng, 3, 6) for _ in range(20)]
        for z in zs:
            total = 0.0
            for face in z.generating_faces(z.rank - 1):
                bf = next(
                    b for b in z.bounding_facets() if b.generating.columns == face.columns
                )
                heights = sum(
                    abs(float(z.matrix[:, j] @ bf.unit_normal))
                    for j in range(z.k)
                    if j not in face.columns
                )
                total += z.facet_volume(face) * heights / z.n
            assert total == pytest.approx(z.volume(), rel=1e-8)


class TestMVolume:
    def test_segment_length(self):
        z = Zonotope([[3.0], [4.0]])
        assert z.m_volume(1) == pytest.approx(5.0)

    def test_hexagon_area_vs_shoelace(self):
        sub = Zonotope(A0[:, [0, 1, 2]])
        assert sub.m_volume(2) == pytest.approx(3.0)
        flat = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        verts = flat.vertices()
        center = np.mean(verts, axis=0)
        verts.sort(key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
        assert sub.m_volume(2) == pytest.approx(oracles.shoelace_area(verts))

    def test_full_rank_matches_volume(self):
        z = Zonotope(A0)
        assert z.m_volume(3) == pytest.approx(z.volume())

    def test_wrong_m_rejected(self):
        with pytest.raises(DimensionError):
            Zonotope(A0).m_volume(2)


def minor_table_inputs():
    """Seeded matrices: full rank, rank-deficient, k < n, n = 1, and with zero or tiny columns."""
    rng = np.random.default_rng(1215)
    for trial in range(80):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        a = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4)
        kind = trial % 4
        if kind == 1 and n > 1:  # columns in a subspace of lower dimension
            a = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, k))
        elif kind == 2 and k > 1:
            a[:, rng.choice(k, size=int(rng.integers(1, k)), replace=False)] *= rng.choice([0.0, 1e-10, 1e-8])
        elif kind == 3:
            a = np.round(a / np.abs(a).max() * 3.0)  # integer entries, ties and dependent subsets
            a[0, ~a.any(axis=0)] = 1.0
        yield a
    yield np.zeros((2, 3))
    yield np.array([[1.0, Tolerance().threshold(1.0), 0.5], [0.0, 0.0, 1.0]])  # a column exactly at the cut


class TestMinorTable:
    """The cached minor table gives the volume, summed exactly as the per-subset loop adds it."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_volumes_equal_the_loop_sum(self):
        for a in minor_table_inputs():
            if not np.abs(a).max(axis=0).any():
                continue
            z = Zonotope(a)
            want = oracles._loop_subset_volume(z.matrix, z.rank)
            assert z.volume().hex() == want.hex()
            assert z.m_volume(z.rank).hex() == want.hex()
            table = z.subset_measures(z.rank)
            loop = [d.hex() for _, d in oracles.loop_subset_determinants(z.matrix, z.rank)]
            assert [x.hex() for x in table.tolist()] == loop
            assert z.subset_measures(z.rank) is table and not table.flags.writeable

    def test_stripped_columns_equal_the_loop(self):
        for a in minor_table_inputs():
            want = oracles.loop_stripped_columns(a, Tolerance())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if len(want) == a.shape[1]:
                    with pytest.raises(DegeneracyError):
                        Zonotope(a)
                    continue
                z = Zonotope(a)
            assert z.stripped_columns == want
            assert [str(w.message) for w in caught] == ([f"stripped zero generators at columns {want}"] if want else [])
            assert np.array_equal(z.matrix, a[:, [j for j in range(a.shape[1]) if j not in want]])


class TestFacetVolume:
    def test_cube_face(self):
        z = Zonotope(np.eye(3))
        face = next(f for f in z.generating_faces(2) if f.columns == (0, 1))
        assert z.facet_volume(face) == pytest.approx(1.0)

    def test_hexagon_face(self):
        z = Zonotope(A0)
        face = next(f for f in z.generating_faces(2) if f.columns == (0, 1, 2))
        assert z.facet_volume(face) == pytest.approx(3.0)

    def test_cross_norm_face(self):
        z = Zonotope(A0)
        face = next(f for f in z.generating_faces(2) if f.columns == (2, 4))
        assert z.facet_volume(face) == pytest.approx(np.sqrt(6.0))

    def test_wrong_dim_rejected(self):
        z = Zonotope(A0)
        face = z.generating_faces(1)[0]
        with pytest.raises(DimensionError):
            z.facet_volume(face)


class TestZone:
    def test_cube(self):
        got = [f.columns for f in Zonotope(np.eye(3)).zone(0)]
        assert got == [(0, 1), (0, 2)]

    def test_fixture_zone_of_fourth(self):
        got = [f.columns for f in Zonotope(A0).zone(3)]
        assert got == [(0, 3), (1, 3), (2, 3), (3, 4)]

    def test_fixture_zone_of_first(self):
        got = [f.columns for f in Zonotope(A0).zone(0)]
        assert got == [(0, 1, 2), (0, 3), (0, 4)]

    def test_index_range(self):
        with pytest.raises(IndexError):
            Zonotope(A0).zone(5)

    def test_zone_pairing_rank3(self):
        # any two independent generators lie in exactly 2 bounding facets
        rng = np.random.default_rng(26)
        for _ in range(25):
            z = random_zonotope(rng, 3, int(rng.integers(4, 8)))
            bfs = z.bounding_facets()
            for i in range(z.k):
                for j in range(i + 1, z.k):
                    if oracles.exact_rank(z.matrix[:, [i, j]]) != 2:
                        continue
                    hits = [
                        bf
                        for bf in bfs
                        if i in bf.generating.columns and j in bf.generating.columns
                    ]
                    assert len(hits) == 2


class TestVertices:
    def test_unit_square(self):
        verts = Zonotope(np.eye(2)).vertices()
        assert sorted(map(tuple, verts)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hexagon_against_hull(self):
        z = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        verts = z.vertices()
        assert len(verts) == 6
        masks = (np.arange(8)[:, None] >> np.arange(3)) & 1
        cloud = masks.astype(float) @ z.matrix.T
        assert {tuple(np.round(v, 9)) for v in verts} == oracles.hull_vertex_set(cloud)

    def test_fixture_against_hull(self):
        z = Zonotope(A0)
        verts = z.vertices()
        masks = (np.arange(32)[:, None] >> np.arange(5)) & 1
        cloud = masks.astype(float) @ A0.T
        hull = oracles.hull_vertex_set(cloud)
        assert len(verts) == len(hull) == 20
        assert {tuple(np.round(v, 9)) for v in verts} == hull

    def test_random_against_hull(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(n, 7))
            z = random_zonotope(rng, n, k)
            masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
            cloud = masks.astype(float) @ z.matrix.T
            got = {tuple(np.round(v, 9)) for v in z.vertices()}
            assert got == oracles.hull_vertex_set(cloud)

    def test_central_symmetry(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            z = random_zonotope(rng, 3, 5)
            verts = z.vertices()
            c = z.center()
            keyset = {tuple(np.round(v, 8)) for v in verts}
            for v in verts:
                assert tuple(np.round(2 * c - v, 8)) in keyset

    def test_capacity(self):
        with pytest.raises(CapacityError):
            Zonotope(np.random.default_rng(0).normal(size=(2, 17))).vertices()

    def test_at_the_cap(self):
        # a generic 3 x k zonotope has 2 (C(k-1, 0) + C(k-1, 1) + C(k-1, 2)) vertices;
        # at k = VERTEX_ENUM_LIMIT = 16 the sign masks use bit 15
        z = Zonotope(np.random.default_rng(36).normal(size=(3, VERTEX_ENUM_LIMIT)))
        points, signs = z.vertices(), z.vertex_sign_vectors()
        assert len(points) == len(set(signs)) == 2 * (1 + 15 + 105) == 242
        assert {frozenset(range(16)) - s for s in signs} == set(signs)
        assert any(15 in s for s in signs)
        for p, s in zip(points, signs):
            assert np.allclose(p, z.matrix[:, sorted(s)].sum(axis=1), rtol=0.0, atol=1e-12)
        assert oracles.off_is_sphere(cli.off_mesh(z))

    def test_degenerate_integer_against_hull(self):
        # entries in -2..2 with forced parallel and antiparallel column pairs
        rng = np.random.default_rng(31)
        for _ in range(40):
            k = int(rng.integers(3, 11))
            while True:
                m = rng.integers(-2, 3, size=(3, k)).astype(float)
                for j in rng.choice(k, size=k // 3, replace=False):
                    i = int(rng.integers(k))
                    factor = rng.choice([1.0, -1.0, 2.0, -2.0] if np.abs(m[:, i]).max() <= 1 else [1.0, -1.0])
                    m[:, j] = factor * m[:, i]
                if np.all(np.abs(m).sum(axis=0) > 0) and oracles.exact_rank(m) == 3:
                    break
            z = Zonotope(m)
            masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
            cloud = masks.astype(float) @ m.T
            got = {tuple(np.round(v, 9)) for v in z.vertices()}
            assert len(got) == len(z.vertices())
            assert got == oracles.hull_vertex_set(cloud)

    def test_rank4_and_deficient_rank3_against_hull(self):
        # rank 4 recurses through rank-3 faces, whose ridges two facets share
        rng = np.random.default_rng(32)
        for i in range(8):
            k = int(rng.integers(5, 8))
            m = rng.integers(-2, 3, size=(4, k)).astype(float)
            if i % 2:  # rank 3 inside R^4
                m = rng.integers(-1, 2, size=(4, 3)).astype(float) @ m[:3]
            if np.any(np.all(m == 0, axis=0)):
                continue
            z = Zonotope(m)
            masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
            cloud = masks.astype(float) @ m.T
            got = {tuple(np.round(v, 9)) for v in z.vertices()}
            assert len(got) == len(z.vertices())
            assert got == oracles.hull_vertex_set(cloud)

    def test_rank1_segment_in_plane(self):
        z = Zonotope(np.array([[1.0, 2.0, -1.0], [1.0, 2.0, -1.0]]))
        assert [tuple(v) for v in z.vertices()] == [(-1.0, -1.0), (3.0, 3.0)]
        assert z.vertex_sign_vectors() == [frozenset({2}), frozenset({0, 1})]

    def test_rank2_hexagon_in_space(self):
        # a, b, a + b and -a span a plane in R^3: a hexagon whose a-edges have length 2
        a, b = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])
        z = Zonotope(np.column_stack([a, b, a + b, -a]))
        want = {(-1, 0, -1), (1, 0, 1), (2, 1, 3), (2, 2, 4), (0, 2, 2), (-1, 1, 0)}
        assert {tuple(np.round(v, 12)) for v in z.vertices()} == want
        assert len(z.vertices()) == 6
        for v, s in zip(z.vertices(), z.vertex_sign_vectors()):
            assert np.allclose(z.matrix[:, sorted(s)].sum(axis=1), v)

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.integers(-2, 2), min_size=21, max_size=21),
        k=st.integers(3, 7),
        scales=st.lists(st.floats(1e-2, 1e2), min_size=7, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariant_under_rotation_scaling_permutation_flips(self, entries, k, scales, seed):
        m = np.array(entries, dtype=float).reshape(3, 7)[:, :k]
        assume(np.all(np.abs(m).sum(axis=0) > 0) and oracles.exact_rank(m) == 3)
        rng = np.random.default_rng(seed)
        sigma = rng.permutation(k)
        signs = rng.choice([-1.0, 1.0], size=k)
        moved = (oracles.random_orthogonal(rng, 3) @ m * np.array(scales[:k]))[:, sigma] * signs
        z, z2 = Zonotope(m), Zonotope(moved)
        assert len(z2.vertices()) == len(z.vertices())
        # column p of the moved matrix is column sigma[p], flipped where signs[p] < 0;
        # a flip re-anchors the zonotope, toggling p in every sign vector
        want = {
            frozenset(p for p in range(k) if (sigma[p] in s) != (signs[p] < 0))
            for s in z.vertex_sign_vectors()
        }
        assert set(z2.vertex_sign_vectors()) == want

    def test_no_sub_zonotopes(self, monkeypatch):
        z = Zonotope(np.random.default_rng(33).normal(size=(5, 10)))
        built = []
        init = Zonotope.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Zonotope, "__init__", counting)
        assert len(z.vertices()) > 0
        assert built == []

    def test_one_qr_per_face_level(self, monkeypatch):
        # each vertex level above 2 takes one stacked QR, and the parallel classes
        # are the closed 1-faces: the one rank call is Zonotope.rank's
        calls = []
        for owner, name in ((np.linalg, "qr"), (zonokit.numkit, "rank")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
        z = Zonotope(np.random.default_rng(35).normal(size=(5, 12)))
        assert len(z.vertices()) > 0 and len(z.parallel_classes) == 12
        assert calls.count("qr") <= z.rank + 1
        assert calls.count("rank") == 1

    def test_capacity_before_faces(self, monkeypatch):
        # no face level is closed and no subset is ranked before the cap check
        calls = []
        closures, ranks = Zonotope._closures, zonokit.numkit.subset_ranks
        monkeypatch.setattr(Zonotope, "_closures", lambda self, s: calls.append(s) or closures(self, s))
        monkeypatch.setattr(zonokit.numkit, "subset_ranks", lambda *a: calls.append(a) or ranks(*a))
        with pytest.raises(CapacityError):
            Zonotope(np.random.default_rng(34).normal(size=(3, 17))).vertices()
        assert calls == []

    @pytest.mark.parametrize(
        "matrix, tol",
        [(near_cut_default_tol(), Tolerance()), (near_cut_wide_tol(), Tolerance(rel=1e-3))],
        ids=["default", "rel=1e-3"],
    )
    def test_near_cut_sign_vectors_closed_under_complement(self, matrix, tol):
        # some closed 2-faces have rank 3 as column sets; the level passes still close under complement
        z = Zonotope(matrix, tol)
        signs = set(z.vertex_sign_vectors())
        assert len(signs) == len(z.vertices()) > 0
        assert {frozenset(range(z.k)) - s for s in signs} == signs

    def test_near_cut_rank_deficient(self):
        # the top level comes from the facet table, as at full rank; greedy
        # independent columns pick three columns at rank 2, while the
        # column-space basis spans the census's first rank-2 pair
        z = Zonotope(near_cut_rank_deficient())
        assert z.rank == 2 and len(z.vertices()) == 10
        assert "_bounding_facets" in vars(z)
        signs = set(z.vertex_sign_vectors())
        assert {frozenset(range(z.k)) - s for s in signs} == signs

    def test_near_cut_rank_deficient_facets(self):
        # greedy independent columns pick three columns at rank 2; the basis
        # spans the census's first rank-2 pair, so the facet table builds and
        # agrees with the vertices
        z = Zonotope(near_cut_rank_deficient())
        facets = z.bounding_facets()
        assert len(facets) == 10
        points = np.array(z.vertices())
        assert len(points) == 10
        for bf in facets:
            assert abs(np.max(points @ bf.unit_normal) - bf.support) <= 1e-12

    @pytest.mark.parametrize("query", ["bounding_facets", "geometric_facets", "facet_signature", "vertices"])
    def test_rank_deficient_short_greedy_basis(self, query):
        # rank 3 in R^4, but greedy independent columns pick only two, too few
        # to span the column space; each query answers or refuses with a ZonokitError
        a = np.array([[0, -1, 1, -1], [2, 3, -2, -3], [2e-9, 1e-9, 3e-9, 0], [0, 0, 0, 0]])
        z = Zonotope(a)
        assert z.rank == 3 and oracles.independent_columns(z.directions, z.tol) == [0, 1]
        try:
            getattr(z, query)()
        except ZonokitError:
            pass  # refusing the input is an answer; only a foreign exception fails

    def test_no_lp_solver_import(self):
        script = (
            "import sys, numpy as np, zonokit\n"
            "from zonokit import cli\n"
            f"z = zonokit.Zonotope(np.array({A0.tolist()}))\n"
            "z.vertices()\n"
            "cli.off_mesh(z)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(zonokit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


def differential_matrix(rng, trial, n, k):
    family = trial % 4
    if family == 0:
        return rng.normal(size=(n, k))
    if family == 1:  # integer entries, the last column antiparallel to the first
        a = rng.integers(-2, 3, size=(n, k)).astype(float)
        a[0, ~a.any(axis=0)] = 1.0
        a[:, -1] = -a[:, 0]
        return a
    if family == 2:  # column scales 10^U(-4, 4)
        return rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, size=k)
    r = int(rng.integers(1, n))  # rank r < n
    c = rng.integers(-2, 3, size=(r, k)).astype(float)
    c[0, ~c.any(axis=0)] = 1.0
    return rng.normal(size=(n, r)) @ c


class TestFaceCycles:
    @pytest.mark.parametrize(
        "matrix",
        [A0, spread_scale_mesh(), np.random.default_rng(41).normal(size=(3, 8))]
        + [np.random.default_rng(42).integers(-2, 3, size=(3, 9)).astype(float)],
        ids=["A0", "spread", "gauss", "int"],
    )
    def test_walk_steps_and_orientation(self, matrix):
        z = Zonotope(matrix)
        classes = {frozenset(f.columns) for f in z.generating_faces(1)}
        rings, starts, sizes, frames = z._cycles
        faces = z.generating_faces(2)
        assert len(starts) == len(sizes) == len(frames) == len(faces) and len(rings) == sizes.sum()
        for bf in z.bounding_facets():
            # the cycles are stacked in face-row order
            i = faces.index(bf.generating)
            masks, (e1, e2) = rings[starts[i]:starts[i] + sizes[i]], frames[i]
            # bit j of a sign mask stands for column j
            cycle = [frozenset(j for j in range(z.k) if m >> j & 1) for m in masks.tolist()]
            assert len(set(cycle)) == len(cycle) >= 4
            # neighbours differ in exactly one parallel class of the face
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                assert v ^ w in classes and v ^ w <= set(bf.generating.columns)
            # oriented by the frame, the cycle runs counter-clockwise about the outward normal
            if np.cross(e1, e2) @ bf.unit_normal < 0.0:
                cycle = cycle[::-1]
            side = frozenset(bf.translation_set)
            poly = np.array([z.matrix[:, sorted(side | v)].sum(axis=1) for v in cycle])
            newell = sum(np.cross(p, q) for p, q in zip(poly, np.roll(poly, -1, axis=0)))
            assert newell @ bf.unit_normal > 0.0


class TestSurface:
    """``Zonotope.surface()``: the vertices, and one polygon per geometric facet on its plane, counter-clockwise."""

    @pytest.mark.parametrize(
        "matrix",
        [A0, spread_scale_mesh(), np.eye(3), np.random.default_rng(43).normal(size=(3, 8))]
        + [np.random.default_rng(44).integers(-2, 3, size=(3, 9)).astype(float)],
        ids=["A0", "spread", "cube", "gauss", "int"],
    )
    def test_polygons_on_their_facets(self, matrix):
        z = Zonotope(matrix)
        points, polygons, sizes = z.surface()
        assert points.tobytes() == np.array(z.vertices()).tobytes()
        facets = z.geometric_facets()
        assert len(sizes) == len(facets) and sizes.sum() == len(polygons)
        scale = np.abs(points).max()
        for bf, start, size in zip(facets, (np.cumsum(sizes) - sizes).tolist(), sizes.tolist()):
            ring = points[polygons[start:start + size]]
            assert size >= 4 and len(set(polygons[start:start + size].tolist())) == size
            assert np.allclose(ring @ bf.unit_normal, bf.support, rtol=0.0, atol=1e-12 * scale)
            # every corner turns left seen from outside: counter-clockwise about the outward normal
            edges = np.roll(ring, -1, axis=0) - ring
            assert (np.cross(edges, np.roll(edges, -1, axis=0)) @ bf.unit_normal > 0.0).all()

    @pytest.mark.parametrize("matrix", [np.eye(2), A0[:, :2], np.eye(4)], ids=["R2", "rank2-in-R3", "R4"])
    def test_needs_rank_3_in_r3(self, matrix):
        with pytest.raises(DimensionError):
            Zonotope(matrix).surface()

    def test_near_cut_refused(self):
        # overlapping closed 2-faces: the facet polygons do not close into a sphere
        with pytest.raises(MeshSurfaceError, match="V - E \\+ F = "):
            Zonotope(near_cut_default_tol()).surface()


class TestAgainstSubZonotopeRecursion:
    """Vertices over the parent's flats equal the sub-zonotope recursion bit for bit."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_seeded_differential(self):
        rng = np.random.default_rng(808)
        recursed = 0
        for trial in range(160):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(n, 11))
            tol = Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()
            a = differential_matrix(rng, trial, n, k)
            z = Zonotope(a, tol)
            try:
                want = list(oracles.recursive_vertex_sign_vectors(Zonotope(a, tol)))
            except RecursionError:  # the reference never ends near the rank cut
                signs = set(z.vertex_sign_vectors())
                assert {frozenset(range(z.k)) - s for s in signs} == signs
                recursed += 1
                continue
            indicator = np.zeros((len(want), z.k))
            for i, s in enumerate(want):
                indicator[i, list(s)] = 1.0
            points = indicator @ z.matrix.T
            order = sorted(range(len(want)), key=lambda i: tuple(points[i]))
            assert z.vertex_sign_vectors() == [want[i] for i in order]
            assert np.array(z.vertices()).tobytes() == points[order].tobytes()
        assert recursed <= 2


def near_cut_matrix(rng, trial, n, k):
    """``differential_matrix`` with every fourth input moved off its exact entries by 1e-11..1e-7."""
    a = differential_matrix(rng, trial, n, k)
    if trial % 4 == 1:
        a = a + rng.normal(size=a.shape) * 10.0 ** rng.uniform(-11, -7)
    return a


def assert_face_recursion_records(z):
    """``z._vertices`` and ``z.vertex_sign_vectors()`` equal the per-face recursion's, bit for bit."""
    masks = oracles.face_recursion_vertex_masks(Zonotope(z.matrix, z.tol))
    columns = (masks[:, None] >> np.arange(z.k)) & 1 == 1
    points = columns.astype(float) @ z.matrix.T
    order = np.lexsort(points.T[::-1])
    assert z._vertices["point"].tobytes() == points[order].tobytes()
    assert z._vertices["mask"].tobytes() == masks[order].tobytes()
    assert z.vertex_sign_vectors() == [frozenset(np.flatnonzero(row).tolist()) for row in columns[order]]


class TestAgainstFaceRecursion:
    """Each face level in one pass equals the per-face recursion over the same closed faces, bit for bit."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_seeded_differential(self):
        rng = np.random.default_rng(1808)
        for trial in range(400):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(n, VERTEX_ENUM_LIMIT + 1))
            tol = Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()
            assert_face_recursion_records(Zonotope(near_cut_matrix(rng, trial, n, k), tol))

    @pytest.mark.parametrize(
        "matrix, tol",
        [
            (near_cut_default_tol(), Tolerance()),
            (near_cut_wide_tol(), Tolerance(rel=1e-3)),
            (near_cut_rank_deficient(), Tolerance()),
            (near_cut_rank_deficient(), Tolerance(rel=1e-3)),
        ],
        ids=["default", "wide", "deficient", "deficient-rel=1e-3"],
    )
    def test_near_cut_fixtures(self, matrix, tol):
        assert_face_recursion_records(Zonotope(matrix, tol))


class TestVertexCount:
    """In general position a rank-r zonotope with k generators has 2 sum_{i<r} C(k-1, i) vertices."""

    @pytest.mark.parametrize("n, k, seed, count", [(3, 16, 51, 242), (4, 14, 52, 756), (5, 16, 53, 3882)])
    def test_general_position(self, n, k, seed, count):
        z = Zonotope(np.random.default_rng(seed).normal(size=(n, k)))
        signs = z.vertex_sign_vectors()
        assert count == 2 * sum(math.comb(k - 1, i) for i in range(n))
        assert len(z.vertices()) == len(set(signs)) == count
        assert {frozenset(range(k)) - s for s in signs} == set(signs)

    def test_4x12_against_hull(self):
        z = Zonotope(np.random.default_rng(54).normal(size=(4, 12)))
        masks = (np.arange(2**12)[:, None] >> np.arange(12)) & 1
        hull = oracles.hull_vertex_set(masks.astype(float) @ z.matrix.T)
        assert len(hull) == 2 * sum(math.comb(11, i) for i in range(4))
        assert {tuple(np.round(v, 9)) for v in z.vertices()} == hull


class TestTracedNames:
    """perfbench/tracing.py patches these Zonotope attributes by name; a rename would zero its layer metrics."""

    @pytest.mark.parametrize("name", ["generating_faces", "zone", "volume", "m_volume", "facet_volume"])
    def test_method(self, name):
        assert inspect.isfunction(Zonotope.__dict__.get(name))

    @pytest.mark.parametrize("name", ["_bounding_facets", "_geometric_facets", "_vertices"])
    def test_cached_structure(self, name):
        assert isinstance(Zonotope.__dict__.get(name), functools.cached_property)


class TestFacetSignature:
    def test_cube(self):
        sig = Zonotope(np.eye(3)).facet_signature()
        assert len(sig) == 3
        normals = sorted(tuple(np.round(n, 9)) for n, _ in sig)
        assert normals == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert all(v == pytest.approx(1.0) for _, v in sig)

    def test_translation_invariance_via_sign_flips(self):
        # re-anchoring the zonotope at another vertex flips column signs
        rng = np.random.default_rng(29)
        for _ in range(20):
            z = random_zonotope(rng, 3, 5)
            signs = rng.choice([-1.0, 1.0], size=z.k)
            z2 = Zonotope(z.matrix * signs)
            assert signatures_match(z.facet_signature(), z2.facet_signature())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(30)
        z = Zonotope(A0)
        sigma = rng.permutation(5)
        z2 = Zonotope(A0[:, sigma])
        assert signatures_match(z.facet_signature(), z2.facet_signature())

    def test_distinct_shapes_differ(self):
        assert not signatures_match(
            Zonotope(np.eye(3)).facet_signature(),
            Zonotope(np.diag([1.0, 1.0, 2.0])).facet_signature(),
        )
