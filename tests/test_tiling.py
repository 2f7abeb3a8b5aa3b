import itertools

import numpy as np
import pytest

import zonokit.tiling as tiling_mod

from zonokit.errors import DegeneracyError, DimensionError
from zonokit.numkit import Tolerance
from zonokit.tiling import (
    Tile,
    Tiling,
    cup_of_cubes,
    tile_zonotope,
    validate_tiling,
    visible_surface,
)
from zonokit.zonotope import Zonotope

import oracles
from fixture_matrices import (
    hex_facet_generators,
    long_sums,
    near_cut_default_tol,
    near_cut_wide_tol,
    perturbed_hex_generators,
)

A0 = hex_facet_generators()
HEX2D = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def random_zonotope(rng, n, k):
    m = rng.normal(size=(n, k)) + 0.1 * rng.integers(-3, 4, size=(n, k))
    while np.linalg.matrix_rank(m) < n:
        m = rng.normal(size=(n, k))
    return Zonotope(m)


class TestVisibleSurface:
    def test_cube_top(self):
        z = Zonotope(np.eye(3))
        vis = visible_surface(z, [0.0, 0.0, 1.0])
        assert len(vis) == 1
        assert vis[0].generating.columns == (0, 1)
        assert np.allclose(vis[0].translation, [0, 0, 1])

    def test_cube_corner_direction(self):
        z = Zonotope(np.eye(3))
        vis = visible_surface(z, [1.0, 1.0, 1.0])
        assert len(vis) == 3
        normals = sorted(tuple(np.round(v.unit_normal, 9)) for v in vis)
        assert normals == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_prefix_in_last_generator_direction(self):
        # half-space oracle: facets of the 4-column prefix visible along a5
        z = Zonotope(A0[:, :4])
        a5 = A0[:, 4]
        vis = visible_surface(z, a5)
        assert len(vis) == 4
        got = sorted(
            (bf.generating.columns, tuple(np.round(bf.unit_normal, 6))) for bf in vis
        )
        r2 = round(1 / np.sqrt(2.0), 6)
        assert got == [
            ((0, 1, 2), (0.0, 0.0, 1.0)),
            ((0, 3), (0.0, 1.0, 0.0)),
            ((1, 3), (-1.0, 0.0, 0.0)),
            ((2, 3), (-r2, r2, 0.0)),
        ]
        for bf in z.bounding_facets():
            expected = float(bf.unit_normal @ a5) > 1e-9
            assert (bf in vis) == expected

    def test_zero_direction_rejected(self):
        with pytest.raises(DimensionError):
            visible_surface(Zonotope(np.eye(3)), [0.0, 0.0, 0.0])


class TestTileZonotope:
    def test_cube_single_tile(self):
        til = tile_zonotope(Zonotope(np.eye(3)))
        assert len(til.tiles) == 1
        assert til.tiles[0].columns == (0, 1, 2)
        assert np.allclose(til.tiles[0].translation, 0.0)

    def test_planar_hexagon(self):
        z = Zonotope(HEX2D)
        til = tile_zonotope(z)
        assert len(til.tiles) == 3
        assert til.census() == [(0, 1), (0, 2), (1, 2)]
        assert til.volume_sum(z.matrix) == pytest.approx(3.0)
        assert validate_tiling(z, til).ok

    def test_fixture_nine_tiles(self):
        z = Zonotope(A0)
        til = tile_zonotope(z)
        assert len(til.tiles) == 9
        report = validate_tiling(z, til)
        assert report.ok

    def test_fixture_census_misses_dependent_triple(self):
        til = tile_zonotope(Zonotope(A0))
        assert (0, 1, 2) not in til.census()
        assert len(til.census()) == 9

    def test_perturbed_ten_tiles(self):
        z = Zonotope(perturbed_hex_generators(0.1))
        til = tile_zonotope(z)
        assert len(til.tiles) == 10
        assert validate_tiling(z, til).ok

    def test_order_changes_translations_not_census(self):
        z = Zonotope(A0)
        rng = np.random.default_rng(61)
        base = tile_zonotope(z)
        for _ in range(5):
            order = list(rng.permutation(5))
            other = tile_zonotope(z, order)
            assert other.census() == base.census()
            assert other.volume_sum(z.matrix) == pytest.approx(
                base.volume_sum(z.matrix), rel=1e-10
            )
            assert validate_tiling(z, other).ok

    def test_rank_deficiencyct_rejected(self):
        with pytest.raises(DegeneracyError):
            tile_zonotope(Zonotope(A0[:, [0, 1, 2]]))

    def test_bad_order_rejected(self):
        with pytest.raises(DimensionError):
            tile_zonotope(Zonotope(np.eye(3)), order=[0, 1])

    def test_random_suite(self):
        import math

        rng = np.random.default_rng(62)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(n, 8))
            z = random_zonotope(rng, n, k)
            til = tile_zonotope(z)
            assert len(til.tiles) == math.comb(k, n)
            report = validate_tiling(z, til)
            assert report.ok, report

    def test_near_threshold_tangent_generator(self):
        # generator almost in a facet plane: the rank census still expects its
        # tile, and the sign of the minor det A[:, (0, 1, 3)] places it
        for delta in (3e-9, 1e-8, -3e-9):
            m = np.column_stack([np.eye(3), [1.0, 1.0, delta]])
            z = Zonotope(m)
            til = tile_zonotope(z)
            rep = validate_tiling(z, til)
            assert rep.census_ok and rep.volume_ok
            assert (0, 1, 3) in til.census()
        m = np.column_stack([np.eye(3), [1.0, 1.0, 0.0]])
        til = tile_zonotope(Zonotope(m))
        assert (0, 1, 3) not in til.census()

    def test_flattening_continuity(self):
        # the tile on the squeezed triple vanishes and total -> the flat volume
        for eps in (0.5, 0.1, 0.02):
            a = perturbed_hex_generators(eps)
            z = Zonotope(a)
            til = tile_zonotope(z)
            squeezed = next(t for t in til.tiles if t.columns == (0, 1, 2))
            vol = abs(np.linalg.det(a[:, [0, 1, 2]]))
            assert vol == pytest.approx(eps, rel=1e-9)
            assert z.volume() == pytest.approx(10.0 + eps, rel=1e-9)
            assert squeezed is not None


class TestCupOfCubes:
    def test_cube_with_diagonal(self):
        cup = cup_of_cubes(Zonotope(np.eye(3)), np.array([1.0, 1.0, 1.0]), 3)
        assert len(cup.tiles) == 3
        assert sorted(t.columns for t in cup.tiles) == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
        new_vol = sum(
            abs(np.linalg.det(np.column_stack([np.eye(3)[:, list(t.columns)[:-1]], [1, 1, 1]])))
            for t in cup.tiles
        )
        total = Zonotope(np.column_stack([np.eye(3), [1, 1, 1]])).volume()
        assert 1.0 + new_vol == pytest.approx(total)

    def test_square_with_diagonal(self):
        cup = cup_of_cubes(Zonotope(np.eye(2)), np.array([1.0, 1.0]), 2)
        assert len(cup.tiles) == 2
        before = 1.0
        after = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])).volume()
        new_vol = sum(
            abs(np.linalg.det(np.column_stack([np.eye(2)[:, [c for c in t.columns if c != 2]], [1, 1]])))
            for t in cup.tiles
        )
        assert before + new_vol == pytest.approx(after)

    def test_scaled_existing_generator_contiguous(self):
        cup = cup_of_cubes(Zonotope(np.eye(3)), np.array([0.0, 0.0, 2.0]), 3)
        assert len(cup.tiles) == 1
        tile = cup.tiles[0]
        assert tile.columns == (0, 1, 3)
        assert np.allclose(tile.translation, [0, 0, 1])

    def test_rank_deficient_prefix_rejected(self):
        with pytest.raises(DegeneracyError):
            cup_of_cubes(Zonotope(A0[:, [0, 1, 2]]), np.array([0.0, 0.0, 1.0]), 3)


class TestValidateTiling:
    def test_duplicate_tile_fails_census(self):
        z = Zonotope(HEX2D)
        til = tile_zonotope(z)
        broken = Tiling(til.tiles + [til.tiles[0]], til.source)
        report = validate_tiling(z, broken)
        assert not report.census_ok
        assert report.duplicates

    def test_perturbed_translation_fails(self):
        z = Zonotope(HEX2D)
        til = tile_zonotope(z)
        tiles = [Tile(t.columns, t.translation.copy()) for t in til.tiles]
        tiles[1].translation = tiles[1].translation + np.array([0.1, 0.0])
        report = validate_tiling(z, Tiling(tiles, til.source))
        assert not (report.disjoint_ok and report.containment_ok)

    # Four unit squares tiling [0, 2]^2: tiles (0,1) at 0, (0,3) at e2,
    # (1,2) at e1 and (2,3) at e1 + e2.
    SQUARE = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])

    def square_report(self, edit):
        z = Zonotope(self.SQUARE)
        til = tile_zonotope(z)
        tiles = [Tile(t.columns, t.translation.copy()) for t in til.tiles]
        assert validate_tiling(z, Tiling(tiles, til.source)).ok
        return validate_tiling(z, Tiling(edit(tiles), til.source))

    def test_tile_shifted_inside(self):
        # tile 0 moved to [0.9, 1.9] x [0.4, 1.4]: its centre lies inside
        # tile 2 ([1, 2] x [0, 1]) and tile 2's centre inside it
        def shift(tiles):
            tiles[0].translation += [0.9, 0.4]
            return tiles

        report = self.square_report(shift)
        assert report.disjoint_violations == [(0, 2), (2, 0)]
        assert report.containment_violations == []
        assert report.census_ok and report.volume_ok and not report.disjoint_ok

    def test_tile_pushed_outside(self):
        def push(tiles):
            tiles[0].translation += [0.0, -0.5]
            return tiles

        report = self.square_report(push)
        assert report.disjoint_violations == []
        assert report.containment_violations == [0]
        assert report.census_ok and report.disjoint_ok and not report.containment_ok

    def test_duplicated_tile(self):
        report = self.square_report(lambda tiles: tiles + [tiles[2]])
        assert report.disjoint_violations == [(2, 4), (4, 2)]
        assert report.containment_violations == []
        assert report.duplicates == [(1, 2)]
        assert report.missing == [] and report.unexpected == []
        assert report.volume_sum == 5.0 and not report.volume_ok

    def test_segment_tile_past_the_end(self):
        # Z(1 2 -0.5) is [-0.5, 3]; tile 1 ([1, 3]) moved to [1.25, 3.25]
        z = Zonotope(np.array([[1.0, 2.0, -0.5]]))
        til = tile_zonotope(z)
        assert validate_tiling(z, til).ok
        tiles = [Tile(t.columns, t.translation.copy()) for t in til.tiles]
        tiles[1].translation += 0.25
        report = validate_tiling(z, Tiling(tiles, til.source))
        assert report.containment_violations == [1]
        assert report.census_ok and report.volume_ok and not report.containment_ok

    def test_missing_tile_reported(self):
        z = Zonotope(HEX2D)
        til = tile_zonotope(z)
        report = validate_tiling(z, Tiling(til.tiles[:-1], til.source))
        assert not report.census_ok
        assert report.missing


def facet_fields(facets):
    return [
        (bf.generating, bf.unit_normal.tolist(), bf.negative_set, bf.positive_set,
         bf.side, bf.translation.tolist(), bf.volume, bf.support)
        for bf in facets
    ]


def differential_matrix(rng, trial, n, k):
    kind = trial // 4 % 3
    if kind == 0:
        return rng.normal(size=(n, k))
    if kind == 1:
        a = rng.integers(-2, 3, size=(n, k)).astype(float)
        a[0, ~a.any(axis=0)] = 1.0  # no zero generators
        return a
    return rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, size=k)


def differential_inputs():
    """(matrix, tolerance) pairs: 60 seeded ones, one with long sums, then ties and near-parallel pairs.

    A closure rank sees the subset plus the new column in sorted column
    order, where complete pivoting breaks ties by position: entries in
    {-1, 0, 1} give unit columns with tied entries. The near-parallel
    pairs sit 1e-11..1e-7 off a multiple of another column, around the cut.
    """
    rng = np.random.default_rng(404)
    for trial in range(60):
        n = 2 + trial % 4
        k = int(rng.integers(n, min(9, n + 4) + 1))
        tol = Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()
        yield differential_matrix(rng, trial, n, k), tol
    yield long_sums(), Tolerance()
    rng = np.random.default_rng(405)
    for trial in range(48):
        n = 2 + trial % 4
        k = int(rng.integers(n + 1, min(9, n + 4) + 1))
        if trial % 2:
            a = rng.integers(-1, 2, size=(n, k)).astype(float)
            a[0, ~a.any(axis=0)] = 1.0  # no zero generators
            a[:, -1] = 2.0 * a[:, 0]  # a parallel pair of tied columns
        else:
            a = rng.normal(size=(n, k))
            i, j = rng.choice(k, size=2, replace=False)
            a[:, j] = rng.choice([-2.0, 0.5, 1.0]) * a[:, i] + 10.0 ** rng.uniform(-11, -7) * rng.normal(size=n)
        yield a, Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()


class TestAgainstLoopReferences:
    """Stacked faces, facets and tiling checks equal the per-subset loops exactly."""

    @staticmethod
    def assert_levels(z):
        for s in range(z.rank + 1):
            assert z.generating_faces(s) == oracles.loop_generating_faces(z, s)
            # the level tables too: the facet normals come from the bases
            for got, want in zip(z._level(s), oracles.loop_level(z, s), strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_seeded_differential(self):
        # near the cut a closed face can have a higher rank as a column set, which the
        # facet loop cannot take, so the near-cut fixtures check the face levels only
        for a, tol in ((near_cut_default_tol(), Tolerance()), (near_cut_wide_tol(), Tolerance(rel=1e-3))):
            self.assert_levels(Zonotope(a, tol))
        for a, tol in differential_inputs():
            z = Zonotope(a, tol)
            self.assert_levels(z)
            if z.rank < 2:
                continue
            assert facet_fields(z.bounding_facets()) == facet_fields(oracles.loop_bounding_facets(z))
            if z.rank < z.n:
                continue
            til = tile_zonotope(z)
            # one tile shifted along its first generator, one duplicated
            shifted = Tile(til.tiles[0].columns, til.tiles[0].translation + 0.3 * z.matrix[:, til.tiles[0].columns[0]])
            broken = Tiling([shifted] + til.tiles[1:] + til.tiles[-1:], til.source)
            assert vars(validate_tiling(z, broken, tol)) == vars(oracles.loop_validate_tiling(z, broken, tol))


class TestRecheckNearTheCut:
    """A tile corner or a tile centre within rounding of its cut is decided by the per-pair products.

    Each case moves one tile so that a decision lands a few units in the
    last place off its cut, asserts that the recheck ran, and compares the
    report with the loop's.
    """

    MATRICES = [A0, np.random.default_rng(31).normal(size=(4, 7))]
    OFFSETS = (-2e-16, -1e-16, 0.0, 1e-16, 2e-16)

    def spy(self, monkeypatch, name):
        calls = []
        original = getattr(tiling_mod, name)

        def recorded(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(tiling_mod, name, recorded)
        return calls

    @pytest.mark.parametrize("matrix", MATRICES, ids=["A0", "gauss4x7"])
    def test_corner_on_the_containment_cut(self, monkeypatch, matrix):
        # the tile corner highest above a facet's support is raised to the
        # containment bound, support + slack
        z = Zonotope(matrix)
        til = tile_zonotope(z)
        facets = z.bounding_facets()
        supports = np.array([bf.support for bf in facets])
        bound = supports + 16.0 * z.tol.threshold(np.abs(supports).max())
        corners = np.array(list(itertools.product([0.0, 1.0], repeat=z.n)))
        normals = np.array([bf.unit_normal for bf in facets])
        tops = np.array([np.max((t.translation + corners @ z.matrix[:, list(t.columns)].T) @ normals.T, axis=0)
                         for t in til.tiles])
        t, f = np.unravel_index(np.argmax(tops - supports), tops.shape)
        for offset in self.OFFSETS:
            calls = self.spy(monkeypatch, "_outside_by_corners")
            tiles = [Tile(x.columns, x.translation.copy()) for x in til.tiles]
            tiles[t].translation += (bound[f] - tops[t, f] + offset * np.abs(supports).max()) * normals[f]
            broken = Tiling(tiles, til.source)
            report = validate_tiling(z, broken)
            assert calls and calls[0] >= 1
            assert vars(report) == vars(oracles.loop_validate_tiling(z, broken, z.tol))

    @pytest.mark.parametrize("matrix", MATRICES, ids=["A0", "gauss4x7"])
    def test_centre_on_the_disjointness_cut(self, monkeypatch, matrix):
        # a copy of tile 0 moved by (eps - 1/2) of its first generator: the
        # copy's centre is at cube coordinate eps in tile 0, and tile 0's at 1 - eps in the copy
        z = Zonotope(matrix)
        til = tile_zonotope(z)
        eps = z.tol.threshold(1.0)
        first = til.tiles[0]
        for offset in self.OFFSETS:
            calls = self.spy(monkeypatch, "_inside_by_products")
            shift = (eps + offset - 0.5) * z.matrix[:, first.columns[0]]
            broken = Tiling(til.tiles + [Tile(first.columns, first.translation + shift)], til.source)
            report = validate_tiling(z, broken)
            assert calls and calls[0] >= 2
            assert vars(report) == vars(oracles.loop_validate_tiling(z, broken, z.tol))


def tile_bits(tiles):
    return [(t.columns, [x.hex() for x in t.translation.tolist()]) for t in tiles]


def outcome(fn, *args):
    """Tiles with bit-exact translations, or the exception's type and text."""
    try:
        return tile_bits(fn(*args).tiles)
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstShelling:
    """The lifted tiling equals the shelling induction bit for bit."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_seeded_differential(self):
        rng = np.random.default_rng(606)
        for trial in range(144):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(n, 11))
            tol = Tolerance(rel=1e-3) if trial % 8 == 7 else Tolerance()
            a = differential_matrix(rng, trial, n, k)
            if trial // 4 % 3 == 1:  # integer entries: make one column antiparallel to another
                i, j = rng.choice(k, size=2, replace=False)
                a[:, j] = -float(rng.integers(1, 3)) * a[:, i]
            z = Zonotope(a, tol)
            order = None if trial % 3 == 0 else [int(i) for i in rng.permutation(z.k)]
            assert outcome(tile_zonotope, z, order) == outcome(oracles.shelling_tile_zonotope, z, order)
            if k == n:
                continue
            prefix = Zonotope(a[:, :-1], tol)
            index = int(rng.integers(0, k + 2))
            assert outcome(cup_of_cubes, prefix, a[:, -1], index) == outcome(
                oracles.shelling_cup_of_cubes, prefix, a[:, -1], index
            )


class TestInductionStep:
    """Tiling Z(A) = tiling of the prefix plus the cup of the last generator."""

    def test_seeded_prefix_plus_cup(self):
        rng = np.random.default_rng(707)
        checked = 0
        for trial in range(300):
            n = 2 + trial % 3
            k = int(rng.integers(n + 1, n + 6))
            if trial % 2:
                a = rng.integers(-2, 3, size=(n, k)).astype(float)
                a[0, ~a.any(axis=0)] = 1.0  # no zero generators
            else:
                a = rng.normal(size=(n, k))
            prefix = Zonotope(a[:, :-1])
            if prefix.rank < n:
                continue
            whole = tile_bits(tile_zonotope(Zonotope(a)).tiles)
            old = tile_bits(tile_zonotope(prefix).tiles)
            cup = tile_bits(cup_of_cubes(prefix, a[:, -1], k - 1).tiles)
            assert not {c for c, _ in old} & {c for c, _ in cup}
            assert whole == sorted(old + cup)
            checked += 1
        assert checked > 250


class TestSerialization:
    def test_roundtrip(self):
        z = Zonotope(A0)
        til = tile_zonotope(z)
        payload = til.to_dict(z.matrix)
        assert payload["format_version"] == 1
        back = Tiling.from_dict(payload)
        assert back.census() == til.census()
        for t1, t2 in zip(back.tiles, til.tiles):
            assert np.allclose(t1.translation, t2.translation)
