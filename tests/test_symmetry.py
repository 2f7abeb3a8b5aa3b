import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonokit.errors import DimensionError
from zonokit.numkit import Tolerance
from zonokit.symmetry import (
    SegmentLoop,
    _dedupe,
    central_center,
    cone_section,
    loop_symmetric,
    reflect,
    zonogon_recognize,
)
from zonokit.zonotope import Zonotope

import oracles
from fixture_matrices import hex_facet_generators

A0 = hex_facet_generators()

point_sets = st.builds(
    lambda seed, m, d: np.random.default_rng(seed).normal(size=(m, d)),
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.integers(1, 4),
)


def ccw_polygon(vertices):
    pts = [np.asarray(v, dtype=float) for v in vertices]
    c = np.mean(pts, axis=0)
    pts.sort(key=lambda p: math.atan2(p[1] - c[1], p[0] - c[0]))
    return np.asarray(pts)


class TestReflect:
    def test_single_point(self):
        assert np.allclose(reflect([[1.0, 0.0]], [0.0, 0.0]), [[-1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reflect([[1.0, 0.0]], [0.0, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(point_sets, st.integers(0, 999))
    def test_involution(self, x, seed):
        c = np.random.default_rng(seed).normal(size=x.shape[1])
        assert np.allclose(reflect(reflect(x, c), c), x, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(point_sets, st.integers(0, 999))
    def test_two_centers_translate(self, x, seed):
        rng = np.random.default_rng(seed)
        c1, c2 = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1])
        assert np.allclose(reflect(reflect(x, c1), c2), x + 2 * (c2 - c1), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(point_sets, st.integers(0, 999))
    def test_triple_composition(self, x, seed):
        rng = np.random.default_rng(seed)
        c1, c2, c3 = (rng.normal(size=x.shape[1]) for _ in range(3))
        lhs = reflect(reflect(reflect(x, c1), c2), c3)
        assert np.allclose(lhs, reflect(x, c3 - c2 + c1), atol=1e-9)


class TestConeSection:
    def test_collapse_at_one(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        c = np.array([0.5, 0.5])
        assert np.allclose(cone_section(x, c, 1.0), np.tile(c, (2, 1)))

    def test_identity_at_zero(self):
        x = np.array([[1.0, 2.0]])
        assert np.allclose(cone_section(x, [0.0, 0.0], 0.0), x)

    def test_reflection_at_two(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        c = np.array([1.0, -1.0])
        assert np.allclose(cone_section(x, c, 2.0), reflect(x, c))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            cone_section([[0.0]], [0.0], 2.5)

    def test_boundary_union_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.normal(size=(5, 3))
            c = rng.normal(size=3)
            union = np.vstack([cone_section(x, c, 0.0), cone_section(x, c, 2.0)])
            report = central_center(union)
            assert report.symmetric
            assert np.allclose(report.center, c, atol=1e-9)


class TestCentralCenter:
    def test_square(self):
        report = central_center([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert report.symmetric
        assert np.allclose(report.center, [0.5, 0.5])

    def test_triangle_with_witness(self):
        report = central_center([[0, 0], [1, 0], [0, 1]])
        assert not report.symmetric
        point, image = report.witness_failure
        assert point.shape == (2,)
        assert image.shape == (2,)

    def test_fixture_vertices(self):
        verts = Zonotope(A0).vertices()
        report = central_center(verts)
        assert report.symmetric
        assert np.allclose(report.center, [0.5, 1.5, 1.0])

    def test_duplicates_tolerated(self):
        report = central_center([[0, 0], [0, 0], [1, 1]])
        assert report.symmetric

    def test_reflection_preserves_symmetry_sampled(self):
        # sampled form: reflecting a symmetric set about any center stays
        # symmetric; reflecting an asymmetric set stays asymmetric
        rng = np.random.default_rng(34)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            base = rng.normal(size=(4, d))
            c0 = rng.normal(size=d)
            sym = np.vstack([base, 2 * c0 - base])
            asym = np.vstack([base, base + rng.normal(size=d) * 0.3 + 1.0])
            c = rng.normal(size=d)
            assert central_center(reflect(sym, c)).symmetric
            if not central_center(asym).symmetric:
                assert not central_center(reflect(asym, c)).symmetric

    def test_reflection_is_translation_for_symmetric_sets(self):
        # sampled form: for symmetric X and any c, 2c - X = X + 2(c - center)
        rng = np.random.default_rng(35)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            base = rng.normal(size=(4, d))
            c0 = rng.normal(size=d)
            sym = np.vstack([base, 2 * c0 - base])
            c = rng.normal(size=d)
            image = reflect(sym, c)
            translated = sym + 2 * (c - c0)
            got = {tuple(np.round(p, 9)) for p in image}
            want = {tuple(np.round(p, 9)) for p in translated}
            assert got == want

    def test_union_and_intersection_preserve_center(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            c = rng.normal(size=2)
            base = rng.normal(size=(4, 2))
            x = np.vstack([base, 2 * c - base])
            extra = rng.normal(size=(3, 2))
            y = np.vstack([base[:2], extra, 2 * c - base[:2], 2 * c - extra])
            assert central_center(x).symmetric
            assert central_center(y).symmetric
            union = np.vstack([x, y])
            assert central_center(union).symmetric
            assert np.allclose(central_center(union).center, c, atol=1e-9)
            inter = np.vstack([base[:2], 2 * c - base[:2]])
            assert central_center(inter).symmetric


class TestLoopSymmetric:
    def test_square_loop(self):
        loop = SegmentLoop.from_polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        report = loop_symmetric(loop)
        assert report.symmetric
        assert np.allclose(report.center, [0.5, 0.5])

    def test_triangle_odd_count(self):
        loop = SegmentLoop.from_polygon([[0, 0], [1, 0], [0.5, 1]])
        report = loop_symmetric(loop)
        assert not report.symmetric
        assert "odd" in report.reason

    def test_hexagon_from_generators(self):
        gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        pts = [np.zeros(2)]
        for d in gens + [-g for g in gens]:
            pts.append(pts[-1] + d)
        loop = SegmentLoop.from_polygon(np.asarray(pts[:-1]))
        report = loop_symmetric(loop)
        assert report.symmetric
        assert np.allclose(report.center, [1.0, 1.0])

    def test_perturbed_loop_rejected(self):
        segs = np.array(
            [
                [[0, 0], [1, 0]],
                [[1, 0], [1, 1]],
                [[1, 1], [0.2, 1]],
                [[0.2, 1], [0, 0]],
            ],
            dtype=float,
        )
        report = loop_symmetric(SegmentLoop(segs))
        assert not report.symmetric
        assert report.witness_failure is not None

    def test_open_chain_rejected(self):
        with pytest.raises(ValueError):
            SegmentLoop(np.array([[[0, 0], [1, 0]], [[5, 5], [0, 0]]], dtype=float))


class TestZonogonRecognize:
    def test_unit_square(self):
        gens = zonogon_recognize([[0, 0], [1, 0], [1, 1], [0, 1]])
        got = sorted(tuple(np.round(np.abs(g), 9)) for g in gens)
        assert got == [(0, 1), (1, 0)]

    def test_hexagon(self):
        z = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        poly = ccw_polygon(z.vertices())
        gens = zonogon_recognize(poly)
        got = sorted(tuple(np.round(np.abs(g), 9)) for g in gens)
        assert got == [(0, 1), (1, 0), (1, 1)]

    def test_pentagon_absent(self):
        pent = [
            [math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5)]
            for i in range(5)
        ]
        assert zonogon_recognize(pent) is None

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            zonogon_recognize([[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2], [1, 1]])

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            zonogon_recognize([[0, 0], [0, 1], [1, 1], [1, 0]])

    def test_unpaired_even_polygon_absent(self):
        # convex quadrilateral with unequal opposite edges
        assert zonogon_recognize([[0, 0], [2, 0], [2.5, 1.0], [0, 1]]) is None

    def test_roundtrip_random_generators(self):
        rng = np.random.default_rng(33)
        done = 0
        while done < 30:
            k = int(rng.integers(2, 7))
            gens = rng.normal(size=(2, k))
            unit = gens / np.linalg.norm(gens, axis=0)
            if any(
                abs(float(unit[:, i] @ unit[:, j])) > 0.999
                for i in range(k)
                for j in range(i + 1, k)
            ):
                continue
            z = Zonotope(gens)
            poly = ccw_polygon(z.vertices())
            found = zonogon_recognize(poly)
            assert found is not None and len(found) == k
            used = [False] * k
            for g in found:
                hit = next(
                    j
                    for j in range(k)
                    if not used[j]
                    and (
                        np.allclose(g, gens[:, j], atol=1e-7)
                        or np.allclose(-g, gens[:, j], atol=1e-7)
                    )
                )
                used[hit] = True
            done += 1


def bits(x):
    """Every float in a report field, witness or generator list as float.hex; other values as they are."""
    if isinstance(x, np.ndarray):
        return [v.hex() for v in x.ravel().tolist()], x.shape
    if isinstance(x, (tuple, list)):
        return [bits(v) for v in x]
    return x


def report_bits(report):
    return [bits(getattr(report, f)) for f in ("symmetric", "center", "witness_failure", "reason")]


def seeded_zonogon(rng, m, parallel=False):
    """Counterclockwise vertex cycle of a zonogon with m generators, and its centre."""
    angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=m))
    if parallel:
        angles[1] = angles[0]  # a collinear vertex in the middle of one edge pair
    gens = rng.uniform(0.5, 2.0, size=(m, 1)) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    start = rng.uniform(-1.0, 1.0, size=2)
    verts = start + np.concatenate([np.zeros((1, 2)), np.cumsum(np.concatenate([gens, -gens])[:-1], axis=0)])
    return verts, start + gens.sum(axis=0) / 2.0


def point_set_inputs():
    """Seeded point sets: plain, with duplicates within the cut, symmetric, and symmetric bent by 1e-3 and 1e-12."""
    rng = np.random.default_rng(1212)
    for trial in range(160):
        m, d = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        base = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4)
        kind = trial % 5
        if kind == 1:  # repeats, exact and within the cut, shuffled in
            copies = base[rng.integers(m, size=int(rng.integers(1, 6)))]
            copies = copies + rng.choice([0.0, 1e-12, 1e-10]) * rng.normal(size=copies.shape)
            base = np.concatenate([base, copies])[rng.permutation(m + len(copies))]
        elif kind >= 2:
            c = rng.normal(size=d)
            base = np.concatenate([base, 2.0 * c - base])[rng.permutation(2 * m)]
            if kind >= 3:
                base[int(rng.integers(2 * m))] += (1e-3 if kind == 3 else 1e-12) * rng.normal(size=d)
        yield base, Tolerance(rel=1e-6) if trial % 7 == 6 else Tolerance()
    for m in (3, 4, 5, 6, 8):
        verts, _ = seeded_zonogon(rng, m, parallel=m in (4, 6))
        yield verts, Tolerance()
        yield np.concatenate([verts, verts[:2] + 1e-11]), Tolerance()
    yield Zonotope(A0).vertices(), Tolerance()
    yield GREEDY_CHAIN, Tolerance()


# each point within the cut (about 2e-9) of the next, the first and the last not:
# the greedy rule keeps the first, drops the second, and keeps the third
GREEDY_CHAIN = np.array([[1.0, 0.0], [1.0 + 1.5e-9, 0.0], [1.0 + 3e-9, 0.0], [-1.0, 0.0]])


def polygon_inputs():
    """Seeded polygons: zonogons (some with collinear vertices), bent ones, odd and clockwise ones."""
    rng = np.random.default_rng(1213)
    for trial in range(120):
        m = int(rng.integers(2, 8))
        verts, center = seeded_zonogon(rng, m, parallel=trial % 4 == 1 and m >= 2)
        kind = trial % 6
        if kind == 2:
            verts[int(rng.integers(len(verts)))] += 1e-3 * rng.normal(size=2)
        elif kind == 3:
            verts[1] += 1e-12 * (verts[1] - center)
        elif kind == 4:
            verts = verts[::-1]
        elif kind == 5:
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=int(rng.integers(3, 10))))
            verts = np.stack([np.cos(t), np.sin(t)], axis=1) * rng.uniform(0.5, 2.0)
        yield verts, Tolerance(rel=1e-6) if trial % 9 == 8 else Tolerance()


def loop_inputs():
    """Seeded segment loops: closed polygons and the same with one joint opened by 1e-3 or 1e-12."""
    rng = np.random.default_rng(1214)
    for verts, tol in polygon_inputs():
        segs = np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
        yield segs, tol
        opened = segs.copy()
        opened[int(rng.integers(len(segs))), 1] += rng.choice([1e-3, 1e-12]) * rng.normal(size=2)
        yield opened, tol
    for count, d in ((1, 2), (3, 3), (6, 1)):
        pts = rng.normal(size=(count, d))
        yield np.stack([pts, np.roll(pts, -1, axis=0)], axis=1), Tolerance()


class TestAgainstLoopReferences:
    """The pairwise array tests give exactly the reports, witnesses, messages and generators of the loops."""

    def test_dedupe_is_greedy(self):
        cut = Tolerance().threshold(1.0)
        kept = _dedupe(GREEDY_CHAIN, cut)
        assert bits(kept) == bits(np.array(oracles.loop_dedupe(GREEDY_CHAIN, cut)))
        assert len(kept) == 3

    def test_central_center(self):
        for pts, tol in point_set_inputs():
            assert report_bits(central_center(pts, tol)) == report_bits(oracles.loop_central_center(pts, tol))

    def test_loops(self):
        for segs, tol in loop_inputs():
            want = oracles.loop_loop_symmetric(segs, tol)
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    SegmentLoop(segs, tol)
                assert str(err.value) == want
            else:
                assert report_bits(loop_symmetric(SegmentLoop(segs, tol), tol)) == report_bits(want)

    def test_zonogon_recognize(self):
        outcomes = set()
        for verts, tol in polygon_inputs():
            want = oracles.loop_zonogon_recognize(verts, tol)
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    zonogon_recognize(verts, tol)
                assert str(err.value) == want
            else:
                assert bits(zonogon_recognize(verts, tol)) == bits(want)
            outcomes.add(type(want).__name__)
        assert outcomes == {"str", "NoneType", "list"}
