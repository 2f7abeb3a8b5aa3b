import json
from itertools import combinations
from math import comb

import numpy as np
import pytest

from zonokit import cli, numkit, tiling, zonotope
from zonokit.congruence import CongruenceWitness
from zonokit.tiling import Tiling
from zonokit.zonotope import Zonotope

import oracles
from test_congruence import huge_column, signed_copy, spread_norms
from fixture_matrices import (
    hex_facet_generators,
    near_cut_default_tol,
    near_cut_rank_deficient,
    near_cut_wide_tol,
    scale_dependent_closure,
    spread_scale_mesh,
)

A0 = hex_facet_generators()


def write_text_matrix(path, m):
    path.write_text("\n".join(" ".join(str(x) for x in row) for row in np.asarray(m)) + "\n")


def write_json_matrix(path, m):
    m = np.asarray(m, dtype=float)
    path.write_text(
        json.dumps(
            {"rows": m.shape[0], "cols": m.shape[1], "data": [float(x) for x in m.ravel()]}
        )
    )


@pytest.fixture
def a0_file(tmp_path):
    p = tmp_path / "a0.txt"
    write_text_matrix(p, A0)
    return str(p)


class TestMatrixParsing:
    def test_text_and_json_agree(self, tmp_path):
        p1 = tmp_path / "m.txt"
        p2 = tmp_path / "m.json"
        write_text_matrix(p1, A0)
        write_json_matrix(p2, A0)
        assert np.array_equal(cli.load_matrix(str(p1)), cli.load_matrix(str(p2)))

    def test_nan_rejected_with_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3 nan\n")
        with pytest.raises(cli.ParseFailure, match="2:2"):
            cli.load_matrix(str(p))

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3\n")
        with pytest.raises(cli.ParseFailure, match="expected 2 entries"):
            cli.load_matrix(str(p))

    def test_json_length_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 2, "cols": 2, "data": [1, 2, 3]}')
        with pytest.raises(cli.ParseFailure):
            cli.load_matrix(str(p))

    def test_missing_file(self):
        with pytest.raises(cli.ParseFailure):
            cli.load_matrix("/nonexistent/m.txt")

    def test_text_points_file_opened_once(self, tmp_path, monkeypatch):
        p = tmp_path / "pts.txt"
        write_text_matrix(p, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        opened = []
        # a module global shadows the builtin inside cli only
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args) or open(*args, **kwargs), raising=False)
        points, segments = cli.load_points(str(p))
        assert np.array_equal(points, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]) and segments is None
        assert len(opened) == 1


class TestMalformedInput:
    """Shape errors exit 10 with zonokit's own message, never a traceback."""

    def run(self, tmp_path, capsys, argv, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code = cli.main([argv[0], str(p)] + argv[1:])
        return code, capsys.readouterr().err

    def test_points_not_a_list(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, ["symmetry"], '{"points": 5}')
        assert code == 10
        assert "points: expected a nonempty list of coordinate lists" in err

    def test_matrix_data_null(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, ["volume"], '{"rows": 2, "cols": 2, "data": null}')
        assert code == 10
        assert "data a list" in err

    def test_ragged_segments(self, tmp_path, capsys):
        text = '{"segments": [[[0, 0], [1, 0]], [[1, 0], [1]]]}'
        code, err = self.run(tmp_path, capsys, ["symmetry"], text)
        assert code == 10
        assert "segments: every point needs 2 coordinates" in err
        assert "inhomogeneous" not in err

    @pytest.mark.parametrize(
        "argv, texts, message",
        [
            (["volume"], ['{"rows": 1, "cols": 2,\n "data": [1, 2]'], "{0}: invalid JSON at line 2, column 16"),
            (["volume"], ['{"rows": 1, "data": [1, 2]}'], "{0}: JSON matrix needs rows, cols, data"),
            (["volume"], [" \n\n"], "{0}: empty matrix"),
            (["symmetry"], ['{"points": [[0, 0],\n [1, 0] [0, 1]]}'], "{0}: invalid JSON at line 2, column 9"),
            (["symmetry"], ['{"segments": 5}'], "{0}: segments must be a list of [start, end] pairs"),
            (["symmetry"], ["{}"], "{0}: JSON needs a points or segments field"),
            (["congruent"], ["1 0\n0 1\n", "1 0 1\n0 1 1\n"], "matrices must have equal column counts"),
            (["root"], ["1 0 1\n0 1 1\n"], "exterior root needs a square matrix"),
        ],
        ids=["matrix-json", "matrix-fields", "matrix-blank", "points-json", "segments", "no-field", "columns", "root"],
    )
    def test_loader_refusals(self, argv, texts, message, tmp_path, capsys):
        paths = []
        for i, text in enumerate(texts):
            paths.append(str(tmp_path / f"in{i}"))
            (tmp_path / f"in{i}").write_text(text)
        assert cli.main(argv + paths) == 10
        assert capsys.readouterr().err == f"error: {message.format(*paths)}\n"

    def test_negative_mc_samples(self, a0_file, capsys):
        assert cli.main(["volume", a0_file, "--mc-samples", "-5"]) == 10
        assert "--mc-samples must be nonnegative" in capsys.readouterr().err


class TestVolumeCommand:
    def test_fixture_line(self, a0_file, capsys):
        assert cli.main(["volume", a0_file]) == 0
        out = capsys.readouterr().out
        assert "rank 3, volume 10, 9/10 subsets independent" in out

    def test_identity(self, tmp_path, capsys):
        p = tmp_path / "i.txt"
        write_text_matrix(p, np.eye(3))
        assert cli.main(["volume", str(p)]) == 0
        assert "volume 1," in capsys.readouterr().out

    def test_planar(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_text_matrix(p, [[1, 0, 1], [0, 1, 1]])
        assert cli.main(["volume", str(p)]) == 0
        assert "volume 3," in capsys.readouterr().out

    def test_monte_carlo_within_one_percent(self, a0_file, capsys):
        assert cli.main(["volume", a0_file, "--mc-samples", "400000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        mc = float(next(l for l in out.splitlines() if l.startswith("mc-volume")).split()[1])
        assert abs(mc - 10.0) <= 0.1

    def test_rank_deficient_warns(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_text_matrix(p, A0[:, [0, 1, 2]])
        assert cli.main(["volume", str(p)]) == 0
        err = capsys.readouterr().err
        assert "rank 2" in err

    def test_monte_carlo_near_cut_rank_deficient(self, tmp_path, capsys):
        # the Monte Carlo estimate reads the facets, whose column-space basis
        # once had three columns at rank 2 here
        p = tmp_path / "m.json"
        write_json_matrix(p, near_cut_rank_deficient())
        assert cli.main(["volume", str(p), "--mc-samples", "100"]) == 0
        captured = capsys.readouterr()
        assert "rank 2" in captured.err and "Traceback" not in captured.err
        assert "mc-volume" in captured.out

    def test_one_minor_table_per_command(self, tmp_path, monkeypatch, capsys):
        # the volume and the count of independent subsets read one table of the 5-subsets
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(12).normal(size=(5, 12)))
        measured = []
        original = numkit.subset_measures

        def counted(m, subsets):
            measured.append(len(subsets))
            return original(m, subsets)

        for module in (numkit, tiling, zonotope):  # by-name imports too
            if vars(module).get("subset_measures") is original:
                monkeypatch.setattr(module, "subset_measures", counted)
        assert cli.main(["volume", str(p)]) == 0
        assert "792/792 subsets independent" in capsys.readouterr().out
        assert sum(measured) == comb(12, 5) == 792

    def test_one_subset_table_per_command(self, tmp_path, monkeypatch, capsys):
        # the minor table and the column-norm products read one table of the 5-subsets
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(12).normal(size=(5, 12)))
        built = []
        original = numkit.subsets

        def counted(k, size):
            built.append((k, size))
            return original(k, size)

        for module in (numkit, cli, tiling, zonotope):  # by-name imports too
            if vars(module).get("subsets") is original:
                monkeypatch.setattr(module, "subsets", counted)
        assert cli.main(["volume", str(p)]) == 0
        assert "792/792 subsets independent" in capsys.readouterr().out
        assert built == [(12, 5)]

    def test_census_reads_directions(self, tmp_path, capsys):
        # a long column does not raise the cut for the others: each minor is
        # measured against its columns' lengths, not the largest entry
        p = tmp_path / "m.txt"
        write_text_matrix(p, [[1000, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert cli.main(["volume", str(p)]) == 0
        assert capsys.readouterr().out == "rank 3, volume 3001, 4/4 subsets independent\n"

    def test_census_near_cut_agrees_with_the_rank_census(self, tmp_path, capsys):
        # 72 independent triples, as many as the tiling has tiles
        p = tmp_path / "m.txt"
        write_text_matrix(p, near_cut_default_tol())
        assert cli.main(["volume", str(p)]) == 0
        assert "72/84 subsets independent" in capsys.readouterr().out
        assert np.count_nonzero(Zonotope(near_cut_default_tol()).rank_census(3)[1] == 3) == 72

    def test_census_equals_the_rank_census(self, tmp_path, capsys):
        rng = np.random.default_rng(136)
        p = tmp_path / "m.json"
        for trial in range(60):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(n, n + 5))
            if trial % 2:  # integer entries, some columns parallel
                a = rng.integers(-2, 3, size=(n, k)).astype(float)
                a[0, ~a.any(axis=0)] = 1.0
                a[:, -1] = -2.0 * a[:, 0]
            else:  # column scales 10^U(-4, 4)
                a = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, size=k)
            write_json_matrix(p, a)
            assert cli.main(["volume", str(p)]) == 0
            z = Zonotope(a)
            want = int(np.count_nonzero(z.rank_census(n)[1] == n)) if z.rank == n else 0
            assert f"{want}/{comb(k, n)} subsets independent" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rows", [[[1, 2, 3], [2, 4, 6]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]], ids=["rank1-in-R2", "rank2-in-R3"]
    )
    def test_monte_carlo_rank_deficient_is_zero(self, rows, tmp_path, monkeypatch, capsys):
        # a body of lower rank has no n-volume: no samples are drawn and no facets read
        p = tmp_path / "m.txt"
        write_text_matrix(p, rows)
        monkeypatch.setattr(cli, "_mc_volume", None)
        assert cli.main(["volume", str(p), "--mc-samples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "mc-volume 0 (rank " in out and "no samples drawn" in out

    def test_monte_carlo_segment(self, tmp_path, capsys):
        # a one-row matrix is its own bounding box
        p = tmp_path / "m.txt"
        p.write_text("1 2 -0.5\n")
        assert cli.main(["volume", str(p), "--mc-samples", "100"]) == 0
        assert "mc-volume 3.5 (100 samples)" in capsys.readouterr().out


class TestZeroGenerators:
    """Stripped zero generators are reported on stderr in the CLI's own style."""

    @pytest.mark.parametrize(
        "command, err",
        [
            ("volume", ""),
            ("tile", ""),
            ("mesh", "mesh export needs rank 3 in R^3, got rank 2 in R^2\n"),
        ],
    )
    def test_warning_line(self, command, err, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_text_matrix(p, [[1, 0, 2], [0, 0, 1]])
        cli.main([command, str(p), "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == "warning: stripped zero generators at columns (1,)\n" + err


class TestCongruentCommand:
    def test_positive_with_witness_file(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        a = rng.normal(size=(3, 5))
        sigma, signs = oracles.random_signed_permutation(rng, 5)
        b = oracles.random_orthogonal(rng, 3) @ (a[:, sigma] * signs)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_text_matrix(pa, a)
        write_text_matrix(pb, b)
        out_file = tmp_path / "w.json"
        code = cli.main(["congruent", str(pa), str(pb), "--out", str(out_file)])
        assert code == 0
        # the witness file is the printed JSON plus a newline
        printed = capsys.readouterr().out
        assert printed.startswith(out_file.read_text()) and printed.count("\n}\n") == 1
        payload = json.loads(out_file.read_text())
        assert payload["format_version"] == 1
        w = CongruenceWitness(
            tuple(payload["sigma"]),
            tuple(payload["signs"]),
            np.asarray(payload["q"]["data"]).reshape(
                payload["q"]["rows"], payload["q"]["cols"]
            ),
        )
        assert w.residual(a, b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("source", [huge_column, spread_norms], ids=lambda f: f.__name__)
    def test_spread_copies_pass_re_verification(self, source, tmp_path):
        rng = np.random.default_rng(92)
        pa, pb, out_file = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "w.json"
        for _ in range(10):
            a = source(rng)
            b = signed_copy(rng, a)
            write_text_matrix(pa, a)
            write_text_matrix(pb, b)
            assert cli.main(["congruent", str(pa), str(pb), "--out", str(out_file)]) == 0
            payload = json.loads(out_file.read_text())
            q = np.asarray(payload["q"]["data"]).reshape(payload["q"]["rows"], payload["q"]["cols"])
            w = CongruenceWitness(tuple(payload["sigma"]), tuple(payload["signs"]), q)
            assert w.residual(a, b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_taller_first_matrix(self, tmp_path, capsys):
        # A in R^4 is B in R^3 with a zero row, rotated and signed-permuted
        rng = np.random.default_rng(93)
        b = rng.normal(size=(3, 5))
        sigma, signs = oracles.random_signed_permutation(rng, 5)
        a = oracles.random_orthogonal(rng, 4) @ (np.vstack([b, np.zeros((1, 5))])[:, sigma] * signs)
        pa, pb, out_file = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "w.json"
        write_text_matrix(pa, a)
        write_text_matrix(pb, b)
        assert cli.main(["congruent", str(pa), str(pb), "--out", str(out_file)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("congruent, residual ")
        payload = json.loads(out_file.read_text())
        assert (payload["q"]["rows"], payload["q"]["cols"]) == (4, 4)
        q = np.asarray(payload["q"]["data"]).reshape(4, 4)
        w = CongruenceWitness(tuple(payload["sigma"]), tuple(payload["signs"]), q)
        assert w.residual(a, b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_negative_scaled_copy(self, tmp_path):
        from fixture_matrices import gram_equal_pairs

        a3 = gram_equal_pairs()[2][0]
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_text_matrix(pa, a3)
        write_text_matrix(pb, 2 * a3)
        assert cli.main(["congruent", str(pa), str(pb)]) == 1

    def test_capacity(self, tmp_path, capsys):
        rng = np.random.default_rng(91)
        a = rng.normal(size=(2, 11))
        pa = tmp_path / "a.txt"
        write_text_matrix(pa, a)
        assert cli.main(["congruent", str(pa), str(pa)]) == 2
        assert capsys.readouterr().err.startswith("capacity: ")


class TestTileCommand:
    def test_fixture(self, a0_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert cli.main(["tile", a0_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["tiles"]) == 9
        assert payload["validation"]["ok"]
        assert "9 tiles" in capsys.readouterr().out

    def test_identity_single_tile(self, tmp_path):
        p = tmp_path / "i.txt"
        write_text_matrix(p, np.eye(3))
        out = tmp_path / "t.json"
        assert cli.main(["tile", str(p), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["tiles"]) == 1

    def test_perturbed_ten(self, tmp_path):
        p = tmp_path / "m.txt"
        a = hex_facet_generators()
        a[2, 2] = 0.1
        write_text_matrix(p, a)
        out = tmp_path / "t.json"
        assert cli.main(["tile", str(p), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["tiles"]) == 10

    def test_rank_deficient_exit3(self, tmp_path):
        p = tmp_path / "m.txt"
        write_text_matrix(p, A0[:, [0, 1, 2]])
        assert cli.main(["tile", str(p)]) == 3

    def test_scale_dependent_closure_tiles_exactly(self, tmp_path, capsys):
        a = scale_dependent_closure()
        p = tmp_path / "m.json"
        write_json_matrix(p, a)
        out = tmp_path / "t.json"
        assert cli.main(["tile", str(p), "--out", str(out)]) == 0
        assert "validation pass" in capsys.readouterr().out
        til = Tiling.from_dict(json.loads(out.read_text()))
        want = [c for c in combinations(range(5), 4) if oracles.exact_rank(a[:, c]) == 4]
        assert til.census() == want and len(want) == 5
        exact = float(oracles.minor_sum_volume(a, 4))
        assert abs(til.volume_sum(a) - exact) <= 1e-8 * exact

    def test_explicit_order(self, a0_file, tmp_path):
        out = tmp_path / "t.json"
        assert cli.main(["tile", a0_file, "--order", "4,3,2,1,0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["order"] == [4, 3, 2, 1, 0]
        assert len(payload["tiles"]) == 9

    def test_one_rank_census_per_subset_size(self, tmp_path, monkeypatch):
        # faces, facets, tiles and validation all read the 3- and 4-subset
        # censuses, each ranked once
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(8).normal(size=(4, 8)))
        ranked = []
        original = numkit.rank_batch

        def counted(stack, *args, **kwargs):
            ranked.append(len(stack))
            return original(stack, *args, **kwargs)

        for module in (numkit, tiling, zonotope):  # by-name imports too
            if vars(module).get("rank_batch") is original:
                monkeypatch.setattr(module, "rank_batch", counted)
        assert cli.main(["tile", str(p), "--out", str(tmp_path / "t.json")]) == 0
        assert sum(ranked) == comb(8, 3) + comb(8, 4) == 126

    @pytest.mark.parametrize(
        "command, shape, slices",
        [("mesh", (3, 9), comb(9, 1) + comb(9, 2) + comb(9, 3)), ("tile", (4, 8), comb(8, 3) + comb(8, 4))],
    )
    def test_one_rank_batch_call_per_command(self, command, shape, slices, tmp_path, monkeypatch):
        # every census the faces, facets, vertices, tiles and validation read
        # is ranked by one stacked call: sizes 1..3 for mesh, n - 1 and n for tile
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(9).normal(size=shape))
        ranked = []
        original = numkit.rank_batch

        def counted(stack, *args, **kwargs):
            ranked.append(len(stack))
            return original(stack, *args, **kwargs)

        for module in (numkit, tiling, zonotope):  # by-name imports too
            if vars(module).get("rank_batch") is original:
                monkeypatch.setattr(module, "rank_batch", counted)
        assert cli.main([command, str(p), "--out", str(tmp_path / "out")]) == 0
        assert ranked == [slices]

    def test_segment(self, tmp_path, capsys):
        # a one-row matrix has no facets; containment is tested on [-0.5, 3]
        p = tmp_path / "m.txt"
        p.write_text("1 2 -0.5\n")
        out = tmp_path / "t.json"
        assert cli.main(["tile", str(p), "--out", str(out)]) == 0
        assert "3 tiles, volume 3.5, validation pass" in capsys.readouterr().out
        assert json.loads(out.read_text())["validation"]["containment_ok"]

    @pytest.mark.parametrize(
        "matrix, flags, line",
        [
            (near_cut_default_tol(), [], "72 tiles, volume 35108.998461, validation FAIL"),
            (near_cut_wide_tol(), ["--tol-rel", "1e-3"], "63 tiles, volume 2.29703058393, validation FAIL"),
        ],
        ids=["default", "wide"],
    )
    def test_near_cut_validation_fails_exit1(self, matrix, flags, line, tmp_path, capsys):
        # the only negative result of tile: the tiling file is still written, with its failed report
        p = tmp_path / "m.txt"
        write_text_matrix(p, matrix)
        out = tmp_path / "t.json"
        assert cli.main(["tile", str(p), "--out", str(out)] + flags) == 1
        assert capsys.readouterr().out == line + "\n"
        payload = json.loads(out.read_text())
        assert len(payload["tiles"]) == int(line.split()[0])
        assert payload["validation"]["ok"] is False


class TestTileJson:
    """The tile file is ``json.dumps(payload, indent=2)`` plus a newline, byte for byte."""

    def test_matches_the_indenting_encoder(self):
        rng = np.random.default_rng(131)
        checked = 0
        for n in range(1, 6):
            for k in range(n, n + 5):
                for kind in ("gauss", "int") * 3:
                    a = rng.normal(size=(n, k)) if kind == "gauss" else rng.integers(-3, 4, size=(n, k)).astype(float)
                    if not np.abs(a).max(axis=0).all() or np.linalg.matrix_rank(a) < n:
                        continue
                    z = Zonotope(a)
                    til = tiling.tile_zonotope(z)
                    report = tiling.validate_tiling(z, til)
                    payload = til.to_dict(z.matrix)
                    payload["validation"] = {"ok": report.ok, "volume_sum": report.volume_sum}
                    assert cli._tiling_json(payload) == json.dumps(payload, indent=2)
                    checked += 1
        assert checked >= 120

    def test_tile_file(self, tmp_path):
        rng = np.random.default_rng(132)
        p, out = tmp_path / "m.json", tmp_path / "t.json"
        for n in range(1, 6):
            write_json_matrix(p, rng.normal(size=(n, n + 3)))
            assert cli.main(["tile", str(p), "--out", str(out)]) == 0
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestFacetRecordsOnRequest:
    """tile and mesh read the facet table, never the BoundingFacet records."""

    def count(self, monkeypatch):
        counts = {"records": 0, "volumes": 0, "faces": 0}
        for cls, key in ((zonotope.BoundingFacet, "records"), (zonotope.GeneratingFace, "faces")):

            def counted(self, *args, _init=cls.__init__, _key=key, **kwargs):
                counts[_key] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        face_volumes = zonotope._face_volumes

        def counted_volumes(*args):
            counts["volumes"] += 1
            return face_volumes(*args)

        monkeypatch.setattr(zonotope, "_face_volumes", counted_volumes)
        return counts

    def test_tile(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(133).normal(size=(5, 9)))
        counts = self.count(monkeypatch)
        assert cli.main(["tile", str(p), "--out", str(tmp_path / "t.json")]) == 0
        assert "126 tiles" in capsys.readouterr().out
        assert counts == {"records": 0, "volumes": 0, "faces": 0}

    def test_mesh(self, tmp_path, monkeypatch):
        p = tmp_path / "m.json"
        write_json_matrix(p, np.random.default_rng(134).normal(size=(3, 7)))
        counts = self.count(monkeypatch)
        assert cli.main(["mesh", str(p), "--out", str(tmp_path / "m.off")]) == 0
        assert counts["records"] == counts["faces"] == 0

    def test_records_match_the_table(self):
        z = Zonotope(np.random.default_rng(135).normal(size=(4, 7)))
        table = z._bounding_facets
        records = z.bounding_facets()
        faces = z.generating_faces(z.rank - 1)
        assert len(records) == len(table.units) == 2 * len(faces)
        for row, bf in enumerate(records):
            assert bf.generating is faces[row // 2]
            assert np.array_equal(bf.unit_normal, table.units[row])
            assert bf.translation_set == tuple(np.flatnonzero(table.sides[row]).tolist())
            assert bf.support == table.supports[row]
        # geometric facets are the same records in geometric-facet order, the same objects on every call
        facets = z.geometric_facets()
        assert len(facets) == len(records)
        assert all(f is records[i] for f, i in zip(facets, z._geometric_facets.tolist()))
        assert all(a is b for a, b in zip(facets, z.geometric_facets()))


class TestSignMasks:
    """The mesh path keeps sign vectors as int masks: no frozenset is built in zonotope or cli."""

    def test_mesh_builds_no_frozenset(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return frozenset(*args)

        for module in (zonotope, cli):
            monkeypatch.setattr(module, "frozenset", counted, raising=False)
        z = Zonotope(np.random.default_rng(136).normal(size=(3, 8)))
        assert oracles.off_is_sphere(cli.off_mesh(z))
        assert built == []
        # the public sign vectors are still frozensets, built on request
        assert len(z.vertex_sign_vectors()) == len(z.vertices()) and built


class TestRootCommand:
    def test_identity(self, tmp_path, capsys):
        p = tmp_path / "i.txt"
        write_text_matrix(p, np.eye(3))
        out = tmp_path / "r.json"
        assert cli.main(["root", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        root = np.asarray(payload["data"]).reshape(3, 3)
        assert np.allclose(root, np.eye(3))
        assert "residual 0" in capsys.readouterr().out

    def test_roundtrip_fixture(self, tmp_path):
        from zonokit.numkit import compound

        rng = np.random.default_rng(92)
        a = rng.normal(size=(4, 4)) + np.eye(4)
        p = tmp_path / "b.txt"
        write_text_matrix(p, compound(a))
        out = tmp_path / "r.json"
        assert cli.main(["root", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        root = np.asarray(payload["data"]).reshape(4, 4)
        assert np.allclose(root, a, atol=1e-7)

    def test_no_real_root_exit4(self, tmp_path, capsys):
        p = tmp_path / "b.txt"
        write_text_matrix(p, np.diag([1.0, 1.0, -1.0]))
        assert cli.main(["root", str(p)]) == 4
        assert "no real root" in capsys.readouterr().err

    def test_singular_exit4(self, tmp_path, capsys):
        p = tmp_path / "b.txt"
        write_text_matrix(p, np.ones((3, 3)))
        assert cli.main(["root", str(p)]) == 4
        assert "precondition" in capsys.readouterr().err

    def test_unverified_root_exit4(self, tmp_path, capsys):
        # U diag(1, 1, 3.8e-9) V^T has rank 3 at the default tolerance, but the
        # root it gives fails verification (relative residual 1.5e-8)
        p = tmp_path / "b.txt"
        p.write_text(
            "0.30994180709456781 0.28542548448355587 0.35620140519310095\n"
            "0.60504735987303981 0.67282185560305163 -0.23595685072106196\n"
            "-0.10429613986444672 0.00083559320628589031 -0.90014629504622201\n"
        )
        out = tmp_path / "r.json"
        assert cli.main(["root", str(p), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("no verified root: ") and err.count("\n") == 1
        assert not out.exists()


class TestMeshCommand:
    def test_cube(self, tmp_path):
        p = tmp_path / "i.txt"
        write_text_matrix(p, np.eye(3))
        out = tmp_path / "m.off"
        assert cli.main(["mesh", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "OFF"
        v, f, e = (int(x) for x in lines[1].split())
        assert (v, f, e) == (8, 6, 0)

    def test_fixture_counts_match_hull_oracle(self, a0_file, tmp_path):
        out = tmp_path / "m.off"
        assert cli.main(["mesh", a0_file, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        v, f, _ = (int(x) for x in lines[1].split())
        masks = (np.arange(32)[:, None] >> np.arange(5)) & 1
        cloud = masks.astype(float) @ A0.T
        assert v == len(oracles.hull_vertex_set(cloud)) == 20
        assert f == len(oracles.support_facets(A0)) == 16
        sizes = sorted(int(l.split()[0]) for l in lines[2 + v :])
        assert sizes.count(6) == 2  # the two hexagon faces
        assert sizes.count(4) == 14

    def test_hexagonal_prism(self, tmp_path):
        p = tmp_path / "m.txt"
        write_text_matrix(p, A0[:, :4])
        out = tmp_path / "m.off"
        assert cli.main(["mesh", str(p), "--out", str(out)]) == 0
        v, f, _ = (int(x) for x in out.read_text().splitlines()[1].split())
        assert (v, f) == (12, 8)

    def test_reparse_vertices_and_orientation(self, a0_file, tmp_path):
        out = tmp_path / "m.off"
        assert cli.main(["mesh", a0_file, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        v, f, _ = (int(x) for x in lines[1].split())
        verts = np.asarray([[float(x) for x in l.split()] for l in lines[2 : 2 + v]])
        got = {tuple(np.round(p, 9)) for p in verts}
        want = {tuple(np.round(p, 9)) for p in Zonotope(A0).vertices()}
        assert got == want
        # re-hulling the emitted vertices loses nothing: all are extreme
        assert oracles.hull_vertex_set(verts) == got
        center = Zonotope(A0).center()
        for line in lines[2 + v :]:
            idx = [int(x) for x in line.split()[1:]]
            poly = verts[idx]
            centroid = poly.mean(axis=0)
            outward = centroid - center
            # ccw orientation about the outward normal (right-hand rule)
            normal = np.zeros(3)
            for i in range(len(poly)):
                normal += np.cross(poly[i], poly[(i + 1) % len(poly)])
            assert float(normal @ outward) > 0

    def test_spread_column_scales_match_exact_counts(self, tmp_path):
        a = spread_scale_mesh()
        p = tmp_path / "m.json"
        write_json_matrix(p, a)
        out = tmp_path / "m.off"
        assert cli.main(["mesh", str(p), "--out", str(out)]) == 0
        masks = (np.arange(64)[:, None] >> np.arange(6)) & 1
        assert len(oracles.hull_vertex_set(masks.astype(float) @ a.T)) == 32
        assert len(oracles.exact_faces(a, 2)) == 15
        assert out.read_text().splitlines()[1] == "32 30 0"

    def test_wrong_rank_exit5(self, tmp_path):
        p = tmp_path / "m.txt"
        write_text_matrix(p, np.eye(2))
        assert cli.main(["mesh", str(p)]) == 5

    def test_too_many_generators_exit2(self, tmp_path, capsys):
        rng = np.random.default_rng(93)
        p = tmp_path / "m.txt"
        write_text_matrix(p, rng.normal(size=(3, 17)))
        assert cli.main(["mesh", str(p)]) == 2
        assert capsys.readouterr().err.startswith("capacity: ")

    @pytest.mark.parametrize(
        "matrix, flags",
        [(near_cut_default_tol(), []), (near_cut_wide_tol(), ["--tol-rel", "1e-3"])],
        ids=["default", "rel=1e-3"],
    )
    def test_near_cut_exits_without_traceback(self, matrix, flags, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_text_matrix(p, matrix)
        code = cli.main(["mesh", str(p), "--out", str(tmp_path / "m.off")] + flags)
        assert code in (cli.EXIT_OK, cli.EXIT_CAPACITY, cli.EXIT_MESH_RANK, cli.EXIT_PARSE)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix, flags",
        [(near_cut_default_tol(), []), (near_cut_wide_tol(), ["--tol-rel", "1e-3"])],
        ids=["default", "rel=1e-3"],
    )
    def test_near_cut_surface_refused(self, matrix, flags, tmp_path, capsys):
        # overlapping closed 2-faces: the facet polygons do not close into a sphere
        p = tmp_path / "m.txt"
        write_text_matrix(p, matrix)
        out = tmp_path / "m.off"
        assert cli.main(["mesh", str(p), "--out", str(out)] + flags) == cli.EXIT_MESH_RANK
        err = capsys.readouterr().err
        assert "V - E + F = " in err and "--tol-rel" in err
        assert not out.exists()

    def test_determinism(self, a0_file, tmp_path):
        out1, out2 = tmp_path / "m1.off", tmp_path / "m2.off"
        cli.main(["mesh", a0_file, "--out", str(out1)])
        cli.main(["mesh", a0_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def mesh_matrix(rng, trial):
    k = int(rng.integers(3, 11))
    family = trial % 3
    if family == 0:
        return rng.normal(size=(3, k))
    if family == 1:  # integer entries; the last column parallel to the first, the one before antiparallel
        a = rng.integers(-2, 3, size=(3, k)).astype(float)
        a[0, ~a.any(axis=0)] = 1.0
        a[:, -1] = 2.0 * a[:, 0]
        a[:, -2] = -a[:, 1]
        return a
    return rng.normal(size=(3, k)) * 10.0 ** rng.uniform(-4, 4, size=k)  # column scales 10^U(-4, 4)


class TestAgainstMaskMesh:
    """Polygons from the cycle walk equal the membership-mask polygons byte for byte."""

    @pytest.mark.filterwarnings("ignore::zonokit.zonotope.RankDeficiencyWarning")
    def test_seeded_differential(self):
        rng = np.random.default_rng(909)
        meshes = refused = trial = 0
        while meshes < 200:
            trial += 1
            tol = cli.Tolerance(rel=1e-3) if trial % 8 == 0 else cli.Tolerance()
            z = Zonotope(mesh_matrix(rng, trial), tol)
            if z.rank != 3:
                continue
            meshes += 1
            want = oracles.mask_off_mesh(z)
            if oracles.off_is_sphere(want):
                assert cli.off_mesh(z) == want
            else:
                with pytest.raises(cli.MeshSurfaceError):
                    cli.off_mesh(z)
                refused += 1
        assert refused <= 2


class TestSymmetryCommand:
    def test_square(self, tmp_path, capsys):
        p = tmp_path / "sq.txt"
        p.write_text("0 0\n1 0\n1 1\n0 1\n")
        assert cli.main(["symmetry", str(p)]) == 0
        out = capsys.readouterr().out
        assert "symmetric, center 0.5 0.5" in out
        assert "zonogon generators" in out

    def test_pentagon(self, tmp_path, capsys):
        import math

        p = tmp_path / "p.txt"
        pts = [
            (math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5))
            for i in range(5)
        ]
        p.write_text("\n".join(f"{x} {y}" for x, y in pts) + "\n")
        assert cli.main(["symmetry", str(p)]) == 1
        out = capsys.readouterr().out
        assert "not symmetric" in out
        assert "zonogon: absent" in out

    def test_hexagon_generators_recovered(self, tmp_path, capsys):
        import math

        z = Zonotope(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        verts = z.vertices()
        c = np.mean(verts, axis=0)
        verts.sort(key=lambda q: math.atan2(q[1] - c[1], q[0] - c[0]))
        p = tmp_path / "h.txt"
        p.write_text("\n".join(" ".join(str(x) for x in q) for q in verts) + "\n")
        assert cli.main(["symmetry", str(p)]) == 0
        assert "zonogon generators" in capsys.readouterr().out

    def test_segment_json(self, tmp_path, capsys):
        p = tmp_path / "loop.json"
        p.write_text(
            json.dumps(
                {
                    "segments": [
                        [[0, 0], [1, 0]],
                        [[1, 0], [1, 1]],
                        [[1, 1], [0, 1]],
                        [[0, 1], [0, 0]],
                    ]
                }
            )
        )
        assert cli.main(["symmetry", str(p)]) == 0
        assert "loop: symmetric" in capsys.readouterr().out


class TestOverflowingLength:
    """A generator length, minor, facet normal length, column-norm product or root determinant that
    overflows float64 exits 10 with one message and no RuntimeWarning, and no rank 0 or inf answer."""

    BIG2 = np.diag([1e200, 1e200])
    BIG3 = np.hstack([np.diag([1e200, 1e200, 1e200]), np.ones((3, 1))])
    # finite lengths whose minors and facet normal lengths overflow
    BIG_MINORS = np.diag([1e150, 1e150, 1e150])
    # finite minors, the largest 1e304, but the norms of the dependent columns 0, 1, 2 multiply to 1.4e312
    BIG_NORMS = np.array([[1e104, 0, 1e104, 0], [0, 1e104, 1e104, 0], [0, 0, 0, 1e96]])

    @pytest.mark.parametrize(
        "command, matrices, message",
        [
            ("volume", [BIG2], "the length of column 0 overflows float64"),
            ("tile", [BIG3], "the length of column 0 overflows float64"),
            ("mesh", [BIG3], "the length of column 0 overflows float64"),
            ("congruent", [BIG2, BIG2], "the squared length of column 0 of A overflows float64"),
            ("congruent", [np.eye(2), BIG2], "the squared length of column 0 of B overflows float64"),
            ("volume", [BIG_MINORS], "the 3-volume of columns (0, 1, 2) overflows float64"),
            ("tile", [BIG_MINORS], "the 3-volume of columns (0, 1, 2) overflows float64"),
            ("mesh", [BIG_MINORS], "the normal length of the facet on columns (0, 1) overflows float64"),
            ("volume", [BIG_NORMS], "the product of the lengths of columns (0, 1, 2) overflows float64"),
            ("root", [BIG2], "the determinant of the matrix overflows float64"),
        ],
    )
    def test_exit10(self, command, matrices, message, tmp_path, capsys):
        paths = []
        for i, m in enumerate(matrices):
            paths.append(str(tmp_path / f"m{i}.txt"))
            write_text_matrix(tmp_path / f"m{i}.txt", m)
        out = tmp_path / "out"
        assert cli.main([command, *paths, "--out", str(out)]) == 10
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_finite_lengths_answer(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_text_matrix(p, np.diag([1e150, 1e150]))
        assert cli.main(["volume", str(p)]) == 0
        assert capsys.readouterr().out == "rank 2, volume 1e+300, 1/1 subsets independent\n"

    def test_finite_minors_answer(self, tmp_path, capsys):
        # minors 1e150 and facet normal lengths squared 1e300 stay finite
        p = tmp_path / "m.txt"
        write_text_matrix(p, np.diag([1e75, 1e75, 1e75]))
        out = str(tmp_path / "out")
        assert cli.main(["volume", str(p)]) == 0
        assert cli.main(["tile", str(p), "--out", out]) == 0
        assert cli.main(["mesh", str(p), "--out", out]) == 0
        assert capsys.readouterr() == (
            "rank 3, volume 1e+225, 1/1 subsets independent\n"
            "1 tiles, volume 1e+225, validation pass\n"
            f"wrote {out}: 8 vertices, 6 faces\n",
            "",
        )


class TestExitCodesAndConfig:
    def test_parse_error_exit10(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 nan\n")
        assert cli.main(["volume", str(p)]) == 10

    def test_env_tol_override(self, a0_file, monkeypatch):
        monkeypatch.setenv("ZONOKIT_TOL_ABS", "0.5")
        parser = cli.build_parser()
        args = parser.parse_args(["volume", a0_file])
        assert args.tol_abs == 0.5

    def test_env_tol_read_on_every_call(self, tmp_path, monkeypatch, capsys):
        # the second column's unit direction has a second pivot of about 0.29
        p = tmp_path / "m.txt"
        write_text_matrix(p, [[1.0, 1.0], [0.0, 0.3]])
        monkeypatch.setenv("ZONOKIT_TOL_ABS", "0.5")
        assert cli.main(["volume", str(p)]) == 0
        assert capsys.readouterr().out.startswith("rank 1,")
        monkeypatch.setenv("ZONOKIT_TOL_ABS", "1e-9")
        assert cli.main(["volume", str(p)]) == 0
        assert capsys.readouterr().out.startswith("rank 2,")
        monkeypatch.setenv("ZONOKIT_TOL_ABS", "half")
        assert cli.main(["volume", str(p)]) == 10

    def test_malformed_env_tol_exit10(self, a0_file, monkeypatch):
        monkeypatch.setenv("ZONOKIT_TOL_ABS", "half")
        assert cli.main(["volume", a0_file]) == 10

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit10(self, a0_file, value, capsys):
        # identical matrices: a NaN cutoff used to report "not congruent" (exit 1)
        assert cli.main(["congruent", a0_file, a0_file, f"--tol-rel={value}"]) == 10
        assert "finite and nonnegative" in capsys.readouterr().err
        assert cli.main(["volume", a0_file, f"--tol-abs={value}"]) == 10
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_every_subcommand_lists_shared_options(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        usage = capsys.readouterr().out
        for option in ("--tol-abs", "--tol-rel", "--seed", "--out"):
            assert option in usage

    def test_output_determinism(self, a0_file, capsys):
        cli.main(["volume", a0_file])
        first = capsys.readouterr().out
        cli.main(["volume", a0_file])
        second = capsys.readouterr().out
        assert first == second
