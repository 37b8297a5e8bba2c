import hashlib
import json

import numpy as np
import pytest

from minorcones import cones, nullity
from minorcones.cli import main
from minorcones.subsets import subset_order

HADAMARD = "{1,2}{} / {1}{2}"
COUNTEREXAMPLE = ("{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / "
                  "{1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}")


@pytest.fixture
def m6_file(tmp_path):
    f = tmp_path / "m6.txt"
    f.write_text("1 0 1 1\n0 1 1 1\n")
    return str(f)


@pytest.fixture
def poly_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("1, 0\n0, e\n")
    return str(f)


class TestNullity:
    def test_text_output(self, m6_file, capsys):
        assert main(["nullity", m6_file]) == 0
        out = capsys.readouterr().out
        assert "{1,2,3,4}: 2" in out
        assert "{3,4}: 1" in out

    def test_json_output(self, m6_file, capsys):
        assert main(["nullity", m6_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert payload["entries"]["{3,4}"] == 1

    def test_seven_column_stdout(self, tmp_path, capsys):
        # The fixture of the CI nullity step: rational entries, a zero
        # column and a row that is the sum of the other two.
        fixture = tmp_path / "seven.txt"
        fixture.write_text("1 0 1/2 2 0 1 -1\n0 1 1/2 2 0 1 3\n"
                           "1 1 1 4 0 2 2\n")
        assert main(["nullity", str(fixture)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("{1,2,3,4,5,6,7}: 5\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "39534f5e221344586c4b2e6e05f001f3fc55912426db4d51ed79dd4285050350")

    def test_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 x\n")
        assert main(["nullity", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestMembership:
    def test_member_exits_0(self, capsys):
        assert main(["membership", HADAMARD, "--semigroup", "E"]) == 0
        assert "member of E_2: True" in capsys.readouterr().out

    def test_non_member_exits_1(self, capsys):
        assert main(["membership", COUNTEREXAMPLE,
                     "--semigroup", "D"]) == 1
        out = capsys.readouterr().out
        assert "member of D_4: False" in out
        assert "violated: M6" in out

    def test_inhomogeneous_exits_2(self, capsys):
        assert main(["membership", "{1,2} / {1}", "--semigroup", "E"]) == 2
        assert "not homogeneous" in capsys.readouterr().err

    def test_h_membership(self, capsys):
        assert main(["membership", HADAMARD, "--semigroup", "H"]) == 0
        assert main(["membership", "{1,2} / {1}", "--semigroup", "H"]) == 1
        capsys.readouterr()

    def test_koteljanskii_certificate(self, capsys):
        assert main(["membership", HADAMARD, "--semigroup", "K",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is True
        assert payload["combination"]

    def test_koteljanskii_hyperplane(self, capsys):
        r1 = ("{1,2,4}{1,3,4}{2,3}{1}{4} / "
              "{1,2}{1,3}{1,4}{2,4}{3,4}")
        assert main(["membership", r1, "--semigroup", "K",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is False
        assert len(payload["hyperplane"]) == 16

    def test_catalogue_count_failure_exits_2(self, monkeypatch, capsys):
        fixed = nullity.nullity_type(nullity.M6)
        monkeypatch.setattr(nullity, "nullity_type", lambda m: fixed)
        nullity.catalog_n4.cache_clear()
        try:
            assert main(["membership", COUNTEREXAMPLE,
                         "--semigroup", "D"]) == 2
        finally:
            nullity.catalog_n4.cache_clear()
        assert capsys.readouterr().err.startswith(
            "error: n=4 catalogue has 6 types")

    @pytest.mark.parametrize("ratio,extra", [
        ("{1,40}{} / {1}{40}", []),
        (HADAMARD, ["--n", "40"]),
    ])
    def test_ground_size_cap_exits_2(self, ratio, extra, capsys):
        assert main(["membership", ratio, "--semigroup", "H", *extra]) == 2
        err = capsys.readouterr().err
        assert "ground size 40" in err and "16" in err


# sha256 of the `extreme-rays` text output, which is byte-stable.
RAYS_TEXT_SHA256 = {
    ("E", 3): "27fcc196dfbd5fcd25aaec60aa9b2aa6f603df814dda726d8e1a546ee460167f",
    ("E", 4): "6c804bec6c92aa7f0d6a99f3ea1f97f970cb321813fda2de83ef53b03f1736b9",
    ("E", 5): "3acac2b89f9e0604684ffa54f181d6873e6e65bc5c1612fd32767f9b6f93c416",
    ("D", 3): "b63737c7e15278a0625db76d5e84616f7cb436f0bb6e1251221aa8c559adda2d",
    ("D", 4): "dcc481e133d693ba3ab954114dc226f749027381b8de7d480a9d903e6dbe43ab",
}


class TestExtremeRays:
    @pytest.mark.parametrize("system,n", sorted(RAYS_TEXT_SHA256))
    def test_text_output_is_pinned(self, system, n, capsys):
        assert main(["extreme-rays", "--system", system, "--n", str(n)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == RAYS_TEXT_SHA256[system, n]

    def test_e3(self, capsys):
        assert main(["extreme-rays", "--system", "E", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "6 extreme rays" in out
        assert out.count("[koteljanskii]") == 6

    def test_d4_json(self, capsys):
        assert main(["extreme-rays", "--system", "D", "--n", "4",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ray_count"] == 46
        assert sum(payload["koteljanskii"]) == 24
        assert sorted(payload["orbit_sizes"]) == [6, 8, 8, 12, 12]

    def test_e5_closed_under_the_group(self, capsys):
        assert main(["extreme-rays", "--system", "E", "--n", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ray_count"] == 1310
        assert len(payload["orbit_sizes"]) == 22
        assert sum(payload["orbit_sizes"]) == 1310
        order = subset_order(5)
        rays = set()
        for entries in payload["rays"]:
            vec = [0] * 32
            for mask, x in zip(order, entries):
                vec[mask] = x
            rays.add(tuple(vec))
        assert len(rays) == 1310
        assert len(list(cones._vector_images(next(iter(rays)), 5))) == 240
        for vec in rays:
            assert set(cones._vector_images(vec, 5)) <= rays

    def test_unsupported_pair_exits_2(self, capsys):
        assert main(["extreme-rays", "--system", "D", "--n", "5"]) == 2
        assert "unsupported" in capsys.readouterr().err

    def test_certificate_failure_exits_2(self, monkeypatch, capsys):
        found = cones._double_description

        def negated(rows, dim):
            lines, rays = found(rows, dim)
            return lines, [tuple(-x for x in r) for r in rays]

        monkeypatch.setattr(cones, "_double_description", negated)
        assert main(["extreme-rays", "--system", "E", "--n", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: extreme ray")

    def test_byte_stability(self, capsys):
        main(["extreme-rays", "--system", "D", "--n", "4"])
        first = capsys.readouterr().out
        main(["extreme-rays", "--system", "D", "--n", "4"])
        assert capsys.readouterr().out == first


class TestAsnAndProbes:
    def test_asn(self, poly_file, capsys):
        assert main(["asn", poly_file]) == 0
        out = capsys.readouterr().out
        assert "{2}: 1" in out and "{1}: 0" in out

    def test_asn_singular_exits_2(self, tmp_path, capsys):
        f = tmp_path / "sing.txt"
        f.write_text("1, 1\n1, 1\n")
        assert main(["asn", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a principal Gram minor is "
                                "identically zero; P is not invertible as a "
                                "polynomial matrix\n")

    def test_probe_family(self, m6_file, capsys):
        assert main(["probe-family", COUNTEREXAMPLE, m6_file]) == 0
        out = capsys.readouterr().out
        assert "predicted_slope: -1" in out
        assert "verdict: matches" in out

    def test_probe_poly_custom_grid(self, poly_file, capsys):
        assert main(["probe-poly", HADAMARD, poly_file,
                     "--eps-min", "1e-6", "--eps-max", "1e-2"]) == 0
        assert "verdict: matches" in capsys.readouterr().out

    def test_probe_poly_size_mismatch_exits_2(self, poly_file, capsys):
        assert main(["probe-poly", "{1,3}{}/{1}{3}", poly_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: polynomial matrix column count must "
                                "equal the ground size\n")

    def test_out_file_written(self, m6_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["nullity", m6_file, "--format", "json",
                     "--out", str(dest)]) == 0
        capsys.readouterr()
        assert json.loads(dest.read_text())["n"] == 4


class TestSearchCommands:
    def test_bound_search_small(self, capsys):
        assert main(["bound-search", HADAMARD, "--samples", "200",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max_ratio:" in out and "diverging: False" in out

    def test_fiedler_small(self, capsys):
        assert main(["fiedler", "--n", "4", "--samples", "100",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst_residual"] >= -1e-9

    @pytest.mark.parametrize("argv,message", [
        (["fiedler", "--n", "0"], "dimension must lie in 1..16"),
        (["fiedler", "--n", "17", "--samples", "1"],
         "dimension must lie in 1..16"),
        (["membership", "{1,2}{}/{1}{2}", "--semigroup", "K", "--n", "9"],
         "Koteljanskii cone membership supported for n <= 8"),
    ])
    def test_oversized_input_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command,rows", [
        # One row of 17 columns: 2^17 rank problems.
        ("nullity", [" ".join(["1"] * 17)]),
        # The 17 x 17 identity: 2^17 - 1 polynomial determinants.
        ("asn", [", ".join("1" if i == j else "0" for j in range(17))
                 for i in range(17)]),
    ])
    def test_oversized_matrix_file_exits_2(self, tmp_path, command, rows,
                                           capsys):
        wide = tmp_path / "wide.txt"
        wide.write_text("\n".join(rows) + "\n")
        assert main([command, str(wide)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: matrix has 17 columns; at most 16 "
                                "are supported\n")

    def test_fiedler_breakdown_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.zeros_like(a))
        assert main(["fiedler", "--n", "4", "--samples", "10"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: Fiedler inequality violated")
