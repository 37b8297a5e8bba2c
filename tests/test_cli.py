import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minorcones import cones, nullity, reproduce
from minorcones.cli import main
from minorcones.probe import DEFAULT_GRID, DEFAULT_POLY_GRID
from minorcones.subsets import group_gathers, subset_order

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
        assert "violated: {1}|{2}|{3,4} = -1" in out

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
        monkeypatch.setitem(nullity.D_ROW_COUNTS, 4, 24)
        nullity.d_constraint_set.cache_clear()
        try:
            assert main(["membership", COUNTEREXAMPLE,
                         "--semigroup", "D"]) == 2
        finally:
            nullity.d_constraint_set.cache_clear()
        assert capsys.readouterr().err == (
            "error: D_4 has 23 rows, expected 24\n")

    @pytest.mark.parametrize("ratio,extra", [
        ("{1,40}{} / {1}{40}", []),
        (HADAMARD, ["--n", "40"]),
    ])
    def test_ground_size_cap_exits_2(self, ratio, extra, capsys):
        assert main(["membership", ratio, "--semigroup", "H", *extra]) == 2
        err = capsys.readouterr().err
        assert "ground size 40" in err and "16" in err

    def test_zero_exponent_denominator_exits_2(self, capsys):
        assert main(["membership", "{1}^1/0 / {1}", "--semigroup", "H"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: exponent denominator must be "
                                "positive (at position 6)\n")


# Fixed ratios for the `membership` pins: members and non-members of
# cone(K_n), D_n and E_n at n = 4, 5 and 6, with `^p/q` exponents.
MEMBERSHIP_RATIOS = (
    (HADAMARD, 4),
    ("{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}", 4),
    ("{1,2,3,4}^2{2,3}{2,4}{3,4}{1}{} / "
     "{1,2,3}{1,2,4}{1,3,4}{2,3,4}{2}{3}{4}", 4),
    (COUNTEREXAMPLE, 4),
    ("{1,2}^1/2{}^1/2 / {1}^1/2{2}^1/2", 4),
    ("{1,2,3,4}^3/2{1,3,4}^3/2{1,2}^3/2{1,4}^3/2{2,3}^3/2{2,4}^3/2{3}^3/2"
     "{}^3/2 / {1,2,3}^3/2{1,2,4}^3/2{2,3,4}^3/2{1,3}^3/2{3,4}^3/2{1}^3/2"
     "{2}^3/2{4}^3/2", 4),
    ("{1,2,3,4,5}{1,3,4,5}{2,3,4,5}{1,2,3}{1,2,5}{3,4}{4,5}{1}{2}{} / "
     "{1,2,3,4}{1,2,3,5}{1,4,5}{2,4,5}{3,4,5}{1,2}{1,3}{2,3}{4}{5}", 5),
    ("{1,2,5}^5/2{1}^5/2{3,4}^1/3{}^1/3 / {1,2}^5/2{1,5}^5/2{3}^1/3{4}^1/3",
     5),
    ("{1}^4{3}^5{4}^3{5}{1,2}{2,4}{1,2,4}{2,3,5}{3,4,5}{1,2,3,5} / "
     "{2}{1,3}{2,3}{1,4}{3,5}{4,5}{1,2,3}{1,3,4}{2,3,4}{1,3,5}{1,4,5}"
     "{1,2,3,4}", 5),
    ("{1,2}{3,4}^2{2,5}{1,2,3,6}{1,2,4,6}^3{2,3,5,6}{1,2,3,4,5,6}^3 / "
     "{3}^2{4}^2{1,2,3}{2,3,5}{1,2,6}{2,5,6}{1,2,3,4,6}^3{1,2,4,5,6}^3", 6),
    ("{1}^6{3}^3{4}^3{5}^5{6}{1,2}{2,4}{3,6}{1,2,4}{2,3,5}{3,4,5}{1,3,6}"
     "{2,3,6}{3,4,6}{2,5,6}{4,5,6}{1,2,3,5}{1,2,3,6}{1,3,4,6}{1,2,5,6}"
     "{1,2,3,4,6}{2,3,4,5,6} / {2}^2{1,3}{2,3}{1,4}{3,5}{4,5}{4,6}{5,6}"
     "{1,2,3}{1,3,4}{2,3,4}{1,3,5}{1,4,5}{1,2,6}{1,4,6}{1,5,6}{3,5,6}"
     "{1,2,3,4}{2,3,4,6}{1,3,5,6}{2,3,5,6}{1,2,3,5,6}{1,2,4,5,6}"
     "{1,3,4,5,6}", 6),
)

# (ratio index, semigroup, exit code, sha256 of the text stdout) of
# `membership`: the exact combinations, hyperplanes and inner products.
MEMBERSHIP_STDOUT_SHA256 = (
    (0, 'K', 0, '6bfb2aa3d31556573ce61184cbcfc86f7091299de7789223340d9ed2a33a990f'),
    (0, 'D', 0, '314e446015efa95ab9b1e07442d3a6d881a9b62688835a671dce86da8571ac4e'),
    (0, 'E', 0, 'ebcc805d2cbe9bac6be0559b2843b063237bd2a258d9597a46e0151f670aac7b'),
    (1, 'K', 1, '979b9a118a7ab73ee330c777af423fabecee1d3aa1b8539d38ff2bcd772a03cf'),
    (1, 'D', 0, '45057d9763b566e7c64348df7681103295294c97af52c8583785c2c54cca6da5'),
    (1, 'E', 0, '95146d9ed76f3fdc66560a25ab6b9caa4034314fcbe5baf496cc6edead1edab9'),
    (2, 'K', 1, '4834840159317a1281205bb2827ee7ee23a72843fef837cbc72bd09258a0c09b'),
    (2, 'D', 0, 'b08a481b2891d90cd466a4ea947b6af0303f016eda9427b581bc5fa4bdfac59f'),
    (2, 'E', 0, '67d5820b546c224a98c124931b775b8a8760f0de3141baba7bca8f5ef9d5f17a'),
    (3, 'K', 1, '02bbbf60203e4a05a9b56bcae3969f7c8cd892496bb205a4b43afda627a09a05'),
    (3, 'D', 1, '27a358c65f826f038333abb4279b2f544b21052d1c9f350fe3f5715be33874a9'),
    (3, 'E', 0, '2a96c4b02f1107a1d97c47b204de479cecedb20b1e748050f2099d7df94e9709'),
    (4, 'K', 0, 'f62f666fb7664ce4a6a0fb27d6dad80f0e40cae76ce37bae9b5f426fd3a84b66'),
    (4, 'D', 0, '55cd7e89edddcc16e4379daaede5efb70040d332b6a5df3fab5e03f49098151c'),
    (4, 'E', 0, 'c77435cb0341115b08c17d403b412e0a2804bdb101363fb127916fc9735ffc3b'),
    (5, 'K', 1, '02bbbf60203e4a05a9b56bcae3969f7c8cd892496bb205a4b43afda627a09a05'),
    (5, 'D', 1, '7bfe3ad8e6da96dff7e270724ba510fda9abc6da4c46e267a60859f3916fb8d2'),
    (5, 'E', 0, 'c6664f097636745d5d46abac8b2d6d49f99f4e315f9d644a222ef259c8b27f84'),
    (6, 'K', 1, 'a84f346ed5f60d61114e9e5ed563acedff9d48ef781a6f63a1c046802c0d9e58'),
    (6, 'D', 0, 'af4c1bde84c11a19dcbe6b1531fc813093e4ee89549dfad52ca4c76ce12ff5ef'),
    (6, 'E', 0, '05d21e8f975d19cb70711dd9974d65448a272e6ea66d9ff6fc93057584ba8ec3'),
    (7, 'K', 0, 'ee9a1715ce9cea5c042beaa4ea7912ee103bcb98a7e30195a8e3e654ca730f44'),
    (7, 'D', 0, '09cb10953ccaa16458bedaa8491f8e5d6a3c195952c96f5eb4a4537373dd1a90'),
    (7, 'E', 0, '91261fd248d705c9d7c30376303ce7fdb5ac8fa5eeed1d3f357be4fe5f134583'),
    (8, 'K', 1, '2e10ade0ebec713423bc606b2bcd9de9bbfe252bd72ef29ee8e1a19d1c6c320e'),
    (8, 'D', 1, 'c6644c66855514d58fa5bb953309b85e8b8e4273ce783ddc7ce412dda3961229'),
    (8, 'E', 1, '9f12915cb473fe5a27061fb6c2f4ea0fefeb30a563e2591213975f15b71d8653'),
    (9, 'K', 0, '8efd3fd6bd746050f985362ff9e3916061ccde791365db62f947f174e85cf8fe'),
    (9, 'E', 0, 'b99d994c799ee7ab7ad54e1578f6609110306a87e646fa0e106a5b1ea342d415'),
    (10, 'K', 1, '4776476328311495be13a4e67dbc4e65640eff8e069f1ea724632ba87103d729'),
    (10, 'E', 1, '339d559be1346057753167e36c5c4a0ece0f8bda05bb361e9aa2d7eb04c0003e'),
)


class TestMembershipPins:
    @pytest.mark.parametrize("index,semigroup,code,digest",
                             MEMBERSHIP_STDOUT_SHA256)
    def test_stdout_is_pinned(self, index, semigroup, code, digest, capsys):
        ratio, n = MEMBERSHIP_RATIOS[index]
        assert main(["membership", ratio, "--semigroup", semigroup,
                     "--n", str(n)]) == code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


# (ratio index, exit code, sha256 of the `--format json` stdout) of
# `membership --semigroup K`: the n = 4 member, R1, two ratios with `^p/q`
# exponents, an n = 5 member with `^p/q` exponents and the cone(K_6)
# member of CI.  Their text stdout is pinned above.
KOTELJANSKII_JSON_SHA256 = (
    (0, 0, '4e6d28b6ee0bec5fabcdafd2f6f2fa5edc02a4b1ac044bc1999e009ca443808f'),
    (1, 1, 'bf82d82aa5190de821034f8e688844ca0543da5e4daed22b8a7a0749f16c03d4'),
    (4, 0, '17a61dffd647818063e1b41312d05f6864214f1719eedfae6921b5980c242f69'),
    (5, 1, '9180d62253ec4028245ce21efc71b826aa1a63eaf6e7dd84e729e415c7bc5452'),
    (7, 0, 'bd3f508d58908f08c7c3c04f789e18a61db88a8baea4a9e3642d996b72f9dc89'),
    (9, 0, '5062b5f595fbdf708aa5481d875252a0c7811543f3ee95feb62db52b822a4e50'),
)


class TestKoteljanskiiJsonPins:
    @pytest.mark.parametrize("index,code,digest", KOTELJANSKII_JSON_SHA256)
    def test_json_stdout_is_pinned(self, index, code, digest, capsys):
        ratio, n = MEMBERSHIP_RATIOS[index]
        assert main(["membership", ratio, "--semigroup", "K", "--n", str(n),
                     "--format", "json"]) == code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


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
        gathers = [gather for _, _, gather in group_gathers(5)]
        assert len(gathers) == 240
        for vec in rays:
            assert {gather(vec) for gather in gathers} <= rays

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


class TestClosedStdout:
    def test_broken_pipe_exits_141_without_an_error(self, tmp_path,
                                                    monkeypatch, capsys):
        # The reader of stdout went away, as in `minorcones ... | head -1`.
        # main points the stream's descriptor, here a file of the test's
        # own, at devnull.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        with open(tmp_path / "stdout", "wb") as target:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["extreme-rays", "--system", "E", "--n", "3"]) == 141
            assert os.path.samestat(os.fstat(target.fileno()),
                                    os.stat(os.devnull))
        assert capsys.readouterr().err == ""


class TestReproduce:
    def test_out_report_round_trips_the_details(self, tmp_path, capsys):
        # The report writes each check's details as they are: a value that
        # json cannot write, or writes as something else, fails here.
        report = tmp_path / "report.json"
        assert main(["reproduce", "--out", str(report)]) == 0
        assert capsys.readouterr().out.endswith("10/10 checks passed\n")
        checks = json.loads(report.read_text())["checks"]
        assert len(checks) == 10 and all(c["passed"] for c in checks)
        assert [(c["name"], c["details"]) for c in checks] == [
            (r.name, json.loads(json.dumps(r.details)))
            for r in reproduce.run_all()]


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

    @pytest.mark.parametrize("flag", [["--eps-min", "1e-6"],
                                      ["--eps-max", "1e-2"]])
    def test_probe_poly_one_eps_flag_keeps_the_default_end(self, poly_file,
                                                            flag, capsys):
        # The end not given comes from the command's own default grid.
        assert main(["probe-poly", HADAMARD, poly_file, *flag,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilons"] == list(DEFAULT_POLY_GRID)

    @pytest.mark.parametrize("flag", [
        ["--eps-min", "1e-7"], ["--eps-max", "0.1"],
        ["--eps-min", "1e-7", "--eps-max", "0.1"]])
    def test_probe_family_default_ends_keep_the_default_grid(
            self, m6_file, flag, capsys):
        # Ends equal to the default grid's give that grid: seven points, not
        # nine log-spaced ones.
        assert main(["probe-family", COUNTEREXAMPLE, m6_file, *flag,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilons"] == list(DEFAULT_GRID)

    def test_probe_poly_size_mismatch_exits_2(self, poly_file, capsys):
        assert main(["probe-poly", "{1,3}{}/{1}{3}", poly_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: polynomial matrix column count must "
                                "equal the ground size\n")

    @pytest.mark.parametrize("command", [["asn"], ["probe-poly", HADAMARD]])
    def test_zero_denominator_names_its_line(self, tmp_path, command, capsys):
        f = tmp_path / "zero.txt"
        f.write_text("1/0*e, 1\n0, 1\n")
        assert main(command + [str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 1: zero denominator in "
                                "polynomial term '1/0*e' in '1/0*e'\n")

    @pytest.mark.parametrize("command", [["asn"], ["probe-poly", HADAMARD]])
    def test_huge_degree_exits_2_at_once(self, tmp_path, command):
        # A dense coefficient list for e^99999999999 would hold 10^11
        # entries, so the command runs in a child under a 2 GiB address
        # space limit and a timeout.
        f = tmp_path / "huge.txt"
        f.write_text("1, e^99999999999\n0, 1\n")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from minorcones.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cones.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, *command, str(f)],
                              env=env, capture_output=True, text=True,
                              timeout=10)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: line 1: degree 99999999999 of polynomial term "
            "'e^99999999999' in ' e^99999999999' exceeds the supported "
            "maximum 131071\n")

    @pytest.mark.parametrize("command", [["asn"], ["probe-poly", HADAMARD]])
    def test_degree_past_the_int_digit_limit_exits_2(self, tmp_path, command,
                                                     capsys):
        nines = "9" * 5000
        f = tmp_path / "long.txt"
        f.write_text(f"1, e^{nines}\n0, 1\n")
        assert main(command + [str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 1: degree {nines} of polynomial term 'e^{nines}' "
            f"in ' e^{nines}' exceeds the supported maximum 131071\n")

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

    def test_non_homogeneous_bound_search_exits_2(self, capsys):
        assert main(["bound-search", "{1,2}{1,3} / {1}{2,3}", "--samples",
                     "2000", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bound search requires a homogeneous "
                                "formal log\n")

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

    @pytest.mark.parametrize("argv,message", [
        # 131 073 matrices of 16 x 16: one past 2^25 entries.
        (["fiedler", "--n", "16", "--samples", "131073"],
         "131073 samples of dimension 16 are 33554688 matrix entries; at "
         "most 33554432 are supported"),
        (["bound-search", "{1,2}{} / {1}{2}", "--samples", "8388609"],
         "8388609 samples of dimension 2 are 33554436 matrix entries; at "
         "most 33554432 are supported"),
    ])
    def test_oversized_sample_batch_exits_2_before_sampling(
            self, monkeypatch, argv, message, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled an oversized batch")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["fiedler", "--n", "4", "--seed", "-1"],
        ["bound-search", "{1,2}{}/{1}{2}", "--seed", "-1"],
    ])
    def test_negative_seed_exits_2_before_sampling(self, monkeypatch, argv,
                                                   capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled with a negative seed")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

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
