#!/usr/bin/env bash
# The checks that both CI jobs run on the installed package with asserts
# stripped, from a scratch working directory:
#   bash "$GITHUB_WORKSPACE/.github/installed-checks.sh"
# Each section exits nonzero on the first failure.
set -euo pipefail

echo "::group::Polynomial input errors"
# A zero denominator, a degree past polyarith.MAX_DEGREE and one of 5000
# digits, more than int() converts: each exits 2 at once with its error
# line, before any coefficient list is built.
# bad FILE LINE: asn exits 2 within 10 s and prints LINE.
bad() {
  code=0
  timeout 10 python -O -m minorcones.cli asn "$1" 2> "$1.err" || code=$?
  cat "$1.err"
  test "$code" -eq 2
  grep -qxF "$2" "$1.err"
}
printf '1/0*e, 1\n0, 1\n' > zero_denominator.txt
bad zero_denominator.txt "error: line 1: zero denominator in polynomial term '1/0*e' in '1/0*e'"
printf '1, e^99999999999\n0, 1\n' > huge_degree.txt
bad huge_degree.txt "error: line 1: degree 99999999999 of polynomial term 'e^99999999999' in ' e^99999999999' exceeds the supported maximum 131071"
nines=$(printf '9%.0s' $(seq 5000))
printf '1, e^%s\n0, 1\n' "$nines" > long_degree.txt
bad long_degree.txt "error: line 1: degree $nines of polynomial term 'e^$nines' in ' e^$nines' exceeds the supported maximum 131071"
echo "::endgroup::"

echo "::group::Bound search on a ratio that is not homogeneous"
# Index 1 has net exponent 1, so the supremum is infinite: bound-search
# exits 2 with its error line before it draws a sample.
code=0
python -O -m minorcones.cli bound-search '{1,2}{1,3} / {1}{2,3}' --samples 2000 --seed 1 2> inhomogeneous.err || code=$?
cat inhomogeneous.err
test "$code" -eq 2
grep -qxF "error: bound search requires a homogeneous formal log" inhomogeneous.err
echo "::endgroup::"

echo "::group::The oracles stay out of the package import"
# Only reproduce imports minorcones.oracles, so importing the package must
# not load it.
python -O -c "import sys, minorcones; sys.exit('minorcones.oracles loaded by import minorcones' if 'minorcones.oracles' in sys.modules else None)"
echo "::endgroup::"

echo "::group::Slope probes"
# The E_4 counterexample along M6^T M6 + eps I (predicted slope
# -1), and Q along P(e)^T P(e) for P = P_for_Q (predicted -2).
printf '1 0 1 1\n0 1 1 1\n' > m6.txt
python -O -m minorcones.cli probe-family '{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / {1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}' m6.txt | tee family_out.txt
grep -qx 'verdict: matches' family_out.txt
printf '1, 1, 1, 1, 1\n0, e, 0, 1, 2\n0, 0, e, 1, 2\n0, 0, 0, e, 0\n0, 0, 0, 0, e\n' > p_for_q.txt
python -O -m minorcones.cli probe-poly '{1,2,3,4,5}{1,3,4,5}{2,3,4,5}{1,2,3}{1,2,5}{3,4}{4,5}{1}{2}{} / {1,2,3,4}{1,2,3,5}{1,4,5}{2,4,5}{3,4,5}{1,2}{1,3}{2,3}{4}{5}' p_for_q.txt | tee poly_out.txt
grep -qx 'verdict: matches' poly_out.txt
echo "::endgroup::"

echo "::group::Membership exit codes and the 2^63 D4 witness"
# cone(K_4): a member (exit 0), then R1, a non-member (exit 1).
python -O -m minorcones.cli membership '{1,2}{} / {1}{2}' --semigroup K --n 4
code=0
python -O -m minorcones.cli membership '{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}' --semigroup K --n 4 || code=$?
test "$code" -eq 1
# E_4 and D_4 membership on the cached int64 row arrays: a member
# of both (exit 0), and counterexample_E4, a member of E_4 (exit
# 0) but not of D_4 (exit 1).
python -O -m minorcones.cli membership '{1,2}{} / {1}{2}' --semigroup D --n 4
python -O -m minorcones.cli membership '{1,2}{} / {1}{2}' --semigroup E --n 4
python -O -m minorcones.cli membership '{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / {1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}' --semigroup E --n 4
code=0
python -O -m minorcones.cli membership '{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / {1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}' --semigroup D --n 4 || code=$?
test "$code" -eq 1
# The same counterexample with every exponent 2^63: its products
# with the rows are taken on Python ints.  D_4 names the violated
# row (exit 1), and E_4 admits it (exit 0).
big=$(echo '{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / {1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}' | sed 's/}/}^9223372036854775808/g')
code=0
python -O -m minorcones.cli membership "$big" --semigroup D --n 4 > big_d4.txt || code=$?
test "$code" -eq 1
grep -qxF 'violated: {1}|{2}|{3,4} = -9223372036854775808' big_d4.txt
python -O -m minorcones.cli membership "$big" --semigroup E --n 4
# cone(K_6): a seeded sum of four local generators, a member
# (exit 0).  cone(K_7): probe.random_homogeneous_log(7,
# default_rng(7)), a non-member (exit 1), about a second on the
# int64 tableau.
python -O -m minorcones.cli membership '{1,2}{3,4}^2{2,5}{1,2,3,6}{1,2,4,6}^3{2,3,5,6}{1,2,3,4,5,6}^3 / {3}^2{4}^2{1,2,3}{2,3,5}{1,2,6}{2,5,6}{1,2,3,4,6}^3{1,2,4,5,6}^3' --semigroup K --n 6
code=0
python -O -m minorcones.cli membership '{3}^2{5}{7}{1,2}{2,3}{2,4}{1,5}{2,5}{1,6}{4,6}{4,7}{5,7}{6,7}{1,2,3}{1,2,4}{1,3,5}{2,4,5}{1,4,6}{2,4,6}{1,5,6}{3,4,7}{4,6,7}{1,2,3,5}{2,3,4,5}{1,2,4,6}{2,3,4,6}{1,2,5,6}{1,3,4,7}{2,3,4,7}{1,3,5,7}{2,4,5,7}{1,2,6,7}{3,4,6,7}{1,2,4,5,6}{1,3,4,5,6}{2,3,4,5,6}{1,2,4,5,7}{2,3,4,5,7}{1,2,4,6,7}{1,4,5,6,7}{1,2,3,4,5,6}{1,2,3,4,5,7}{1,3,4,5,6,7} / {1}^3{2}^5{4}^10{6}^5{3,4}{4,5}{5,6}{3,7}{1,3,4}{2,3,4}{1,2,5}{2,3,5}{2,5,6}{4,5,6}{1,4,7}{2,4,7}{2,6,7}{5,6,7}{1,2,3,4}{1,2,4,5}{1,3,4,5}{1,3,5,6}{2,3,5,6}{1,4,5,6}{1,2,3,7}{1,2,4,7}{1,2,5,7}{1,4,5,7}{3,4,5,7}{1,3,6,7}{2,3,6,7}{1,5,6,7}{1,2,3,4,5}{1,2,3,4,7}{1,2,3,5,7}{1,3,5,6,7}{2,3,5,6,7}{1,2,3,5,6,7}' --semigroup K --n 7 > /dev/null || code=$?
test "$code" -eq 1
echo "::endgroup::"

echo "::group::D_5 membership prints its 149 rows"
# Q is a member of D_5 (exit 0): the verdict line, then one line per row
# of nullity.d_constraint_set(5).
python -O -m minorcones.cli membership '{1,2,3,4,5}{1,3,4,5}{2,3,4,5}{1,2,3}{1,2,5}{3,4}{4,5}{1}{2}{} / {1,2,3,4}{1,2,3,5}{1,4,5}{2,4,5}{3,4,5}{1,2}{1,3}{2,3}{4}{5}' --semigroup D --n 5 > q_d5.txt
lines=$(wc -l < q_d5.txt)
test "$lines" -eq 150
echo "::endgroup::"

echo "::group::cone(K_n) certificates, text and JSON"
# The exact LP's cleared certificates: the n = 4 member (exit 0), R1
# (exit 1), a member with ^p/q exponents and the cone(K_6) member, text
# and JSON stdout as tier-1 pins them in tests/test_cli.py.
# k RATIO N NAME CODE: text and JSON stdout, each exiting CODE.
k() {
  for format in text json; do
    code=0
    python -O -m minorcones.cli membership "$1" --semigroup K --n "$2" --format "$format" > "$3.$format" || code=$?
    test "$code" -eq "$4"
  done
}
k '{1,2}{} / {1}{2}' 4 k4_member 0
k '{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}' 4 k4_r1 1
k '{1,2}^1/2{}^1/2 / {1}^1/2{2}^1/2' 4 k4_fractional 0
k '{1,2}{3,4}^2{2,5}{1,2,3,6}{1,2,4,6}^3{2,3,5,6}{1,2,3,4,5,6}^3 / {3}^2{4}^2{1,2,3}{2,3,5}{1,2,6}{2,5,6}{1,2,3,4,6}^3{1,2,4,5,6}^3' 6 k6_member 0
printf '%s\n' \
  '6bfb2aa3d31556573ce61184cbcfc86f7091299de7789223340d9ed2a33a990f  k4_member.text' \
  '4e6d28b6ee0bec5fabcdafd2f6f2fa5edc02a4b1ac044bc1999e009ca443808f  k4_member.json' \
  '979b9a118a7ab73ee330c777af423fabecee1d3aa1b8539d38ff2bcd772a03cf  k4_r1.text' \
  'bf82d82aa5190de821034f8e688844ca0543da5e4daed22b8a7a0749f16c03d4  k4_r1.json' \
  'f62f666fb7664ce4a6a0fb27d6dad80f0e40cae76ce37bae9b5f426fd3a84b66  k4_fractional.text' \
  '17a61dffd647818063e1b41312d05f6864214f1719eedfae6921b5980c242f69  k4_fractional.json' \
  '8efd3fd6bd746050f985362ff9e3916061ccde791365db62f947f174e85cf8fe  k6_member.text' \
  '5062b5f595fbdf708aa5481d875252a0c7811543f3ee95feb62db52b822a4e50  k6_member.json' | sha256sum --check
echo "::endgroup::"

echo "::group::asn, nullity and E8 digests"
printf '1/2*e, 3/2\n0, 1\n' > asn_fixture.txt
python -O -m minorcones.cli asn asn_fixture.txt
# Asymptotic nullity type of a seeded 6x6 integer family A + eB +
# e^2 C with rank A = 2 (half-degrees 0 to 4): stdout as recorded.
printf '4+1*e+1*e^2, 4-1*e-1*e^2, -6-1*e^2, -2+1*e^2, 4-1*e+1*e^2, 1*e^2\n-1*e^2, 1-1*e^2, -1+1*e^2, 1+1*e+1*e^2, 2-1*e, 2-1*e\n4+1*e+1*e^2, 1*e-1*e^2, -2, -6-1*e, -4-1*e-1*e^2, -8+1*e-1*e^2\n-4-1*e+1*e^2, -3+1*e-1*e^2, 5+1*e^2, 3+1*e^2, -2-1*e-1*e^2, 2+1*e-1*e^2\n1*e-1*e^2, 1+1*e-1*e^2, -1+1*e+1*e^2, 1+1*e, 2-1*e+1*e^2, 2+1*e+1*e^2\n4+1*e+1*e^2, 2-1*e+1*e^2, -4, -4+1*e, -2*e, -4-1*e+1*e^2\n' > asn6_fixture.txt
python -O -m minorcones.cli asn asn6_fixture.txt > asn6_out.txt
echo "5528d7f399a1fe2c148bead2238ce2492f85332ecc0cba86e736a28efb3a3785  asn6_out.txt" | sha256sum --check
# The same for a seeded 8x8 family (half-degrees 0 to 6), one
# argument per row.  asn prints exact integers, so the digest,
# recorded with the coefficient-list arithmetic, holds on every
# platform.
printf '%s\n' \
  '-1-1*e-1*e^2, -1+1*e^2, -2-1*e^2, 1+1*e-1*e^2, -1-1*e^2, 2+1*e-1*e^2, -1+1*e^2, 1+1*e-1*e^2' \
  '3+1*e-1*e^2, 1+1*e-1*e^2, 1*e-1*e^2, -2+1*e^2, -1*e-1*e^2, -3+1*e, 3+1*e+1*e^2, -1' \
  '3+1*e, -1-1*e^2, -6-1*e+1*e^2, -1-1*e+1*e^2, -3+1*e, 1*e, 3+1*e, 1+1*e+1*e^2' \
  '-1*e, -2-1*e, -6+1*e, 1+1*e+1*e^2, -3-1*e+1*e^2, 3+1*e+1*e^2, -1*e, 2-1*e-1*e^2' \
  '-5, -1-1*e, 2-1*e, 3, 1+1*e^2, 4-1*e^2, -5+1*e, 1-1*e-1*e^2' \
  '-3+1*e-1*e^2, -1-1*e-1*e^2, -1*e^2, 2-1*e, -1*e^2, 3+1*e, -3-1*e-1*e^2, 1+1*e^2' \
  '-4, -2-1*e^2, -2+1*e-1*e^2, 3+1*e^2, -1-1*e-1*e^2, 5-1*e+1*e^2, -4-1*e+1*e^2, 2+1*e' \
  '-1-1*e+1*e^2, 1+1*e^2, 4-1*e+1*e^2, -1*e-1*e^2, 2-1*e-1*e^2, -1, -1+1*e+1*e^2, -1-1*e+1*e^2' > asn8_fixture.txt
python -O -m minorcones.cli asn asn8_fixture.txt > asn8_out.txt
echo "af76d09f09b284f80aa2b0b8eca00e139d755f9cf2d7b90a46634a956d6b1ecc  asn8_out.txt" | sha256sum --check
# Nullity type of a 7-column matrix (rational entries, a zero
# column, dependent rows): stdout as recorded.
printf '1 0 1/2 2 0 1 -1\n0 1 1/2 2 0 1 3\n1 1 1 4 0 2 2\n' > nullity_fixture.txt
python -O -m minorcones.cli nullity nullity_fixture.txt > nullity_out.txt
echo "39534f5e221344586c4b2e6e05f001f3fc55912426db4d51ed79dd4285050350  nullity_out.txt" | sha256sum --check
# build_E_system(8): 466 rows, and the sha256 of repr((labels,
# inequalities)) as recorded with one elimination per row.
python -O -c "import sys; from minorcones.cones import build_E_system; rows = len(build_E_system(8).inequalities); sys.exit(None if rows == 466 else f'build_E_system(8) has {rows} rows, expected 466')"
python -O -c "import hashlib, sys; from minorcones.cones import build_E_system; s = build_E_system(8); digest = hashlib.sha256(repr((s.labels, s.inequalities)).encode()).hexdigest(); sys.exit(None if digest == 'b1884b5b092744fdd141210a34fed5dfeefd82e4969ce7ade1281575216c2749' else f'build_E_system(8) digest {digest}')"
echo "::endgroup::"

echo "::group::A seeded bound search"
# The batched ascent: one matmul over the remaining factors and one
# unchecked kernel call per accepted step; tier-1 compares it bitwise with
# the stepwise loop.
python -O -m minorcones.cli bound-search '{1,2}{1,3}{2,3} / {1}{2}{3}{1,2,3}' --n 3 --seed 7 --samples 2000
echo "::endgroup::"

echo "::group::Log-minor kernel above n = 6"
# The per-size elimination on large masks and stacks.
python -O -m minorcones.cli fiedler --n 16 --samples 5000
python -O -m minorcones.cli bound-search '{1,2,3,4,5,6,7,8}{}/{1,2,3,4}{5,6,7,8}' --samples 2000
echo "::endgroup::"

echo "::group::Sample streams at the sampler cap in bounded memory"
# fiedler and bound-search at MAX_SAMPLE_ENTRIES (2^25 matrix entries) hold
# one chunk of samples at a time: the larger child's max RSS must stay
# under 150 MB.  Holding the whole batch took 677 and 581 MB.
python -O - <<'EOF'
import resource, subprocess, sys
for args in (["fiedler", "--n", "4", "--samples", "2097152"],
             ["bound-search", "{1,2}{1,3}/{1}{1,2,3}", "--n", "3",
              "--samples", "3728270"]):
    subprocess.run([sys.executable, "-O", "-m", "minorcones.cli",
                    *args], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"largest child max RSS: {peak:.1f} MB")
sys.exit(None if peak <= 150 else
         f"child max RSS {peak:.1f} MB exceeds 150 MB")
EOF
echo "::endgroup::"

echo "::group::E5 and D4 extreme rays"
# The Gram certificate's int64 stack, end to end; stdout as recorded, the
# digests tier-1 pins in tests/test_cli.py.
python -O -m minorcones.cli extreme-rays --system E --n 5 > e5_rays.txt
echo "3acac2b89f9e0604684ffa54f181d6873e6e65bc5c1612fd32767f9b6f93c416  e5_rays.txt" | sha256sum --check
python -O -m minorcones.cli extreme-rays --system D --n 4 > d4_rays.txt
echo "dcc481e133d693ba3ab954114dc226f749027381b8de7d480a9d903e6dbe43ab  d4_rays.txt" | sha256sum --check
echo "::endgroup::"

echo "::group::The reproduce report"
# reproduce --out writes each check's details as they are, so the report
# must load as JSON and hold 10 passed checks.
python -O -m minorcones.cli reproduce --out report.json
python -O - <<'EOF'
import json, sys
checks = json.load(open("report.json"))["checks"]
passed = sum(check["passed"] for check in checks)
sys.exit(None if len(checks) == passed == 10 else
         f"{passed} of {len(checks)} checks passed, expected 10 of 10")
EOF
echo "::endgroup::"
