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
