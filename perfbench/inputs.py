"""Seeded input streams for the workloads.

Stdlib only, and independent of the package: a stream is a pure function of
the seed, so the same seed always yields the same inputs.  Each stream is
built from shuffled blocks with a fixed mix, so every run sees the same
proportion of job kinds whatever its seed or length.
"""

import random
from itertools import count
from typing import Dict, Iterator, List, Sequence, Tuple

# Job mix per block, chosen so the median and the 90th percentile fall
# inside one job kind rather than on a gap between two kinds.
RAYS_BLOCK = ("E3", "D3", "E4", "E4", "D4", "D4")
MEMBERSHIP_BLOCK = ("member", "member", "random", "random")
PROBES_BLOCK = ("family",) * 3 + ("poly_linear",) * 2 + (
    "poly_quadratic",) * 3 + ("fiedler",) * 2 + ("bound_named", "bound_random")
NAMED_BOUNDED = ("R1", "R2", "R3")

MEMBERSHIP_N = 4
PROBE_N = 4
BOUND_SAMPLES = 10_000
FIEDLER_SAMPLES = 2_000
FIEDLER_SIZES = (3, 4, 5, 6)

MIXES = {
    "rays": RAYS_BLOCK,
    "membership": MEMBERSHIP_BLOCK,
    "probes": PROBES_BLOCK,
    "reproduce": ("reproduce",),
}


# ---------------------------------------------------------------- subsets

def members(mask: int) -> Tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def relabel_mask(mask: int, perm: Sequence[int], complement: bool,
                 n: int) -> int:
    """Image of a subset under sigma (perm[i-1] = sigma(i)), then optionally
    complemented."""
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << (perm[i] - 1)
    return ((1 << n) - 1) ^ out if complement else out


def relabel_vector(vec: Sequence, perm: Sequence[int], complement: bool,
                   n: int) -> Tuple:
    out = [0] * (1 << n)
    for mask, x in enumerate(vec):
        out[relabel_mask(mask, perm, complement, n)] = x
    return tuple(out)


# ------------------------------------------------------- ratio vectors

def koteljanskii_vector(s: int, t: int, n: int) -> List[int]:
    """Formal log of (S u T)(S n T) / (S)(T) as a mask-indexed list."""
    vec = [0] * (1 << n)
    for mask, sign in ((s | t, 1), (s & t, 1), (s, -1), (t, -1)):
        vec[mask] += sign
    return vec


def incomparable_pair(rng: random.Random, n: int) -> Tuple[int, int]:
    while True:
        s, t = rng.randrange(1 << n), rng.randrange(1 << n)
        if s | t not in (s, t):
            return s, t


def homogeneous_basis(n: int) -> List[List[int]]:
    """One homogeneous vector per subset S with |S| >= 2:
    e_S - sum_{i in S} e_{i} + (|S| - 1) e_{}."""
    basis = []
    for s in range(1 << n):
        if s.bit_count() < 2:
            continue
        vec = [0] * (1 << n)
        vec[s] = 1
        vec[0] = s.bit_count() - 1
        for i in members(s):
            vec[1 << (i - 1)] -= 1
        basis.append(vec)
    return basis


def ratio_text(vec: Sequence[int], n: int) -> str:
    """Ratio string whose formal log is vec (which must sum to zero)."""
    order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))

    def product(sign: int) -> str:
        terms = []
        for mask in order:
            x = vec[mask] * sign
            if mask and x > 0:
                term = "{" + ",".join(map(str, members(mask))) + "}"
                terms.append(term + (f"^{x}" if x != 1 else ""))
        return "".join(terms) or "{}"

    return product(1) + " / " + product(-1)


def koteljanskii_member(rng: random.Random, n: int) -> List[int]:
    """Nonnegative integer combination of 2-6 Koteljanskii ratios."""
    while True:
        vec = [0] * (1 << n)
        for _ in range(rng.randint(2, 6)):
            s, t = incomparable_pair(rng, n)
            c = rng.randint(1, 3)
            vec = [a + c * b for a, b in
                   zip(vec, koteljanskii_vector(s, t, n))]
        if any(vec[1:]):
            return vec


def random_homogeneous(rng: random.Random, n: int) -> List[int]:
    """Random nonzero {-1, 0, 1} combination of homogeneous_basis(n)."""
    basis = homogeneous_basis(n)
    while True:
        vec = [0] * (1 << n)
        for b in basis:
            c = rng.randint(-1, 1)
            if c:
                vec = [a + c * x for a, x in zip(vec, b)]
        if any(vec[1:]):
            return vec


def sparse_homogeneous(rng: random.Random, n: int) -> List[int]:
    """Random nonzero signed sum of 1-4 Koteljanskii patterns."""
    while True:
        vec = [0] * (1 << n)
        for _ in range(rng.randint(1, 4)):
            s, t = incomparable_pair(rng, n)
            c = rng.choice((-1, 1))
            vec = [a + c * b for a, b in
                   zip(vec, koteljanskii_vector(s, t, n))]
        if any(vec[1:]):
            return vec


# ------------------------------------------------------------ matrices

def rank_deficient_text(rng: random.Random, n: int) -> str:
    """Integer matrix with 1..n-1 rows and entries in [-2, 2], not zero."""
    rows = rng.randint(1, n - 1)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
        if any(any(row) for row in m):
            return "\n".join(" ".join(map(str, row)) for row in m)


def _int_det(m: List[List[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in m]
    k = len(m)
    sign, prev = 1, 1
    for c in range(k - 1):
        piv = next((i for i in range(c, k) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[k - 1][k - 1]


def poly_matrix(rng: random.Random, n: int, quadratic: bool
                ) -> Tuple[str, Tuple]:
    """P(e) = A + e B (+ e^2 C) with A singular and det P(2) != 0, so P is
    invertible as a polynomial matrix but degenerates at e = 0.  Returns
    the text the `asn` command reads and the coefficient matrices."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        a[-1] = [x + y for x, y in zip(a[0], a[1])]
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        c = ([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
             if quadratic else [[0] * n for _ in range(n)])
        at_two = [[a[i][j] + 2 * b[i][j] + 4 * c[i][j] for j in range(n)]
                  for i in range(n)]
        if _int_det(at_two) != 0:
            break
    text = "\n".join(", ".join(_poly_text((a[i][j], b[i][j], c[i][j]))
                                for j in range(n)) for i in range(n))
    return text, (a, b, c)


def _poly_text(coeffs: Sequence[int]) -> str:
    terms = []
    for deg, c in enumerate(coeffs):
        if c:
            var = ("", "*e", "*e^2")[deg]
            terms.append(("-" if c < 0 else "+") + f"{abs(c)}{var}")
    return "".join(terms).lstrip("+") or "0"


# -------------------------------------------------------------- streams

def _blocks(rng: random.Random, block: Sequence[str]) -> Iterator[str]:
    while True:
        kinds = list(block)
        rng.shuffle(kinds)
        yield from kinds


def rays_stream(seed: int) -> Iterator[Dict]:
    """Constraint systems from {E3, D3, E4, D4}: each with a seeded index
    relabelling sigma (half the time composed with complementation) and a
    seeded insertion order of its inequality rows."""
    rng = random.Random(f"rays:{seed}")
    kinds = _blocks(rng, RAYS_BLOCK)
    for job in count():
        kind = next(kinds)
        n = int(kind[1])
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield {"job": job, "kind": kind, "system": kind[0], "n": n,
               "perm": tuple(perm), "complement": rng.random() < 0.5,
               "order_seed": rng.getrandbits(32)}


def membership_stream(seed: int) -> Iterator[Dict]:
    """Ratio strings on n = 4: half constructed members of cone(K_4), half
    random homogeneous vectors (mostly non-members)."""
    rng = random.Random(f"membership:{seed}")
    kinds = _blocks(rng, MEMBERSHIP_BLOCK)
    n = MEMBERSHIP_N
    for job in count():
        kind = next(kinds)
        vec = (koteljanskii_member(rng, n) if kind == "member"
               else random_homogeneous(rng, n))
        yield {"job": job, "kind": kind, "n": n,
               "ratio": ratio_text(vec, n), "vector": tuple(vec)}


def probes_stream(seed: int) -> Iterator[Dict]:
    rng = random.Random(f"probes:{seed}")
    kinds = _blocks(rng, PROBES_BLOCK)
    n = PROBE_N
    named = 0
    fiedler = 0
    for job in count():
        kind = next(kinds)
        item = {"job": job, "kind": kind, "n": n}
        if kind in ("family", "poly_linear", "poly_quadratic",
                    "bound_random"):
            vec = sparse_homogeneous(rng, n)
            item["vector"] = tuple(vec)
            item["ratio"] = ratio_text(vec, n)
        if kind == "family":
            item["matrix"] = rank_deficient_text(rng, n)
        elif kind.startswith("poly"):
            item["poly_matrix"], item["coeffs"] = poly_matrix(
                rng, n, quadratic=kind == "poly_quadratic")
        elif kind == "fiedler":
            item["n"] = FIEDLER_SIZES[fiedler % len(FIEDLER_SIZES)]
            fiedler += 1
            item["sampler_seed"] = rng.getrandbits(32)
            item["samples"] = FIEDLER_SAMPLES
        else:
            if kind == "bound_named":
                item["name"] = NAMED_BOUNDED[named % len(NAMED_BOUNDED)]
                named += 1
            item["sampler_seed"] = rng.getrandbits(32)
            item["samples"] = BOUND_SAMPLES
        yield item


def reproduce_stream(seed: int) -> Iterator[Dict]:
    """`minorcones reproduce` has no inputs; every job is the same command."""
    for job in count():
        yield {"job": job, "kind": "reproduce"}


STREAMS = {
    "rays": rays_stream,
    "membership": membership_stream,
    "probes": probes_stream,
    "reproduce": reproduce_stream,
}
