"""Polyhedral cone engine for the semigroups H_n, E_n, D_n and cone(K_n).

Constraint systems live in the full subset-indexed space; the E_n rows
come from one nullity elimination per family and set size, relabelled for
the other sets (`nullity.family_types`), and the D_n rows from rank
functions with no elimination (`nullity.d_constraint_set`).  Enumeration
works in exact integer coordinates on the homogeneity subspace (dimension
2^n - n - 1) via the double description method, inserting the rows in
lexicographic order ("lexmin", as in cdd) with combinatorial adjacency on
tight-row bitmasks and a per-row index of tight rays kept across steps;
rays and lines are combined by `exact.combine`.  Each system keeps its
rows as one integer array (`ConstraintSystem.integer_rows`: int64, or
Python ints past the int64 bound), and E/D membership is one exact product
with it.  The certificate of all output rays works on integer arrays,
each from one exact product (`exact.exact_products`: an int64 numpy
matmul when max ||row||_1 * max |entry| < 2^63 proves that no partial sum
can overflow, else the same matmul on Python ints) with the cached basis
B = `ratios.homogeneity_matrix(n)` or with the rays: the inequality rows
times B^T are their coordinates on the quotient, the ray coordinates
times B, divided by each row's gcd, are the primitive rays, and the rows
times the rays are checked nonnegative, with zeros at each ray's tight
rows.  Those rows must have rank dim - 1 on the quotient.  Each ray's
Gram matrix G = T^T T + c c^T (T its tight rows, c its quotient
coordinates) is one exact product of the 0/1 tight selections with the
rows' outer products, modulo a prime p, and all of them are eliminated at
once with fixed diagonal pivots.  Nonzero pivots make G nonsingular, which
for any c leaves T a kernel of dimension at most 1; a ray with a pivot
that vanishes mod p is checked by exact Bareiss elimination
(`exact.bareiss_rank`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import (CertificateError, as_fractions, bareiss_rank, combine,
                    dot, exact_products, int64_products_fit, largest_norm)
from .nullity import (d_constraint_set, family_types, subset_matrix,
                      superset_matrix)
from .ratios import (FormalLog, homogeneity_basis, homogeneity_matrix,
                     homogeneity_vectors, is_homogeneous,
                     koteljanskii_generators, koteljanskii_matrix,
                     quotient_masks)
from .simplex import nonnegative_combination
from .subsets import (format_subset, group_gathers, ordered_entries,
                      subset_order)


class NonPointedConeError(ValueError):
    def __init__(self, lineality: Tuple[int, ...]):
        super().__init__("cone is not pointed; lineality direction found")
        self.lineality = lineality


@dataclass(frozen=True)
class ConstraintSystem:
    """Equalities (the homogeneity vectors) plus labeled inequality rows,
    each row meaning row . x >= 0 over the subset-indexed space."""
    ground_size: int
    equalities: Tuple[Tuple[int, ...], ...]
    inequalities: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...]

    @cached_property
    def integer_rows(self) -> Tuple[np.ndarray, int]:
        """The inequality rows as one read-only integer array, built on
        first use and kept, and their largest L1 norm.  The array is int64
        when that norm is below 2^63 (`exact.int64_products_fit`) and holds
        Python ints (dtype object) otherwise."""
        norm = largest_norm(self.inequalities)
        dtype = np.int64 if int64_products_fit(norm, 1) else object
        rows = np.array(self.inequalities, dtype=dtype).reshape(
            len(self.inequalities), 1 << self.ground_size)
        rows.flags.writeable = False
        return rows, norm


@dataclass(frozen=True)
class Ray:
    """Primitive integer vector spanning an extreme ray."""
    ground_size: int
    vector: Tuple[int, ...]

    def sort_key(self):
        return ordered_entries(self.vector, self.ground_size)


@dataclass(frozen=True)
class MembershipCertificate:
    verdict: bool
    inner_products: Tuple[Tuple[str, Fraction], ...]
    witness: Optional[Tuple[str, Fraction]]


@dataclass(frozen=True)
class KoteljanskiiCertificate:
    verdict: bool
    # Nonnegative coefficients on local (A∪i, A∪j) generators when a member.
    combination: Optional[Tuple[Tuple[Tuple[int, int], Fraction], ...]]
    # Separating hyperplane h with h.v < 0 and h.g >= 0 otherwise.
    hyperplane: Optional[Tuple[Fraction, ...]]


def build_E_system(n: int) -> ConstraintSystem:
    """ST1/ST2 as nullity-type rows: nul(M_S) for |S| >= 3 and nul(M^S)
    for |S| <= n-2, each family in `subset_order`.  `nullity.family_types`
    eliminates one matrix per family and size (2n - 3 in all) and relabels
    its type for the other sets of that size."""
    if not 2 <= n <= 10:
        raise ValueError("E system supported for 2 <= n <= 10")
    supersets = [s for s in subset_order(n) if s.bit_count() >= 3]
    subsets = [s for s in subset_order(n) if s.bit_count() <= n - 2]
    ineqs = (family_types(superset_matrix, supersets, n)
             + family_types(subset_matrix, subsets, n))
    labels = ([f"nul(M_{format_subset(s)})" for s in supersets]
              + [f"nul(M^{format_subset(s)})" for s in subsets])
    return ConstraintSystem(n, homogeneity_vectors(n), tuple(ineqs),
                            tuple(labels))


def build_D_system(n: int) -> ConstraintSystem:
    """Nullity-type constraint systems defining D_3, D_4 and D_5, with the
    rows and labels of `nullity.d_constraint_set(n)`."""
    labels, types = zip(*d_constraint_set(n))
    return ConstraintSystem(n, homogeneity_vectors(n),
                            tuple(nt.entries for nt in types), labels)


def membership(v: FormalLog, system: ConstraintSystem) -> MembershipCertificate:
    """Exact inner products against every inequality row; member iff all
    are nonnegative.  Requires a homogeneous input.  The products are taken
    in integers on d * v (d the lcm of v's denominators), as one
    `exact.exact_products` with `system.integer_rows`, and reported as
    Fractions over d."""
    if v.ground_size != system.ground_size:
        raise ValueError("ground size mismatch")
    if not is_homogeneous(v):
        raise ValueError("membership requires a homogeneous formal log")
    ints, d = v.cleared
    rows, norm = system.integer_rows
    values = exact_products(rows, [ints], norm)[:, 0].tolist()
    products = tuple(zip(system.labels, as_fractions(values, d)))
    witness = next((p for p, x in zip(products, values) if x < 0), None)
    return MembershipCertificate(witness is None, products, witness)


def _reduce_rows(rows, n: int, norm: Optional[int] = None) -> np.ndarray:
    """The coordinates B * row on the homogeneity quotient of every integer
    row (a sequence of rows or an integer array, with `norm` their largest
    L1 norm if known), as one (rows, dim) product with
    B = `homogeneity_matrix(n)`: `h_coordinates` of each."""
    return exact_products(rows, homogeneity_matrix(n), norm)


def _ambient(coords: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """The primitive subset-indexed vectors B^T * c of integer coordinate
    vectors c on the homogeneity quotient, one row each, from one product
    and a row-wise gcd; a zero vector stays zero."""
    vecs = exact_products(coords, homogeneity_matrix(n).T)
    return vecs // np.maximum(np.gcd.reduce(vecs, axis=1), 1)[:, None]


def _double_description(ineqs: List[Tuple[int, ...]], dim: int):
    """Double description over the integers with combinatorial adjacency on
    tight-row bitmasks.  Starts from the full space (a basis of lines) and
    inserts inequalities one at a time.  Two rays are adjacent iff their
    common tight rows number at least dim - #lines - 2 and no third ray is
    tight on all of them (Fukuda and Prodon, "Double description method
    revisited", 1996).

    Each ray keeps a slot that is never reused: its vector (dropped when
    the ray is removed), the bitmask of the processed rows it is tight on,
    and a bit in `alive`.  The third-ray test ANDs, from `alive`, a per-row
    bitmask of the slots tight on that row.  The index only grows: a step
    adds its row with the slots that are zero on it, and a new ray adds its
    slot to each of its tight rows, while removed slots leave `alive`.  The
    rays come out in slot order, each step's new rays after the old ones in
    (negative, positive) pair order.  No `combine` is zero, or it would
    raise CertificateError: the lines stay independent, and a negative and
    a positive ray cancel only if they are opposite, which the cone beside
    the lines never holds."""
    lines: List[Tuple[int, ...]] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    vecs: List[Optional[Tuple[int, ...]]] = []
    tight: List[int] = []
    index: List[int] = []
    live: List[int] = []
    alive = 0

    def add(vec: Tuple[int, ...], rows: int) -> None:
        nonlocal alive
        slot = len(vecs)
        vecs.append(vec)
        tight.append(rows)
        live.append(slot)
        alive |= 1 << slot
        while rows:
            low = rows & -rows
            index[low.bit_length() - 1] |= 1 << slot
            rows ^= low

    for k, a in enumerate(ineqs):
        bit = 1 << k
        products = [dot(a, l) for l in lines]
        pivot_idx = next((i for i, val in enumerate(products) if val), None)
        if pivot_idx is not None:
            # Lines are tight on every processed row, so projecting along
            # the pivot keeps each old ray's tight set and adds row k.
            pivot = lines.pop(pivot_idx)
            ap = products.pop(pivot_idx)
            if ap < 0:
                pivot, ap = tuple(-x for x in pivot), -ap
            lines = [combine(ap, l, val, pivot) if val else l
                     for l, val in zip(lines, products)]
            for slot in live:
                val = dot(a, vecs[slot])
                if val:
                    vecs[slot] = combine(ap, vecs[slot], val, pivot)
                tight[slot] |= bit
            index.append(alive)
            add(pivot, bit - 1)
            continue

        zero = 0
        positive = []
        negative = []
        for slot in live:
            val = dot(a, vecs[slot])
            if not val:
                zero |= 1 << slot
                tight[slot] |= bit
            elif val > 0:
                positive.append((slot, val))
            else:
                negative.append((slot, val))
        index.append(zero)
        if not negative:
            continue
        target = dim - len(lines) - 2
        born = []
        for im, vm in negative:
            tm = tight[im]
            for ip, vp in positive:
                common = tight[ip] & tm
                if common.bit_count() < target:
                    continue
                pair = (1 << ip) | (1 << im)
                others = alive
                rest = common
                while rest and others != pair:
                    low = rest & -rest
                    others &= index[low.bit_length() - 1]
                    rest ^= low
                if others != pair:
                    continue
                born.append((combine(vp, vecs[im], vm, vecs[ip]),
                             common | bit))
        for slot, _ in negative:
            vecs[slot] = None
            tight[slot] = 0
            alive ^= 1 << slot
        live = [slot for slot in live if vecs[slot] is not None]
        for vec, rows in born:
            add(vec, rows)
    return lines, [vecs[slot] for slot in live]


# A prime below 2^31.  Entries are kept in (-p, p) (np.fmod, the remainder
# with the sign of the dividend, is cheaper than np.remainder on mixed
# signs), so each product of two is at most (p - 1)^2 and the difference of
# two products stays below 2^63 in absolute value.
_CERTIFICATE_PRIME = 2_147_483_647


def _outer_residues(vecs: np.ndarray, cols: int) -> np.ndarray:
    """The flattened outer products v v^T mod _CERTIFICATE_PRIME of integer
    vectors of `cols` entries (an int64 or object array), one row of cols^2
    entries in [0, p) each.  The vectors are reduced with `%` before the
    int64 cast (np.fmod fails on Python ints), so each product of two
    residues stays below 2^62."""
    p = _CERTIFICATE_PRIME
    res = (vecs % p).astype(np.int64).reshape(-1, cols)
    outer = res[:, :, None] * res[:, None, :]
    outer %= p
    return outer.reshape(-1, cols * cols)


def _gram_certified(rows, tight, coords) -> np.ndarray:
    """For each ray, whether its Gram matrix G = T^T T + c c^T is shown
    nonsingular modulo _CERTIFICATE_PRIME, which proves that its selected
    rows T have rank at least cols - 1 (see `extreme_rays`).  `rows` holds
    the integer rows (cols entries each), `tight` one boolean row selection
    per ray and `coords` one integer vector c per ray, each an array.

    Every G mod p comes from one `exact_products` of the 0/1 selections
    with the rows' flattened outer products mod p (so the largest
    selection is the L1 norm), plus c c^T mod p.  The (cols, cols, rays)
    stack is eliminated with the rays innermost: each step takes every
    matrix's leading entry as its pivot, clears the first column by
    cross-multiplication and reduces mod p, so the pivots are, up to
    nonzero factors, the leading principal minors of G.  A ray is
    certified when every pivot is nonzero mod p."""
    p = _CERTIFICATE_PRIME
    cols = rows.shape[1]
    outer = _outer_residues(rows, cols)
    selection = np.asarray(tight, dtype=np.int64).reshape(-1, len(outer))
    gram = exact_products(selection, outer.T,
                          int(selection.sum(axis=1).max(initial=0)))
    gram += _outer_residues(coords, cols)
    gram %= p
    m = np.ascontiguousarray(gram.T).reshape(cols, cols, -1)
    del gram    # free the rays-outermost layout before the elimination
    certified = np.ones(m.shape[2], dtype=bool)
    for _ in range(cols):
        lead = m[0, 0]
        certified &= lead != 0
        step = lead * m[1:, 1:]
        step -= m[1:, :1] * m[:1, 1:]
        m = np.fmod(step, p, out=step)
    return certified


def extreme_rays(system: ConstraintSystem) -> List[Ray]:
    """Complete list of primitive extreme rays of the feasible cone, in
    canonical (subset-size, subset-value) lexicographic order.

    The double description inserts the rows in lexicographic order; the
    output does not depend on the order, but the intermediate ray lists
    (and the time) do.  The rays are certified from scratch on integer
    arrays, with B = `homogeneity_matrix(n)`.  One `exact_products` of the
    inequality rows (`system.integer_rows`, with the norm it holds) with B
    gives their quotient coordinates, one of the double description's
    coordinates with B^T, divided row-wise by the gcd, gives the
    primitive subset-indexed vectors.  Each is nonzero.
    One exact product of the inequality rows with all of them is
    nonnegative, and that of the equality rows is zero.  The zeros of the
    first product are each ray's tight rows, and their quotient
    coordinates T have rank dim - 1, which makes the face the checked
    vector lies on a ray.  The vector's quotient coordinates c are its
    entries at the sets of two or more members (b_S is the one basis
    vector with an entry at such an S); c is nonzero and in the kernel of
    T, so the rank is at most dim - 1.  It is at least dim - 1 if
    G = T^T T + c c^T is nonsingular: were the kernel of T of dimension 2
    or more, some x != 0 in it would be orthogonal to c, and G x = 0,
    whatever c is.  `_gram_certified` shows G nonsingular for all rays at
    once by nonzero fixed pivots modulo a prime p.  When the rank is
    dim - 1, G is positive definite, so a pivot vanishes mod p only by
    chance (about dim / p), and such a ray's tight rows are ranked exactly
    by Bareiss elimination.  A failure raises CertificateError.  A pointed
    cone equal to {0} has no extreme rays."""
    n = system.ground_size
    dim = len(homogeneity_basis(n))
    rows, norm = system.integer_rows
    reduced = _reduce_rows(rows, n, norm)
    ineqs = reduced.tolist()
    lines, rays = _double_description(sorted(ineqs), dim)
    if lines:
        raise NonPointedConeError(tuple(_ambient(lines[:1], n)[0].tolist()))
    if not rays:
        return []
    vecs = _ambient(rays, n)
    if not vecs.any(axis=1).all():
        raise CertificateError("extreme ray is the zero vector")
    values = exact_products(rows, vecs, norm)
    if (values < 0).any():
        raise CertificateError("extreme ray violates an inequality row")
    if (exact_products(system.equalities, vecs) != 0).any():
        raise CertificateError("extreme ray violates an equality")
    tight = (values == 0).T
    coords = vecs[:, quotient_masks(n)]
    for flags in tight[~_gram_certified(reduced, tight, coords)]:
        selected = [row for row, flag in zip(ineqs, flags) if flag]
        if bareiss_rank(selected) != dim - 1:
            raise CertificateError(
                "extreme ray's tight rows do not have rank dim - 1")
    return sorted((Ray(n, vec) for vec in map(tuple, vecs.tolist())),
                  key=Ray.sort_key)


def koteljanskii_cone_membership(v: FormalLog) -> KoteljanskiiCertificate:
    """Decide v in cone(K_n) by exact rational feasibility over the local
    generators, the cached matrix `koteljanskii_matrix(n)`, with v's
    cleared form as the target: either explicit nonnegative generator
    coefficients, or a separating hyperplane."""
    # n(n-1)/2 * 2^(n-2) generators of 2^n entries each: 1,966,080 columns
    # of 65,536 at n = 16.  On probe.random_homogeneous_log(n,
    # default_rng(7)) the LP takes about 1.0 s at n = 7 and 32-43 s at
    # n = 8 on one core of a 2-vCPU Xeon.
    if v.ground_size > 8:
        raise ValueError("Koteljanskii cone membership supported for n <= 8")
    if not is_homogeneous(v):
        raise ValueError("Koteljanskii cone membership requires homogeneity")
    gens = koteljanskii_generators(v.ground_size)
    x, y = nonnegative_combination(koteljanskii_matrix(v.ground_size),
                                   v.cleared)
    if x is not None:
        ints, d = x
        support = [j for j, coeff in enumerate(ints) if coeff]
        coeffs = as_fractions([ints[j] for j in support], d)
        combo = tuple((gens[j][0], c) for j, c in zip(support, coeffs))
        return KoteljanskiiCertificate(True, combo, None)
    # nonnegative_combination has checked the Farkas inequalities of y,
    # which for h = -y are h.v < 0 and h.col >= 0 for every column.
    ints, d = y
    return KoteljanskiiCertificate(
        False, None, tuple(as_fractions([-val for val in ints], d)))


@dataclass(frozen=True)
class Orbit:
    """Orbit of rays under all permutations and complementation."""
    representative: Tuple[int, ...]   # lexicographically minimal member
    members: Tuple[Tuple[int, ...], ...]


def orbit_decompose(rays: Sequence[Ray]) -> List[Orbit]:
    """Partition rays into orbits under the group generated by index
    permutations and set complementation.  The canonical sort key of each
    vector is computed once."""
    if not rays:
        return []
    n = rays[0].ground_size
    keys = {}

    def key(vec: Tuple[int, ...]):
        found = keys.get(vec)
        if found is None:
            found = keys[vec] = ordered_entries(vec, n)
        return found

    remaining = {r.vector for r in rays}
    orbits = []
    for vec in sorted(remaining, key=key):
        if vec not in remaining:
            continue
        images = {gather(vec) for _, _, gather in group_gathers(n)}
        members = sorted(images & remaining, key=key)
        orbits.append(Orbit(min(images, key=key), tuple(members)))
        remaining -= images
    return orbits
