"""Ratios of products of principal minors and their formal logarithms.

A ratio is stored either as a parsed product/quotient of index sets with
positive rational exponents (RatioSpec), or as its formal logarithm
(FormalLog): one rational net exponent per subset, with the empty-set entry
fixed so that all entries sum to zero.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import as_fractions, clear_denominators, dot, primitive
from .subsets import (check_permutation, format_subset, image_gather,
                      mask_of, members_of, subset_order)

# Largest ground size a parsed ratio, a sampled matrix, or a matrix given to
# `nullity_type` or `asn` may have: a formal log holds 2^n entries, a
# nullity type or asn takes one rank or determinant per subset, and the
# largest supported constraint system has n = 10.
MAX_GROUND_SIZE = 16

# The exponent of a term written without `^`, shared since Fractions are
# immutable.
_ONE = Fraction(1)


class RatioSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotPositiveDefiniteError(ValueError):
    def __init__(self, subset: Tuple[int, ...]):
        super().__init__(
            f"matrix is not numerically positive definite on the principal "
            f"submatrix indexed by {set(subset) or '{}'}")
        self.subset = subset


@dataclass(frozen=True)
class RatioSpec:
    """A ratio alpha/beta as lists of (subset mask, positive exponent)."""
    ground_size: int
    numerator: Tuple[Tuple[int, Fraction], ...]
    denominator: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self):
        full = (1 << self.ground_size) - 1
        for mask, exp in self.numerator + self.denominator:
            # The sign of a Fraction or an int is that of its numerator,
            # read without a Fraction comparison.
            if exp.numerator <= 0:
                raise ValueError(f"exponent {exp} must be positive")
            if mask & ~full:
                raise ValueError(
                    f"subset {format_subset(mask)} outside 1..{self.ground_size}")


@dataclass(frozen=True)
class FormalLog:
    """Subset-indexed rational exponent vector summing to zero.

    `cleared` is the integer form (d * exponents, d) of
    `clear_denominators`, kept from the sum-zero check; it takes no part in
    equality or repr."""
    ground_size: int
    exponents: Tuple[Fraction, ...]
    cleared: Tuple[Tuple[int, ...], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self._keep_cleared(*clear_denominators(self.exponents))

    def _keep_cleared(self, ints: Sequence[int], d: int) -> None:
        if len(self.exponents) != 1 << self.ground_size:
            raise ValueError("exponent vector has wrong length")
        if sum(ints) != 0:
            raise ValueError("formal logarithm must sum to zero")
        object.__setattr__(self, "cleared", (tuple(ints), d))

    @classmethod
    def _from_cleared(cls, n: int, ints: Sequence[int], d: int) -> "FormalLog":
        """The FormalLog with exponents ints / d (d > 0, 2^n ints), handed
        its integer form instead of clearing the Fractions again.  Dividing
        by g = gcd(d, *ints) gives exactly what `clear_denominators` gives
        on those exponents: d / g is the lcm of their denominators."""
        g = gcd(d, *ints)
        if g > 1:
            ints, d = [x // g for x in ints], d // g
        v = cls.__new__(cls)
        object.__setattr__(v, "ground_size", n)
        object.__setattr__(v, "exponents", tuple(as_fractions(ints, d)))
        v._keep_cleared(ints, d)
        return v

    def __getitem__(self, mask: int) -> Fraction:
        return self.exponents[mask]

    # The derived forms are built on first use and kept; like `cleared`,
    # they take no part in equality or repr.
    @cached_property
    def _homogeneous(self) -> bool:
        """Whether the integer form is orthogonal to every homogeneity
        vector: `is_homogeneous`, which each membership test asks."""
        ints, _ = self.cleared
        return all(dot(ints, h) == 0
                   for h in homogeneity_vectors(self.ground_size))

    @cached_property
    def _support(self) -> Tuple[int, ...]:
        return tuple(mask for mask in subset_order(self.ground_size)
                     if mask and self.exponents[mask])

    @cached_property
    def _weights(self) -> Tuple[float, ...]:
        """The support's exponents as floats, which may overflow where the
        exact forms do not."""
        return tuple(float(self.exponents[mask]) for mask in self._support)

    def support(self) -> List[int]:
        """Nonempty subsets with a nonzero exponent, in subset_order: the
        minors a numeric evaluation needs, in the order it adds them."""
        return list(self._support)


def _normalize_empty(n: int, acc: Dict[int, int], d: int) -> FormalLog:
    """The FormalLog with entry acc[S] / d on each nonempty S and the
    empty-set entry that makes the entries sum to zero, built from these
    integers over d."""
    vec = [0] * (1 << n)
    for mask, x in acc.items():
        if mask != 0:
            vec[mask] = x
    vec[0] = -sum(vec)
    return FormalLog._from_cleared(n, vec, d)


# The scanner's patterns.  One term: optional whitespace, `{`, members
# separated by commas, `}`, then an optional exponent `^p` or `^p/q`; the
# `/q` part is taken when the slash is followed (after any whitespace) by
# digits.  An empty p is matched so that `^` without digits is reported
# where the digits should be.  `\s` and `\d` are str.isspace and
# str.isdecimal, the characters int() reads.
_TERM = re.compile(r"\s*\{\s*((?:\d+\s*,\s*)*\d+)?\s*\}"
                   r"\s*(?:\^\s*(\d*)\s*(?:/\s*(\d+))?)?")
_SPACE = re.compile(r"\s*")
# The well-formed members of a malformed `{...}` that end in a comma, then
# one more integer and the whitespace after it.
_MEMBERS_SO_FAR = re.compile(r"\{\s*(?:\d+\s*,\s*)*")
_INTEGER = re.compile(r"\d+\s*")


def _term_error(text: str, pos: int) -> RatioSyntaxError:
    """The error of the malformed `{...}` term that opens at pos: an
    integer is missing where the first fault is, or after an integer there
    is neither `,` nor `}`."""
    at = _MEMBERS_SO_FAR.match(text, pos).end()
    after = _INTEGER.match(text, at)
    if after is None:
        return RatioSyntaxError("expected an integer", at)
    return RatioSyntaxError("expected ',' or '}'", after.end())


@lru_cache(maxsize=1024)
def _subset(body: Optional[str]) -> Tuple[Optional[int], int]:
    """(mask, largest index) of a term's members, listed in `body` as
    _TERM matched it (None for `{}`).  The mask is None past
    MAX_GROUND_SIZE: parse_ratio rejects such an index before it needs the
    mask, so a huge index costs no memory."""
    members = [int(x) for x in body.split(",")] if body else []
    if 0 in members:
        raise ValueError("index 0 out of range (1-based)")
    top = max(members, default=0)
    return (mask_of(members) if top <= MAX_GROUND_SIZE else None), top


@lru_cache(maxsize=1024)
def _exponent(p: str, q: Optional[str]) -> Fraction:
    """The exponent `^p` or `^p/q` of a term, one shared Fraction per
    distinct text."""
    return Fraction(int(p), int(q or 1))


def _parse_product(text: str, pos: int):
    """The terms of the product at pos, as (mask, largest index,
    exponent), and the position after its last term and any whitespace."""
    terms = []
    while True:
        match = _TERM.match(text, pos)
        if match is None:
            pos = _SPACE.match(text, pos).end()
            if text.startswith("{", pos):
                raise _term_error(text, pos)
            if not terms:
                raise RatioSyntaxError("expected '{'", pos)
            return terms, pos
        body, p, q = match.groups()
        exponent = _ONE
        if p is not None:
            if not p:
                raise RatioSyntaxError("expected an integer", match.start(2))
            if q is not None and not int(q):
                raise RatioSyntaxError("exponent denominator must be positive",
                                       match.start(3))
            exponent = _exponent(p, q)
            if exponent <= 0:
                raise RatioSyntaxError("exponent must be positive",
                                       match.start(2))
        terms.append((*_subset(body), exponent))
        pos = match.end()


def parse_ratio(text: str, n: Optional[int] = None) -> RatioSpec:
    """Parse `PRODUCT / PRODUCT` where a product is a sequence of `{i,j,...}`
    terms, each optionally raised to `^p` or `^p/q`.

    Whitespace is ignored.  An exponent's `/q` part is taken greedily when
    the slash is immediately followed by digits; the remaining slash is the
    numerator/denominator separator.  A RatioSyntaxError names the first
    fault and its position.  Indices are checked against the ground size
    before any subset mask is built, so a huge index costs no memory.
    """
    numerator, pos = _parse_product(text, 0)
    if not text.startswith("/", pos):
        raise RatioSyntaxError(
            "expected '/' between numerator and denominator", pos)
    denominator, pos = _parse_product(text, pos + 1)
    if pos != len(text):
        raise RatioSyntaxError("unexpected trailing input", pos)

    max_index = max(top for _, top, _ in numerator + denominator)
    if n is None:
        n = max(max_index, 1)
    elif max_index > n:
        raise ValueError(f"index {max_index} exceeds ground size {n}")
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"ground size {n} exceeds the supported maximum "
                         f"{MAX_GROUND_SIZE}")
    return RatioSpec(n, tuple((mask, exp) for mask, _, exp in numerator),
                     tuple((mask, exp) for mask, _, exp in denominator))


def formal_log(spec: RatioSpec) -> FormalLog:
    """Net exponent per subset, with the empty-set entry normalized to make
    the total sum zero (explicit {} factors are folded in first).  The
    exponents are summed in integers over their common denominator."""
    terms = spec.numerator + spec.denominator
    ints, d = clear_denominators([exp for _, exp in terms])
    acc: Dict[int, int] = {}
    for k, ((mask, _), x) in enumerate(zip(terms, ints)):
        acc[mask] = acc.get(mask, 0) + (x if k < len(spec.numerator) else -x)
    return _normalize_empty(spec.ground_size, acc, d)


def log_of(text: str, n: Optional[int] = None) -> FormalLog:
    return formal_log(parse_ratio(text, n))


@lru_cache(maxsize=None)
def homogeneity_vectors(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The all-ones vector and the n index-indicator vectors, mask-indexed."""
    size = 1 << n
    vecs = [tuple([1] * size)]
    for i in range(n):
        vecs.append(tuple(1 if m >> i & 1 else 0 for m in range(size)))
    return tuple(vecs)


@lru_cache(maxsize=None)
def quotient_masks(n: int) -> Tuple[int, ...]:
    """The subsets with at least two members, in increasing mask order: one
    homogeneity-basis vector b_S each."""
    return tuple(s for s in range(1 << n) if s.bit_count() >= 2)


def _add_basis_vector(out: List, s: int, c) -> None:
    """out += c * b_S, where b_S = e_S - sum_{i in S} e_{i} + (|S|-1) e_{}."""
    out[s] += c
    out[0] += (s.bit_count() - 1) * c
    while s:
        low = s & -s
        out[low] -= c
        s ^= low


@lru_cache(maxsize=None)
def homogeneity_basis(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Primitive integer basis of the homogeneity subspace log(H_n), the
    orthogonal complement of the homogeneity vectors: b_S for |S| >= 2 in
    increasing mask order.  It is the kernel basis elimination gives, with
    {} and the singletons as pivots and b_S the vector that is 1 on the
    free coordinate S and 0 on the other free ones."""
    out = []
    for s in quotient_masks(n):
        vec = [0] * (1 << n)
        _add_basis_vector(vec, s, 1)
        out.append(tuple(vec))
    return tuple(out)


@lru_cache(maxsize=None)
def homogeneity_matrix(n: int) -> np.ndarray:
    """The vectors of `homogeneity_basis(n)` as one read-only int64 array
    of shape (2^n - n - 1, 2^n), row k the k-th basis vector, built on
    first use and shared: `exact.exact_products(rows, B)` is
    `h_coordinates` of every row, and `exact_products(coords, B.T)` is
    `h_lift` of every coordinate vector."""
    basis = np.array(homogeneity_basis(n), dtype=np.int64).reshape(-1, 1 << n)
    basis.flags.writeable = False
    return basis


def h_coordinates(row: Sequence, n: int) -> Tuple:
    """B * row for B = homogeneity_basis(n): the constraint the row imposes
    on log(H_n), row[S] - sum_{i in S} row[{i}] + (|S|-1) row[{}] for each
    |S| >= 2.  Two rows have equal coordinates iff they differ by a vector
    in the span of the homogeneity vectors."""
    if len(row) != 1 << n:
        raise ValueError(f"subset-indexed row has {len(row)} entries, "
                         f"expected 2^{n} = {1 << n}")
    singles = [0] * (1 << n)   # singles[S] = sum_{i in S} row[{i}]
    for s in range(1, 1 << n):
        low = s & -s
        singles[s] = singles[s ^ low] + row[low]
    empty = row[0]
    return tuple(row[s] - singles[s] + (s.bit_count() - 1) * empty
                 for s in quotient_masks(n))


def h_lift(coords: Sequence, n: int) -> List:
    """B^T * coords = sum_S coords_S * b_S for B = homogeneity_basis(n):
    the vector of log(H_n) with these coefficients on the basis."""
    masks = quotient_masks(n)
    if len(coords) != len(masks):
        raise ValueError(f"{len(coords)} coordinates, expected {len(masks)}")
    out = [0] * (1 << n)
    for s, c in zip(masks, coords):
        if c:
            _add_basis_vector(out, s, c)
    return out


def is_homogeneous(v: FormalLog) -> bool:
    return v._homogeneous


def apply_permutation(v: FormalLog, perm: Sequence[int]) -> FormalLog:
    check_permutation(perm, v.ground_size)
    return FormalLog(v.ground_size,
                     image_gather(perm, False, v.ground_size)(v.exponents))


def apply_complement(v: FormalLog) -> FormalLog:
    n = v.ground_size
    return FormalLog(n, image_gather(range(1, n + 1), True, n)(v.exponents))


def koteljanskii_log(s: int, t: int, n: int) -> FormalLog:
    """log of the Hadamard-Fischer pattern (S∪T)(S∩T) / (S)(T), zero when
    one set holds the other: the four terms then cancel."""
    if s & ~((1 << n) - 1) or t & ~((1 << n) - 1):
        raise ValueError("subset outside ground set")
    acc: Dict[int, int] = {}
    for mask, sign in ((s | t, 1), (s & t, 1), (s, -1), (t, -1)):
        acc[mask] = acc.get(mask, 0) + sign
    return _normalize_empty(n, acc, 1)


@lru_cache(maxsize=None)
def koteljanskii_generators(n: int) -> Tuple[Tuple[Tuple[int, int], Tuple[int, ...]], ...]:
    """The local Koteljanskii logs (A∪{i,j})(A) / (A∪{i})(A∪{j}) for i < j
    outside A, labeled (A∪{i}, A∪{j}): n(n-1)/2 * 2^(n-2) vectors with
    entries in {-1, 0, 1}.  They generate cone(K_n): for S = C∪{x_1..x_p},
    T = C∪{y_1..y_q}, C = S∩T, the log of (S∪T)(C)/(S)(T) is the sum of
    the local logs with A = C∪{x_1..x_(a-1)}∪{y_1..y_(b-1)}, i = x_a,
    j = y_b."""
    out = []
    for a in range(1 << n):
        free = [1 << k for k in range(n) if not a >> k & 1]
        for bi, bj in combinations(free, 2):
            vec = [0] * (1 << n)
            vec[a] = vec[a | bi | bj] = 1
            vec[a | bi] = vec[a | bj] = -1
            out.append(((a | bi, a | bj), tuple(vec)))
    return tuple(out)


@lru_cache(maxsize=None)
def koteljanskii_matrix(n: int) -> np.ndarray:
    """The vectors of `koteljanskii_generators(n)` as one read-only int64
    array of shape (generators, 2^n), row j the j-th generator: the
    integer columns of every cone(K_n) LP, built on first use and shared."""
    gens = np.array([vec for _, vec in koteljanskii_generators(n)],
                    dtype=np.int64).reshape(-1, 1 << n)
    gens.flags.writeable = False
    return gens


@lru_cache(maxsize=None)
def _koteljanskii_rays(n: int) -> frozenset:
    return frozenset(vec for _, vec in koteljanskii_generators(n))


def is_koteljanskii_ray(v: FormalLog) -> bool:
    """True iff v is a positive multiple of a local Koteljanskii log."""
    return primitive(v.exponents) in _koteljanskii_rays(v.ground_size)


def delete_index(v: FormalLog, i: int) -> FormalLog:
    """Uniformly delete index i from every subset; indices above i shift down."""
    n = v.ground_size
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    bit = 1 << (i - 1)
    low = bit - 1
    out = [Fraction(0)] * (1 << (n - 1))
    for mask, x in enumerate(v.exponents):
        if x == 0:
            continue
        stripped = mask & ~bit
        new_mask = (stripped & low) | ((stripped >> 1) & ~low)
        out[new_mask] += x
    return FormalLog(n - 1, tuple(out))


# Each chunk of batch_log_minors is copied once as one (n, n, count) array,
# and each subset size gathers its submatrices from it as one
# (masks, k, k, count) array.  A chunk holds so many matrices that neither
# holds more doubles than LOG_MINOR_CHUNK n x n matrices: enough to amortise
# numpy's per-call overhead, few enough that a 1e5-matrix stack is never
# expanded in memory all at once.
LOG_MINOR_CHUNK = 4096


def batch_log_minors(batch: np.ndarray,
                     masks: Sequence[int]) -> Dict[int, np.ndarray]:
    """log det A[S] for each requested subset mask S (the empty one gives 0),
    over a stack of matrices of shape (count, n, n).

    The masks are grouped by size, and the submatrices A[S] of one size k
    are eliminated together as one (masks, k, k, count) stack: k - 1
    Schur-complement steps S' = S[1:,1:] - S[1:,:1] * (S[:1,1:] / p) on the
    pivot p = S[0,0], with log det A[S] the sum of the log-pivots in pivot
    order.  Every operation is elementwise along the count, so each value
    is bitwise independent of the other masks requested and of how the
    stack is chunked.  For a symmetric A[S], all pivots are positive iff
    A[S] is positive definite; a pivot that is not positive and finite
    makes the log-minor non-finite, and NotPositiveDefiniteError names the
    first such subset in the given order, over the whole stack.
    """
    order, values = _log_minors(batch, masks)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        first = order[int(np.argmin(finite))]
        raise NotPositiveDefiniteError(members_of(first))
    return dict(zip(order, values))


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


# A plan at n = 4 holds about 1.8 KiB.  The calls that repeat one plan (an
# ascent's steps, a sample stream's chunks, a check's few supports) need a
# few entries; most other callers ask for a support once.
@lru_cache(maxsize=64)
def _mask_plan(n: int, masks: Tuple[int, ...]):
    """How _log_minors eliminates `masks` on n x n matrices, built once per
    (n, masks): the distinct masks in the given order, per subset size the
    value rows and the (masks, k) member index, both read-only, and the
    chunk length.  A mask outside 0..2^n - 1 raises ValueError, which is
    not cached."""
    order = tuple(dict.fromkeys(masks))
    groups: Dict[int, Tuple[List[int], List[List[int]]]] = {}
    for row, mask in enumerate(order):
        if not 0 <= mask < 1 << n:
            raise ValueError(f"subset mask {mask} outside 1..{n}")
        members = [i for i in range(n) if mask >> i & 1]
        if members:
            rows, index = groups.setdefault(len(members), ([], []))
            rows.append(row)
            index.append(members)
    # Per matrix, the chunk's copy holds n^2 doubles and the stack of size k
    # holds masks * k^2.
    chunk = max(1, LOG_MINOR_CHUNK * n * n // max(
        [1, n * n] + [len(rows) * k * k for k, (rows, _) in groups.items()]))
    gathers = tuple((_read_only(rows), _read_only(index))
                    for rows, index in groups.values())
    return order, gathers, chunk


def _log_minors(batch: np.ndarray, masks: Sequence[int]):
    """The elimination of batch_log_minors without its check: the distinct
    masks in the given order and the values, one row per mask and one
    column per matrix.  A value is finite iff the matrix is numerically
    positive definite on that subset."""
    count, n = batch.shape[0], batch.shape[-1]
    order, gathers, chunk = _mask_plan(n, tuple(masks))
    values = np.zeros((len(order), count))
    with np.errstate(all="ignore"):
        for start in range(0, count, chunk):
            # The count last, so that every operation runs along it.
            part = np.ascontiguousarray(
                batch[start:start + chunk].transpose(1, 2, 0))
            for rows, index in gathers:
                s = part[index[:, :, None], index[:, None, :]]
                logs = np.log(s[:, 0, 0])
                while s.shape[1] > 1:
                    t = s[:, 1:, :1] * (s[:, :1, 1:] / s[:, :1, :1])
                    s = np.subtract(s[:, 1:, 1:], t, out=t)
                    logs += np.log(s[:, 0, 0])
                values[rows, start:start + part.shape[-1]] = logs
    return order, values


def log_ratio_from_minors(v: FormalLog, minors: Dict[int, np.ndarray],
                          count: int) -> np.ndarray:
    """The `count` log-ratios: the sum over v.support() of v_S * minors[S],
    each minors[S] an array of `count` values, added into zeros in support
    order so that each matrix of a stack gets the value it gets on its own.
    The zero log gives zeros."""
    total = np.zeros(count)
    for mask, weight in zip(v._support, v._weights):
        total += weight * minors[mask]
    return total


def evaluate_log_ratio(v: FormalLog, a: np.ndarray):
    """Sum over subsets of v_S * logdet A[S], i.e. log(alpha(A)/beta(A)),
    for one matrix (a float) or a stack of shape (count, n, n) (an array).
    Only the subsets in v.support() are factored."""
    a = np.asarray(a, dtype=float)
    n = v.ground_size
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise ValueError(f"matrix must be {n}x{n}")
    stack = a.reshape(-1, n, n)
    minors = batch_log_minors(stack, v._support)
    total = log_ratio_from_minors(v, minors, len(stack))
    return float(total[0]) if a.ndim == 2 else total


def log_ratio_values(v: FormalLog, stack: np.ndarray):
    """evaluate_log_ratio on a (count, n, n) stack without the positive
    definiteness check: the log-ratios, and per matrix whether every
    minor in v.support() is finite.  Where it is not, the value means
    nothing (a minor of -inf with a negative weight gives +inf)."""
    order, values = _log_minors(stack, v._support)
    with np.errstate(invalid="ignore"):
        total = log_ratio_from_minors(v, dict(zip(order, values)), len(stack))
    return total, np.isfinite(values).all(axis=0)
