"""Ratios of products of principal minors and their formal logarithms.

A ratio is stored either as a parsed product/quotient of index sets with
positive rational exponents (RatioSpec), or as its formal logarithm
(FormalLog): one rational net exponent per subset, with the empty-set entry
fixed so that all entries sum to zero.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import (as_fractions, clear_denominators, dot, kernel_basis,
                    primitive)
from .subsets import (check_permutation, format_subset, image_gather,
                      mask_of, members_of, subset_order)

# Largest ground size a parsed ratio may have: a formal log holds 2^n
# entries, and the largest supported constraint system has n = 10.
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
            if exp <= 0:
                raise ValueError(f"exponent {exp} must be positive")
            if mask & ~full:
                raise ValueError(
                    f"subset {format_subset(mask)} outside 1..{self.ground_size}")


@dataclass(frozen=True)
class FormalLog:
    """Subset-indexed rational exponent vector summing to zero."""
    ground_size: int
    exponents: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.exponents) != 1 << self.ground_size:
            raise ValueError("exponent vector has wrong length")
        if sum(clear_denominators(self.exponents)[0]) != 0:
            raise ValueError("formal logarithm must sum to zero")

    def __getitem__(self, mask: int) -> Fraction:
        return self.exponents[mask]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.exponents)

    def support(self) -> List[int]:
        """Nonempty subsets with a nonzero exponent, in subset_order: the
        minors a numeric evaluation needs, in the order it adds them."""
        return [mask for mask in subset_order(self.ground_size)
                if mask and self.exponents[mask]]


def _normalize_empty(n: int, acc: Dict[int, int], d: int) -> FormalLog:
    """The FormalLog with entry acc[S] / d on each nonempty S and the
    empty-set entry that makes the entries sum to zero."""
    vec = [0] * (1 << n)
    for mask, x in acc.items():
        if mask != 0:
            vec[mask] = x
    vec[0] = -sum(vec)
    return FormalLog(n, tuple(as_fractions(vec, d)))


def from_entries(n: int, entries: Dict[int, Fraction]) -> FormalLog:
    """Build a FormalLog from nonempty-set entries; the empty-set entry is
    recomputed from the sum-zero convention."""
    ints, d = clear_denominators(list(entries.values()))
    return _normalize_empty(n, dict(zip(entries, ints)), d)


def parse_ratio(text: str, n: Optional[int] = None) -> RatioSpec:
    """Parse `PRODUCT / PRODUCT` where a product is a sequence of `{i,j,...}`
    terms, each optionally raised to `^p` or `^p/q`.

    Whitespace is ignored.  An exponent's `/q` part is taken greedily when
    the slash is immediately followed by digits; the remaining slash is the
    numerator/denominator separator.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise RatioSyntaxError("expected an integer", start)
        return int(text[start:pos])

    def peek_digit_after_slash() -> bool:
        p = pos + 1
        while p < len(text) and text[p].isspace():
            p += 1
        return p < len(text) and text[p].isdigit()

    def parse_product() -> Tuple[Tuple[int, Fraction], ...]:
        nonlocal pos
        terms = []
        while True:
            skip_ws()
            if pos >= len(text) or text[pos] != "{":
                break
            pos += 1
            members = []
            skip_ws()
            if pos < len(text) and text[pos] == "}":
                pos += 1
            else:
                while True:
                    skip_ws()
                    members.append(parse_int())
                    skip_ws()
                    if pos < len(text) and text[pos] == ",":
                        pos += 1
                        continue
                    if pos < len(text) and text[pos] == "}":
                        pos += 1
                        break
                    raise RatioSyntaxError("expected ',' or '}'", pos)
            exponent = _ONE
            skip_ws()
            if pos < len(text) and text[pos] == "^":
                pos += 1
                skip_ws()
                at = pos
                p = parse_int()
                q = 1
                skip_ws()
                if pos < len(text) and text[pos] == "/" and peek_digit_after_slash():
                    pos += 1
                    skip_ws()
                    q = parse_int()
                exponent = Fraction(p, q)
                if exponent <= 0:
                    raise RatioSyntaxError("exponent must be positive", at)
            terms.append((mask_of(members), exponent))
        if not terms:
            raise RatioSyntaxError("expected '{'", pos)
        return tuple(terms)

    numerator = parse_product()
    skip_ws()
    if pos >= len(text) or text[pos] != "/":
        raise RatioSyntaxError("expected '/' between numerator and denominator", pos)
    pos += 1
    denominator = parse_product()
    skip_ws()
    if pos != len(text):
        raise RatioSyntaxError("unexpected trailing input", pos)

    max_index = 0
    for mask, _ in numerator + denominator:
        if mask:
            max_index = max(max_index, members_of(mask)[-1])
    if n is None:
        n = max(max_index, 1)
    elif max_index > n:
        raise ValueError(f"index {max_index} exceeds ground size {n}")
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"ground size {n} exceeds the supported maximum "
                         f"{MAX_GROUND_SIZE}")
    return RatioSpec(n, numerator, denominator)


def format_ratio(spec: RatioSpec) -> str:
    def fmt_product(terms):
        out = []
        for mask, exp in terms:
            s = format_subset(mask)
            if exp != 1:
                s += f"^{exp.numerator}" + (f"/{exp.denominator}"
                                            if exp.denominator != 1 else "")
            out.append(s)
        return "".join(out)

    return fmt_product(spec.numerator) + " / " + fmt_product(spec.denominator)


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
def homogeneity_basis(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Primitive integer basis of the homogeneity subspace log(H_n), the
    orthogonal complement of the homogeneity vectors."""
    return tuple(kernel_basis(homogeneity_vectors(n), 1 << n))


def h_coordinates(row: Sequence, n: int) -> Tuple:
    """The dot products of a mask-indexed row with homogeneity_basis(n): the
    constraint the row imposes on log(H_n).  Two rows have equal coordinates
    iff they differ by a vector in the span of the homogeneity vectors."""
    return tuple(dot(row, b) for b in homogeneity_basis(n))


def is_homogeneous(v: FormalLog) -> bool:
    ints, _ = clear_denominators(v.exponents)
    return all(dot(ints, h) == 0 for h in homogeneity_vectors(v.ground_size))


def apply_permutation(v: FormalLog, perm: Sequence[int]) -> FormalLog:
    check_permutation(perm, v.ground_size)
    return FormalLog(v.ground_size,
                     image_gather(perm, False, v.ground_size)(v.exponents))


def apply_complement(v: FormalLog) -> FormalLog:
    n = v.ground_size
    return FormalLog(n, image_gather(range(1, n + 1), True, n)(v.exponents))


def koteljanskii_log(s: int, t: int, n: int) -> FormalLog:
    """log of the Hadamard-Fischer pattern (S∪T)(S∩T) / (S)(T)."""
    if s & ~((1 << n) - 1) or t & ~((1 << n) - 1):
        raise ValueError("subset outside ground set")
    if s | t == s or s | t == t:
        return from_entries(n, {})
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


# Matrices factored per call in batch_log_minors: large enough to amortise
# numpy's per-call overhead, small enough that the gathered submatrices of a
# 1e5-matrix stack never all sit in memory at once.
CHOLESKY_CHUNK = 4096


def batch_log_minors(batch: np.ndarray,
                     masks: Sequence[int]) -> Dict[int, np.ndarray]:
    """log det A[S] for each requested nonempty subset mask S, over a stack
    of matrices of shape (count, n, n): one Cholesky factorization per mask
    and matrix, so a principal submatrix that is not numerically positive
    definite raises NotPositiveDefiniteError naming its subset."""
    count = batch.shape[0]
    out = {mask: np.empty(count) for mask in masks}
    for start in range(0, count, CHOLESKY_CHUNK):
        chunk = batch[start:start + CHOLESKY_CHUNK]
        for mask, logdet in out.items():
            idx = [i - 1 for i in members_of(mask)]
            try:
                chol = np.linalg.cholesky(chunk[:, idx][:, :, idx])
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(members_of(mask)) from None
            diag = np.diagonal(chol, axis1=-2, axis2=-1)
            logdet[start:start + len(chunk)] = 2.0 * np.log(diag).sum(axis=-1)
    return out


def log_ratio_from_minors(v: FormalLog, minors: Dict[int, np.ndarray]):
    """Sum over v.support() of v_S * minors[S] (floats or arrays of one
    shape), added in that order so that each matrix of a stack gets the
    value it gets on its own.  The zero log gives 0.0."""
    total = 0.0
    for mask in v.support():
        total = total + float(v.exponents[mask]) * minors[mask]
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
    minors = batch_log_minors(stack, v.support())
    total = np.zeros(len(stack)) + log_ratio_from_minors(v, minors)
    return float(total[0]) if a.ndim == 2 else total
