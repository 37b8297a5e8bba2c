"""Bitmask encodings for subsets of the ground set {1, ..., n}, and the
action of index permutations and complementation on subset-indexed vectors.

Index i (1-based) corresponds to bit i-1.  Vectors indexed "by subset"
are flat tuples of length 2**n whose position is the bitmask value;
printing and canonical comparisons use the (cardinality, mask) order.
The group S_n x {1, complement} acts on such vectors by one gather per
element (`image_gather`); `group_gathers` lists all 2 * n! of them.
"""

from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Sequence, Tuple


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        if i < 1:
            raise ValueError(f"index {i} out of range (1-based)")
        m |= 1 << (i - 1)
    return m


def members_of(mask: int) -> Tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(i) for i in members_of(mask)) + "}"


@lru_cache(maxsize=None)
def subset_order(n: int) -> Tuple[int, ...]:
    """All masks for ground size n, sorted by cardinality then value."""
    return tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))


@lru_cache(maxsize=None)
def _order_gather(n: int):
    """The gather taking a mask-indexed vector to (size, mask) order."""
    # itemgetter with one index returns the entry, not a 1-tuple; at n = 0
    # the one entry is already in order.
    return itemgetter(*subset_order(n)) if n else tuple


def ordered_entries(vector: Sequence, n: int) -> Tuple:
    """Reorder a mask-indexed vector into (size, mask) order."""
    return _order_gather(n)(vector)


def complement_mask(mask: int, n: int) -> int:
    return ((1 << n) - 1) ^ mask


def check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")


def image_gather(perm: Sequence[int], complemented: bool,
                 n: int) -> itemgetter:
    """The gather mapping a mask-indexed vector to its image under the
    permutation perm (perm[i-1] = sigma(i)), followed by complementation if
    `complemented`.  It picks, for every target mask, the source mask mapped
    onto it."""
    # The image of every mask, one index at a time: the masks with bit i
    # are those without it, each gaining the image of bit i.
    images = [0]
    for i in range(n):
        bit = 1 << (perm[i] - 1)
        images += [t | bit for t in images]
    if complemented:
        images = [complement_mask(t, n) for t in images]
    # source[target] = mask: the masks in the order of their images.
    source = sorted(range(1 << n), key=images.__getitem__)
    # itemgetter with one index returns the entry, not a 1-tuple; at n = 0
    # the one group element is the identity.
    return itemgetter(*source) if n else tuple


def order_preserving_gather(source: int, target: int, n: int) -> itemgetter:
    """The gather of the permutation that maps the members of `source`, in
    increasing order, onto those of `target`, and its non-members onto the
    non-members of `target` in the same way.  The two sets must have the
    same size.  When the matrix of a family for `target` is its matrix for
    `source` with column i moved to column sigma(i), as for
    `nullity.superset_matrix` and `nullity.subset_matrix`, this gather takes
    the nullity type of the one to that of the other."""
    if source.bit_count() != target.bit_count():
        raise ValueError("order-preserving relabelling needs two sets of "
                         "the same size")
    full = (1 << n) - 1
    perm = [0] * n
    for fro, to in ((source, target), (full ^ source, full ^ target)):
        for i, j in zip(members_of(fro), members_of(to)):
            perm[i - 1] = j
    return image_gather(perm, False, n)


@lru_cache(maxsize=None)
def group_gathers(n: int) -> Tuple[Tuple[Tuple[int, ...], bool, itemgetter], ...]:
    """One (perm, complement, gather) triple per group element, permutations
    in lexicographic order, each without then with complementation."""
    return tuple((perm, complement, image_gather(perm, complement, n))
                 for perm in permutations(range(1, n + 1))
                 for complement in (False, True))
