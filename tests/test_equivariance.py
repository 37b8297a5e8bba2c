"""Membership verdicts are invariant under relabelling and complementation.

E_n, D_n and cone(K_n) are closed under S_n and under complementation
S -> S^c (the image of A -> A^{-1}), so a ratio is a member iff its image
is.  Each case draws a seeded permutation and compares the verdicts on v,
on its permuted image and on its complemented image.  The inputs are rich
in members: nonnegative combinations of local Koteljanskii generators
(members of every cone here) and, at n = 4, of the D_4 rays, each also
pushed off by a random homogeneous log so that some verdicts are False.
"""

from functools import lru_cache

import numpy as np
import pytest

from minorcones.cones import (build_D_system, build_E_system, extreme_rays,
                              koteljanskii_cone_membership, membership)
from minorcones.constants import counterexample_E4
from minorcones.exact import as_fractions
from minorcones.probe import random_homogeneous_log
from minorcones.ratios import (FormalLog, apply_complement,
                               apply_permutation, koteljanskii_generators)

SEED = 3600
# Inputs drawn per ground size, before the pushed-off copies.
DRAWS = 12


@lru_cache(maxsize=None)
def d4_rays():
    return tuple(ray.vector for ray in extreme_rays(build_D_system(4)))


def nonnegative_combination(vectors, rng):
    """A combination of 1-3 of `vectors` with positive integer weights."""
    picks = rng.choice(len(vectors), size=rng.integers(1, 4), replace=False)
    total = np.zeros(len(vectors[0]), dtype=np.int64)
    for k in picks:
        total += rng.integers(1, 4) * np.array(vectors[k], dtype=np.int64)
    return total


def as_log(n, ints):
    return FormalLog(n, tuple(as_fractions([int(x) for x in ints], 1)))


@lru_cache(maxsize=None)
def cases(n):
    """(inputs, permutation) for ground size n: the member-rich draws, the
    same draws each plus a random homogeneous log, and one seeded
    permutation."""
    rng = np.random.default_rng((SEED, n))
    sources = [[vec for _, vec in koteljanskii_generators(n)]]
    if n == 4:
        sources.append(d4_rays())
    members = [nonnegative_combination(sources[k % len(sources)], rng)
               for k in range(DRAWS)]
    pushed = [m + np.array(random_homogeneous_log(n, rng).cleared[0],
                           dtype=np.int64) for m in members]
    inputs = [as_log(n, ints) for ints in members + pushed]
    if n == 4:
        inputs.append(counterexample_E4())
    perm = tuple(int(i) + 1 for i in rng.permutation(n))
    return inputs, perm


def assert_invariant(n, verdict):
    inputs, perm = cases(n)
    verdicts = []
    for v in inputs:
        want = verdict(v)
        for image in (apply_permutation(v, perm), apply_complement(v)):
            assert verdict(image) == want, (v.exponents, perm)
        verdicts.append(want)
    return verdicts


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("build", [build_E_system, build_D_system])
def test_e_and_d_verdicts_agree_on_a_ratio_and_its_images(build, n):
    system = build(n)
    verdicts = assert_invariant(n, lambda v: membership(v, system).verdict)
    # The draws reach both verdicts, and every draw before it is pushed
    # off is a member: Koteljanskii generators and D_4 rays lie in D_n.
    assert all(verdicts[:DRAWS]) and not all(verdicts)


@pytest.mark.parametrize("n", [3, 4])
def test_koteljanskii_cone_verdicts_agree_on_a_ratio_and_its_images(n):
    verdicts = assert_invariant(
        n, lambda v: koteljanskii_cone_membership(v).verdict)
    # At n = 4 every other draw combines D_4 rays, which may lie outside.
    assert all(verdicts[:DRAWS:2 if n == 4 else 1]) and not all(verdicts)


def test_the_permutations_are_not_the_identity():
    for n in (3, 4, 5):
        _, perm = cases(n)
        assert perm != tuple(range(1, n + 1))
