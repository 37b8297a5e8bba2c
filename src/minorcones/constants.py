"""Named ratios, matrices, and polynomial families used throughout the
reproduction suite, transcribed once and validated by tests (homogeneity,
expected symmetries such as Q's self-complementarity and R1's invariance
under swapping indices 2 and 3).
"""

from functools import lru_cache

from . import nullity
from .nullity import RationalMatrix
from .polyarith import PolyMatrix, poly_matrix
from .ratios import FormalLog, RatioSpec, formal_log, parse_ratio

R1_TEXT = "{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}"
R2_TEXT = ("{1,2,3,4}^2{2,3}{2,4}{3,4}{1}{} / "
           "{1,2,3}{1,2,4}{1,3,4}{2,3,4}{2}{3}{4}")
# The first denominator set is {2,3,4}: the printed source has {1,2,3}
# there, but that version fails homogeneity, while {2,3,4} agrees with the
# ratio's own factorization into Koteljanskii factors and appears among the
# 46 computed extreme rays.
R3_TEXT = ("{1,2,3,4}{2,3}{2,4}{3,4}{1}^2{} / "
           "{2,3,4}{1,2}{1,3}{1,4}{2}{3}{4}")
COUNTEREXAMPLE_E4_TEXT = (
    "{1,2,3,4}{1,3,4}{1,2}{1,4}{2,3}{2,4}{3}{} / "
    "{1,2,3}{1,2,4}{2,3,4}{1,3}{3,4}{1}{2}{4}")
Q_TEXT = ("{1,2,3,4,5}{1,3,4,5}{2,3,4,5}{1,2,3}{1,2,5}{3,4}{4,5}{1}{2}{} / "
          "{1,2,3,4}{1,2,3,5}{1,4,5}{2,4,5}{3,4,5}{1,2}{1,3}{2,3}{4}{5}")

# The three identities expressing R1, R2, R3 as products of two or three
# Koteljanskii ratios and the bounded-by-4 factor {1}{23}/{2}{13}.
R1_FACTORS = ("{1,2,4}{2} / {1,2}{2,4}",
              "{1,3,4}{4} / {1,4}{3,4}",
              "{1}{2,3} / {2}{1,3}")
R2_FACTORS = ("{1,2,3,4}{2,4} / {1,2,4}{2,3,4}",
              "{1,2,3,4}{1,3} / {1,2,3}{1,3,4}",
              "{3,4}{} / {3}{4}",
              "{1}{2,3} / {2}{1,3}")
R3_FACTORS = ("{1,2,3,4}{2,4} / {1,2,4}{2,3,4}",
              "{1,2,4}{1} / {1,2}{1,4}",
              "{3,4}{} / {3}{4}",
              "{1}{2,3} / {2}{1,3}")


def ratio_spec(name: str) -> RatioSpec:
    text, n = _NAMED[name]
    return parse_ratio(text, n)


@lru_cache(maxsize=None)
def named_log(name: str) -> FormalLog:
    return formal_log(ratio_spec(name))


_NAMED = {
    "R1": (R1_TEXT, 4),
    "R2": (R2_TEXT, 4),
    "R3": (R3_TEXT, 4),
    "counterexample_E4": (COUNTEREXAMPLE_E4_TEXT, 4),
    "Q": (Q_TEXT, 5),
}


def R1() -> FormalLog:
    return named_log("R1")


def R2() -> FormalLog:
    return named_log("R2")


def R3() -> FormalLog:
    return named_log("R3")


def counterexample_E4() -> FormalLog:
    return named_log("counterexample_E4")


def Q() -> FormalLog:
    return named_log("Q")


def M6() -> RationalMatrix:
    return nullity.M6


def M7() -> RationalMatrix:
    return nullity.M7


E = (0, 1)  # the polynomial eps as a coefficient tuple


@lru_cache(maxsize=None)
def P_for_Q() -> PolyMatrix:
    """The 5x5 polynomial matrix whose Gram family makes Q unbounded."""
    return poly_matrix([
        [1, 1, 1, 1, 1],
        [0, E, 0, 1, 2],
        [0, 0, E, 1, 2],
        [0, 0, 0, E, 0],
        [0, 0, 0, 0, E],
    ])
