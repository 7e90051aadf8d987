"""Closed-form compression capacities, with finite-k witnesses and converse bounds."""

import math
from typing import NamedTuple, Optional

from .codec import (
    build_identity_code,
    build_packing_code_11,
    build_split_code_01,
    lift_code,
    packing_uses,
    rate_account,
)
from .errors import ZefcError
from .exact import LOG2_3, least_integer, log2_3_sign


class CapacityResult(NamedTuple):
    """Closed-form capacity with an optional finite-k witness and converse."""

    value: float
    formula: str
    achievable_witness: Optional[float] = None
    converse_bound: Optional[float] = None


def construct_for_case(switches, k, caps):
    """The matching explicit construction for each switch case."""
    case = switches.as_string()
    if case == "00":
        return build_identity_code(k)
    if case == "10":
        return lift_code(build_identity_code(k), switches)
    if case == "01":
        return build_split_code_01(k, caps)
    return build_packing_code_11(k, caps)


def _closed_form(switches, caps):
    case = switches.as_string()
    c2 = float(caps.c2)
    if case in ("00", "10"):
        return c2, "C2"
    c1 = float(caps.c1)
    if case == "11":
        return (c1 + c2) / LOG2_3, "(C1+C2)/log2(3)"
    if caps.c1 == 2 and caps.c2 == 1:
        return math.log2(6) / LOG2_3, "log3(6)"
    return (c1 - c2) / LOG2_3 + c2, "(C1-C2)*log3(2)+C2"


def capacity_pair(switches, caps):
    """(alpha, beta) with the capacity equal to alpha / log2(3) + beta."""
    case = switches.as_string()
    if case in ("00", "10"):
        return 0, caps.c2
    if case == "11":
        return caps.c1 + caps.c2, 0
    return caps.c1 - caps.c2, caps.c2


def least_converse_uses(switches, caps, k):
    """Least n >= 1 with k/n at most the capacity: n*alpha + (n*beta - k)*log2(3) >= 0.

    No code computes the sum with zero channel uses, however wide the channels.
    """
    alpha, beta = capacity_pair(switches, caps)
    return max(1, least_integer(0, -k, alpha, beta))


def capacity(switches, caps, witness_k=None):
    """Closed-form capacity of X + Y, optionally sandwiched by a finite-k construction."""
    value, formula = _closed_form(switches, caps)
    if witness_k is None:
        return CapacityResult(value=value, formula=formula)
    code = construct_for_case(switches, witness_k, caps)
    rate = rate_account(code, caps).rate
    achieved = float(rate)
    if switches.as_string() == "11":
        n = packing_uses(witness_k, caps)[0]
    else:
        n = least_converse_uses(switches, caps, witness_k)
    converse = witness_k / n
    alpha, beta = capacity_pair(switches, caps)
    # rate > alpha / log2(3) + beta exactly when (rate - beta) * log2(3) - alpha > 0.
    if log2_3_sign(-alpha, rate - beta) > 0 or rate * n > witness_k:
        raise ZefcError(
            "rate_above_bound",
            "the witness rate must not exceed the capacity or the converse bound",
            achieved=achieved,
            capacity=value,
            converse=converse,
        )
    return CapacityResult(
        value=value, formula=formula, achievable_witness=achieved, converse_bound=converse
    )

