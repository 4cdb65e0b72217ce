"""Truth-table utilities, irredundant sum-of-products covers, and factoring.

Truth tables over n variables are plain integers with one bit per input
assignment (bit i = function value when the inputs spell i in binary, LSB =
variable 0). Cubes are (positive_mask, negative_mask) pairs over variable
indices. Factored expressions are nested tuples:

    ("const", 0|1)
    ("var", v, negated)
    ("and", left, right)
    ("or", left, right)
"""

from __future__ import annotations

from functools import lru_cache

Cube = tuple[int, int]
Expr = tuple


@lru_cache(maxsize=None)
def tt_ones(n_vars: int) -> int:
    return (1 << (1 << n_vars)) - 1


@lru_cache(maxsize=None)
def var_mask(v: int, n_vars: int) -> int:
    """Truth table of variable v in the n-variable space."""
    period = 1 << (v + 1)
    half = 1 << v
    chunk = ((1 << half) - 1) << half
    mask = 0
    for r in range((1 << n_vars) // period):
        mask |= chunk << (r * period)
    return mask


def cofactors(tt: int, v: int, n_vars: int) -> tuple[int, int]:
    """The cofactors of ``tt`` at variable ``v`` = 0 and at ``v`` = 1, each
    spread over both halves of the table."""
    mask = var_mask(v, n_vars)
    lo = tt & ~mask
    hi = tt & mask & tt_ones(n_vars)
    return lo | (lo << (1 << v)), hi | (hi >> (1 << v))


def isop(on: int, dc: int, n_vars: int) -> list[Cube]:
    """Minato-Morreale irredundant cover of a (possibly incompletely
    specified) function: covers all of ``on`` and stays inside ``on | dc``.
    """
    ones = tt_ones(n_vars)
    on &= ones
    upper = (on | dc) & ones
    cover, _ = _isop_rec(on, upper, n_vars, n_vars)
    return cover


def _isop_rec(lower: int, upper: int, top: int, n_vars: int) -> tuple[list[Cube], int]:
    if lower == 0:
        return [], 0
    ones = tt_ones(n_vars)
    if upper == ones:
        return [(0, 0)], ones
    # The top variable that either bound depends on, with its cofactors.
    for v in range(top - 1, -1, -1):
        l0, l1 = cofactors(lower, v, n_vars)
        u0, u1 = cofactors(upper, v, n_vars)
        if l0 != l1 or u0 != u1:
            break
    else:  # constant but upper != ones and lower != 0: inconsistent
        raise ValueError("isop bounds violated (lower not within upper)")
    # Minterms only coverable with a !v (resp. v) literal.
    c0, f0 = _isop_rec(l0 & ~u1 & ones, u0, v, n_vars)
    c1, f1 = _isop_rec(l1 & ~u0 & ones, u1, v, n_vars)
    rest = ((l0 & ~f0) | (l1 & ~f1)) & ones
    cs, fs = _isop_rec(rest, u0 & u1, v, n_vars)
    bit = 1 << v
    cover = ([(p, n | bit) for p, n in c0]
             + [(p | bit, n) for p, n in c1]
             + cs)
    vmask = var_mask(v, n_vars)
    f = (f0 & ~vmask) | (f1 & vmask) | fs
    return cover, f & ones


# ---------------------------------------------------------------------------
# Factoring: SOP cover -> AND/OR expression with shared literals divided out
# ---------------------------------------------------------------------------

def _literals(cube: Cube) -> list[tuple[int, bool]]:
    pos, neg = cube
    lits = []
    v = 0
    while pos or neg:
        if pos & 1:
            lits.append((v, False))
        if neg & 1:
            lits.append((v, True))
        pos >>= 1
        neg >>= 1
        v += 1
    return lits


def _balanced(op: str, exprs: list[Expr]) -> Expr:
    while len(exprs) > 1:
        nxt = [(op, exprs[i], exprs[i + 1]) if i + 1 < len(exprs) else exprs[i]
               for i in range(0, len(exprs), 2)]
        exprs = nxt
    return exprs[0]


def factor(cover: list[Cube]) -> Expr:
    """Factors a cover into an AND/OR expression by repeatedly dividing out
    the most frequent literal. Degenerates to balanced SOP when no literal
    is shared.
    """
    if not cover:
        return ("const", 0)
    if any(pos == 0 and neg == 0 for pos, neg in cover):
        return ("const", 1)
    counts: dict[tuple[int, bool], int] = {}
    for cube in cover:
        for lit in _literals(cube):
            counts[lit] = counts.get(lit, 0) + 1
    best = min(counts, key=lambda lit: (-counts[lit], lit))
    if counts[best] >= 2:
        v, neg = best
        bit = 1 << v
        quotient = []
        remainder = []
        for pos, nmask in cover:
            if not neg and pos & bit:
                quotient.append((pos & ~bit, nmask))
            elif neg and nmask & bit:
                quotient.append((pos, nmask & ~bit))
            else:
                remainder.append((pos, nmask))
        sub = factor(quotient)
        if sub == ("const", 1):  # quotient was the tautology cube
            divided: Expr = ("var", v, neg)
        else:
            divided = ("and", ("var", v, neg), sub)
        if not remainder:
            return divided
        return ("or", divided, factor(remainder))
    cube_exprs = [
        _balanced("and", [("var", v, neg) for v, neg in _literals(cube)])
        for cube in cover
    ]
    return _balanced("or", cube_exprs)

