from hypothesis import given, settings
from hypothesis import strategies as st

from aigopt.isop import factor, isop, tt_ones, var_mask

# Truth-table oracles of cubes, covers and factored expressions, in the
# representation of aigopt.isop: the tests below check isop and factor
# against them.


def cube_tt(cube, n_vars):
    pos, neg = cube
    tt = tt_ones(n_vars)
    for v in range(n_vars):
        if pos >> v & 1:
            tt &= var_mask(v, n_vars)
        if neg >> v & 1:
            tt &= ~var_mask(v, n_vars)
    return tt & tt_ones(n_vars)


def cover_tt(cover, n_vars):
    tt = 0
    for cube in cover:
        tt |= cube_tt(cube, n_vars)
    return tt


def expr_tt(expr, n_vars):
    tag = expr[0]
    if tag == "const":
        return tt_ones(n_vars) if expr[1] else 0
    if tag == "var":
        mask = var_mask(expr[1], n_vars)
        return (~mask & tt_ones(n_vars)) if expr[2] else mask
    left = expr_tt(expr[1], n_vars)
    right = expr_tt(expr[2], n_vars)
    return (left & right) if tag == "and" else (left | right)


def test_var_masks():
    assert var_mask(0, 2) == 0b1010
    assert var_mask(1, 2) == 0b1100
    assert var_mask(0, 3) == 0b10101010


def test_isop_exhaustive_small():
    for n in (1, 2, 3):
        for tt in range(1 << (1 << n)):
            cover = isop(tt, 0, n)
            assert cover_tt(cover, n) == tt, (n, tt)


def test_isop_irredundant_small():
    for n in (2, 3):
        for tt in range(1 << (1 << n)):
            cover = isop(tt, 0, n)
            for skip in range(len(cover)):
                partial = cover[:skip] + cover[skip + 1:]
                assert cover_tt(partial, n) != tt, (n, tt, skip)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=4, max_value=6), st.data())
def test_isop_covers_exactly(n, data):
    tt = data.draw(st.integers(min_value=0, max_value=tt_ones(n)))
    cover = isop(tt, 0, n)
    assert cover_tt(cover, n) == tt


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_isop_respects_dont_cares(n, data):
    on = data.draw(st.integers(min_value=0, max_value=tt_ones(n)))
    dc = data.draw(st.integers(min_value=0, max_value=tt_ones(n))) & ~on
    cover = isop(on, dc, n)
    covered = cover_tt(cover, n)
    assert covered & on == on            # everything required is covered
    assert covered & ~(on | dc) == 0     # nothing outside the upper bound


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_factor_preserves_function(n, data):
    tt = data.draw(st.integers(min_value=0, max_value=tt_ones(n)))
    cover = isop(tt, 0, n)
    expr = factor(cover)
    assert expr_tt(expr, n) == tt


def test_factor_constants():
    assert factor([]) == ("const", 0)
    assert factor([(0, 0)]) == ("const", 1)


def test_factor_single_literal():
    cover = isop(var_mask(1, 3), 0, 3)
    assert factor(cover) == ("var", 1, False)


def test_cube_tt():
    # cube x0 & !x1 over 2 vars: minterm index 01 only
    assert cube_tt((0b01, 0b10), 2) == 0b0010
