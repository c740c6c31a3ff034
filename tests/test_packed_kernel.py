"""The packed-exponent kernel against the tuple-keyed oracle in tuple_laurent.py.

Exponents are drawn on both sides of every field-width boundary (2^15, 2^31,
2^63 for the 16-, 32- and 64-bit layouts, and half of each, where a product
crosses it), at ±10^12 and past 2^63, each shifted by small vectors so that
terms of different operands meet and cancel.
"""
import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kquadric
import tuple_laurent as oracle
from kquadric import laurent
from kquadric.laurent import (
    LaurentPolynomial,
    NonDivisibleError,
    _Accumulator,
    div_exact_binomial,
    div_exact_product,
    divisible_by_binomial,
    monomial,
    one,
    one_minus_monomial,
    to_json_dict,
    zero,
)

EDGES = (2**14, 2**15, 2**30, 2**31, 2**62, 2**63, 10**12, 2**64)

near_edge = st.builds(
    lambda edge, delta, sign: sign * (edge + delta),
    st.sampled_from(EDGES),
    st.integers(-2, 2),
    st.sampled_from((1, -1)),
)
offset_entry = st.one_of(st.just(0), near_edge, st.integers(-(10**12), 10**12))


@st.composite
def operands(draw):
    """(m, a, b, alpha): two polynomials whose terms sit near 0, near an offset
    vector and near its negative, and a nonzero, possibly non-primitive alpha."""
    m = draw(st.integers(1, 5))
    offset = draw(st.tuples(*[offset_entry] * m))
    centres = [(0,) * m, offset, tuple(-x for x in offset)]

    def polynomial():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            centre = draw(st.sampled_from(centres))
            small = draw(st.tuples(*[st.integers(-2, 2)] * m))
            e = tuple(x + y for x, y in zip(centre, small))
            terms[e] = terms.get(e, 0) + draw(st.integers(-4, 4))
        return LaurentPolynomial(m, terms)

    a, b = polynomial(), polynomial()
    entry = st.one_of(st.integers(-3, 3), near_edge)
    scale = draw(st.sampled_from((1, 1, 2, -3)))
    alpha = tuple(scale * x for x in draw(st.tuples(*[entry] * m).filter(any)))
    return m, a, b, alpha


def emit(p):
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def tuple_terms(p):
    items = p.items()
    assert [e for e, _ in items] == sorted(e for e, _ in items)
    return dict(items)


QUOTIENT_LIMIT = 10_000


def oracle_quotient(g, alpha):
    try:
        return oracle.div_exact(g, alpha)
    except oracle.NotDivisible:
        return None


def packed_quotient(g, alpha):
    try:
        return tuple_terms(div_exact_binomial(g, alpha))
    except NonDivisibleError:
        return None


@settings(max_examples=300, deadline=None)
@given(operands())
# A product whose exponent crosses the 16-bit field: the result must widen.
@example((1, monomial((2**15 - 1,)), monomial((1,)), (1,)))
# Past 2^63 on both sides, with cancellation to a constant.
@example((2, monomial((2**64 + 3, -(2**63))), monomial((-(2**64) - 3, 2**63), -1), (0, 5)))
def test_ring_operations_match_tuple_oracle(case):
    _, a, b, _ = case
    A, B = tuple_terms(a), tuple_terms(b)
    assert tuple_terms(a + b) == oracle.add(A, B)
    assert tuple_terms(a - b) == oracle.add(A, B, -1)
    assert tuple_terms(b - a) == oracle.add(B, A, -1)
    assert tuple_terms(a * b) == oracle.mul(A, B) == tuple_terms(b * a)
    assert tuple_terms(-a) == {e: -c for e, c in A.items()}
    assert tuple_terms(a * 3) == {e: 3 * c for e, c in A.items()}


# -- products by a binomial ---------------------------------------------------------


def pair_loop(a, b):
    """(terms, layout, bound) of a * b by the general pair loop."""
    bound = a._bound + b._bound
    layout = laurent._common_layout(a.m, a._layout, b._layout, bound)
    terms = {}
    laurent._mul_into(terms, laurent._keyed(a, layout), laurent._keyed(b, layout), layout.zero, 1)
    return terms, layout, bound


def held(p, bound):
    """p with the tracked bound max(p's, bound), in the narrowest layout for it."""
    bound = max(p._bound, bound)
    layout = laurent._layout_for(p.m, bound)
    return LaurentPolynomial._raw(p.m, laurent._keyed(p, layout), layout, bound)


@st.composite
def binomial_products(draw):
    """(p, alpha, bound): `operands`' first polynomial and alpha, p sometimes
    with equal coefficients at some e and e + alpha (which cancel in the
    product), and a tracked bound to hold 1 - y^alpha at."""
    m, p, _, alpha = draw(operands())
    if draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(-2, 2)] * m))
        c = draw(st.sampled_from((1, -3)))
        p = p + monomial(e, c) + monomial(tuple(x + a for x, a in zip(e, alpha)), c)
    return p, alpha, draw(st.sampled_from((0, 2**15, 2**31 - 1, 2**63)))


@settings(max_examples=300, deadline=None)
@given(binomial_products())
# The product crosses the 16-, 32- and 64-bit fields: the result must widen.
@example((monomial((2**15 - 1,)), (1,), 0))
@example((monomial((2**31 - 1, 0), 3), (1, -1), 0))
@example((monomial((-(2**63) + 1,)), (-1,), 0))
# p = 1 + y^alpha: the terms at alpha cancel, leaving 1 - y^(2·alpha).
@example((one(2) + monomial((2, -1)), (2, -1), 0))
# The binomial is held wider than p, or its alpha alone makes it wider.
@example((one(2) + monomial((2, -1)), (2, -1), 2**31))
@example((zero(3), (0, 2**40, -1), 0))
def test_products_by_a_binomial_match_the_pair_loop_and_tuple_oracle(case):
    """p * (1 - y^alpha) and (1 - y^alpha) * p through `_times_binomial`, with
    and without a key table, equal the pair loop's terms, layout and bound,
    and the tuple oracle's terms."""
    p, alpha, bound = case
    b = held(one_minus_monomial(alpha), bound)
    assert laurent._is_binomial(b)
    expected = oracle.mul(tuple_terms(p), tuple_terms(b))
    for product in (p * b, b * p, laurent._times_binomial(p, b, {})):
        assert (product._terms, product._layout, product._bound) == pair_loop(p, b)
        assert tuple_terms(product) == expected


@pytest.mark.parametrize(
    "factor",
    [one(2) + monomial((1, -1)), 2 - monomial((1, -1)), monomial((1, -1)) - 1, monomial((0, 2)) - monomial((1, -1))],
    ids=["1+y^a", "2-y^a", "-1+y^a", "y^b-y^a"],
)
def test_other_two_term_factors_take_the_pair_loop(monkeypatch, factor):
    calls = []
    kernel = laurent._times_binomial
    monkeypatch.setattr(laurent, "_times_binomial", lambda *args: calls.append(args) or kernel(*args))
    p = one(2) + monomial((1, -1), 3) + monomial((-2, 5), -1)
    assert factor.term_count() == 2 and not laurent._is_binomial(factor)
    expected = oracle.mul(tuple_terms(p), tuple_terms(factor))
    for product in (p * factor, factor * p):
        assert (product._terms, product._layout, product._bound) == pair_loop(p, factor)
        assert tuple_terms(product) == expected
    assert calls == []
    binomial = one_minus_monomial((1, -1))  # on either side, it reaches the kernel
    for product in (p * binomial, binomial * p):
        assert (product._terms, product._layout, product._bound) == pair_loop(p, binomial)
    assert len(calls) == 2


@settings(max_examples=300, deadline=None)
@given(operands())
# Both terms fit 16-bit fields, but the representative (-1, 65530) of the
# first does not: unwidened it would pack to the key of (0, -6), the second.
@example((2, monomial((0, 0)), monomial((2**15 - 3, 2**15 - 4)) - monomial((0, -6)), (-3, 3)))
@example((1, monomial((2**63,)), monomial((1,)), (2**63 - 1,)))
# P(alpha) does not fit the fields of g's own layout: the walk must lay g out
# wide enough for g's bound plus max|alpha_i|, or the one term's fill wraps.
@example((2, zero(2), monomial((0, 2**31)), (-1, 2**64)))
def test_binomial_division_matches_tuple_oracle(case):
    _, a, b, alpha = case
    multiple = a * one_minus_monomial(alpha)
    for g in (multiple, multiple + b, b):
        G = tuple_terms(g)
        assert divisible_by_binomial(g, alpha) == oracle.divisible(G, alpha)
        if oracle.quotient_size(G, alpha) <= QUOTIENT_LIMIT:
            assert packed_quotient(g, alpha) == oracle_quotient(G, alpha)
    assert packed_quotient(multiple, alpha) == tuple_terms(a)


@settings(max_examples=300, deadline=None)
@given(operands())
# Operands held in one layout or two (16; 32 and 16; 64 and 16 bits) whose
# line pass must widen: 2·bound + max|alpha| crosses 2^15, 2^31, 2^63 (the
# last also with max|alpha| near 2^62).
@example((1, monomial((2**14,)), monomial((2**14 - 1,)), (1,)))
@example((2, monomial((2**30, 2**30)), monomial((0, 0)), (1, 1)))
@example((2, monomial((2**62, -(2**62))), monomial((0, 0)), (-1, 1)))
@example((2, monomial((2**62, 0)), monomial((1, 0)), (2**62 - 1, 0)))
# The wrapping representative pinned for the division test above, split
# across the operands: the pass on a - b must widen.
@example((2, monomial((2**15 - 3, 2**15 - 4)), monomial((0, -6)), (-3, 3)))
def test_difference_test_matches_a_test_of_the_difference(case):
    """_difference_divisible(a, b, alpha) == divisible_by_binomial(a - b, alpha)
    == the tuple oracle on a - b, for divisible and non-divisible differences."""
    m, a, b, alpha = case
    divisor = laurent._checked_alpha(alpha, m)
    multiple = a * one_minus_monomial(alpha)
    for x, y in ((a, b), (b, a), (b + multiple, b), (b, b - multiple), (multiple, zero(m)), (a, a)):
        expected = oracle.divisible(oracle.add(tuple_terms(x), tuple_terms(y), -1), alpha)
        assert laurent._difference_divisible(x, y, divisor) == divisible_by_binomial(x - y, alpha) == expected


@settings(max_examples=150, deadline=None)
@given(operands(), st.data())
def test_division_by_products_matches_tuple_oracle(case, data):
    """g = a·Π(1 - y^alpha_i) + c·y^e·Π_{i<k}(1 - y^alpha_i) divides by the
    first k factors and, for k < len(alphas), fails exactly at factor k."""
    m, a, _, alpha = case
    small = st.tuples(*[st.integers(-2, 2)] * m).filter(any)
    alphas = [alpha] + data.draw(st.lists(small, max_size=2))
    k = data.draw(st.integers(0, len(alphas)))
    extra = monomial(data.draw(st.tuples(*[st.integers(-3, 3)] * m)), data.draw(st.sampled_from((1, -2))))
    quotient = a + extra
    g = a
    for index, factor in enumerate(alphas):
        g = g * one_minus_monomial(factor)
        if index < k:
            extra = extra * one_minus_monomial(factor)
    g = g + extra
    G = tuple_terms(g)
    if k == len(alphas):
        assert tuple_terms(div_exact_product(g, alphas)) == oracle.div_exact_product(G, alphas)
        assert div_exact_product(g, alphas) == quotient
    else:
        with pytest.raises(oracle.NotDivisible):
            oracle.div_exact_product(G, alphas)
        with pytest.raises(NonDivisibleError) as err:
            div_exact_product(g, alphas)
        assert err.value.factor_index == k


def test_equal_polynomials_of_different_widths_compare_equal():
    p = one_minus_monomial((1, -2)) * monomial((-3, 0), 5)
    far = monomial((2**40, 0))
    q = (p * far) * monomial((-(2**40), 0))
    assert q._layout.width > p._layout.width
    assert p == q and q == p
    assert p != q + monomial((0, 1)) and q + monomial((0, 1)) != p
    assert p + q == 2 * p == q + p
    assert emit(q) == emit(p) and repr(q) == repr(p) and str(q) == str(p)


def test_items_follow_tuple_order_with_negative_exponents():
    exponents = [(-1, 5), (0, -3), (-2, 0), (-1, -1), (3, -(2**20)), (-(2**40), 7), (0, 0), (-1, 4)]
    p = LaurentPolynomial(2, {e: k + 1 for k, e in enumerate(exponents)})
    assert p.support() == sorted(exponents)
    assert [e for e, _ in p.items()] == sorted(exponents)
    assert p.items() == sorted((e, k + 1) for k, e in enumerate(exponents))


def test_operations_leave_operand_bounds_unchanged():
    # c is 1 but tracks the bound 2^14, so c * c and the coset pass both need
    # a wider layout than c's; they must take it without rewriting c.
    c = monomial((2**13, 0)) * monomial((-(2**13), 0))
    bound = c._bound
    assert c == one(2)
    assert c * c == one(2) and (c * c)._layout.width > c._layout.width
    assert not divisible_by_binomial(c, (1, 0))
    assert c._bound == bound


# -- pinned division and accumulator cases --------------------------------------------


@pytest.mark.parametrize("alpha", [(-1, 2), (0, -3)])
def test_division_by_alpha_with_a_negative_packed_step(alpha):
    # P(alpha) < 0, so the quotient is filled walking the keys in reverse order.
    a = LaurentPolynomial(2, {(0, 0): 3, (1, -1): -2, (-4, 5): 1, (2, 2): 7})
    g = a * one_minus_monomial(alpha)
    assert g._layout.offset(alpha) < 0
    assert div_exact_binomial(g, alpha) == a
    assert packed_quotient(g, alpha) == oracle_quotient(tuple_terms(g), alpha)
    with pytest.raises(NonDivisibleError):
        div_exact_binomial(g + monomial((0, 1)), alpha)


def test_division_fills_a_long_gap():
    alpha = (2, -1, 1)
    g = one_minus_monomial(tuple(1000 * x for x in alpha))
    expected = LaurentPolynomial(3, {tuple(s * x for x in alpha): 1 for s in range(1000)})
    assert div_exact_binomial(g, alpha) == expected


def test_non_divisible_input_with_a_huge_gap_fails_after_a_short_fill():
    # The one line of 1 + y^(2^40 alpha) sums to 2.  The fill from its first
    # term would run 2^40 steps to reach the second; it overruns after
    # len(g) = 2 steps, the line sums are checked, and the call fails there.
    script = """
from kquadric.laurent import NonDivisibleError, div_exact_binomial, monomial, one
alpha = (1, -2)
g = one(2) + monomial(tuple(2**40 * x for x in alpha))
try:
    div_exact_binomial(g, alpha)
except NonDivisibleError as exc:
    print(exc)
"""
    src = str(Path(kquadric.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "a polynomial of 2 terms is not divisible by 1 - y^[1, -2]\n"


# A fill that runs cap = min(len(g), headroom) steps without meeting a term of
# g triggers the line-sum check.  Here the bound EDGE leaves the 16-bit layout
# a headroom (bias - 1 - bound) // max|alpha_i| of 2 // 2 = 1 step, which is
# the cap.
EDGE = 2**15 - 3


def at_the_edge(alpha):
    """(divisible, not divisible) polynomials with bound EDGE in the 16-bit
    layout whose terms at |e_1| near EDGE fill toward the end of the e_1
    field: alpha_1 = ±1 has the sign of those e_1."""
    toward = alpha[0]
    run = LaurentPolynomial(2, {(toward * (EDGE - 4 + s), -toward * 2 * s): 1 for s in range(4)})
    a = run + monomial((0, -toward * 5), 7)
    # Rebuilt from its terms, so that the tracked bound is the measured EDGE.
    g = LaurentPolynomial(2, dict((a * one_minus_monomial(alpha)).items()))
    return g, g + monomial((toward * EDGE, 1), -2)


@pytest.mark.parametrize("alpha", [(1, -2), (-1, 2)])
def test_fills_capped_by_the_headroom_below_the_bias(alpha):
    divisible, not_divisible = at_the_edge(alpha)
    # The divisible g has a gap of 4 > cap = 1 on the line of its run; the
    # extra term's line in the other sums to -2 and would wrap after 3 steps.
    for g in (divisible, not_divisible, monomial((alpha[0] * EDGE, 0))):
        assert g._layout.width == 16 and g._bound == EDGE
        assert (g._layout.offset(alpha) > 0) == (alpha[0] > 0)
        assert packed_quotient(g, alpha) == oracle_quotient(tuple_terms(g), alpha)
    assert div_exact_binomial(divisible, alpha).term_count() == 5
    assert packed_quotient(not_divisible, alpha) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_a_fill_past_the_headroom_would_wrap_onto_a_term(sign):
    # The line of y^(0, sign*B) sums to 1.  Its fill by alpha = (0, sign)
    # carries out of the e_2 field after 2 steps and lands on the key of
    # (sign, -sign*B) after 4, where the running value would cancel and the
    # walk would end with a quotient.  len(g) = 6, so only the headroom
    # (2^15 - 1 - B) // 1 = 1 makes the fill stop and check.
    B, alpha = 2**15 - 2, (0, sign)
    extra = LaurentPolynomial(2, {(5, 0): 3, (-5, 0): 1}) * one_minus_monomial(alpha)
    g = monomial((0, sign * B)) - monomial((sign, -sign * B)) + extra
    assert g.term_count() == 6 and g._layout.width == 16
    with pytest.raises(NonDivisibleError):
        div_exact_binomial(g, alpha)
    assert oracle_quotient(tuple_terms(g), alpha) is None


def test_long_gap_mid_walk_checks_once_and_stays_exact(monkeypatch):
    # Lines of Z·(1, 0) are rows e_2 = const, met interleaved in sorted order.
    # Row 0 has a gap of 50 > len(g) = 9 steps; rows -1 and 3 have short ones,
    # some walked before row 0's gap, some after.
    alpha = (1, 0)
    long_row = LaurentPolynomial(2, {(s, 0): 1 for s in range(50)})
    short_rows = LaurentPolynomial(2, {(-3, -1): 2, (-2, -1): -1, (1, 3): 4, (60, 3): 5})
    a = long_row + short_rows
    g = a * one_minus_monomial(alpha)
    assert g.term_count() == 9
    checks = []
    divisible = laurent.divisible_by_binomial
    monkeypatch.setattr(laurent, "divisible_by_binomial", lambda g, alpha: checks.append(alpha) or divisible(g, alpha))
    assert div_exact_binomial(g, alpha) == a
    assert len(checks) == 1
    assert packed_quotient(g, alpha) == oracle_quotient(tuple_terms(g), alpha)
    checks.clear()
    # Two long rows: the line sums are still checked once per call.
    assert div_exact_binomial(g * monomial((0, 1)) - g, alpha) == a * monomial((0, 1)) - a
    assert len(checks) == 1
    checks.clear()
    # No fill overruns: no line-sum check at all.
    assert div_exact_binomial(short_rows * one_minus_monomial(alpha), alpha) == short_rows
    assert checks == []


def test_failing_line_walked_first_raises_the_line_sum_message():
    alpha = (1, 0)
    a = LaurentPolynomial(2, {(0, 1): 3, (2, -1): -1, (4, 4): 2})
    g = monomial((-5, 0), 2) + monomial((-4, 0), 1) + a * one_minus_monomial(alpha)
    assert g.support()[0] == (-5, 0)  # the failing row 0 (sum 3) is walked first
    with pytest.raises(NonDivisibleError) as err:
        div_exact_binomial(g, alpha)
    assert str(err.value) == "a polynomial of 8 terms is not divisible by 1 - y^[1, 0]"
    assert packed_quotient(g, alpha) == oracle_quotient(tuple_terms(g), alpha) is None


def test_many_short_fills_check_the_line_sums_once_the_quotient_is_large(monkeypatch):
    # Rows y^(0, r) - y^(gap, r) along alpha = (1, 0): every fill is gap - 1
    # < len(g) steps, so none overruns, but together they fill about
    # len(g)·gap / 2 terms.  Past 2·len(g) quotient terms every fill is
    # capped at one step, so the line sums run once, and a failing g fails
    # in O(len(g)) steps, not after filling every row.
    alpha, rows, gap = (1, 0), 10, 15
    a = LaurentPolynomial(2, {(s, r): 1 for r in range(rows) for s in range(gap)})
    g = a * one_minus_monomial(alpha)
    assert g.term_count() == 2 * rows and gap < g.term_count()
    checks = []
    divisible = laurent.divisible_by_binomial
    monkeypatch.setattr(laurent, "divisible_by_binomial", lambda g, alpha: checks.append(alpha) or divisible(g, alpha))
    assert div_exact_binomial(g, alpha) == a
    assert len(checks) == 1
    checks.clear()
    failing = g + monomial((0, rows))  # its own row sums to 1
    with pytest.raises(NonDivisibleError) as err:
        div_exact_binomial(failing, alpha)
    assert str(err.value) == "a polynomial of 21 terms is not divisible by 1 - y^[1, 0]"
    assert len(checks) == 1
    assert oracle_quotient(tuple_terms(failing), alpha) is None


def test_accumulator_subtracts_an_equal_polynomial_held_wider():
    p = one_minus_monomial((1, -2)) * monomial((-3, 0), 5)
    wide = (p * monomial((2**40, 0))) * monomial((-(2**40), 0))
    assert wide._layout.width > p._layout.width and wide == p
    for start, equal in ((p, wide), (wide, p)):
        acc = _Accumulator(start)
        acc.subtract(equal)
        assert acc.term_count() == 0 and acc.value().is_zero()


def test_accumulator_subtracts_an_unequal_polynomial():
    a = one_minus_monomial((1, -2)) * monomial((-3, 0), 5)
    for b in (a + monomial((0, 1)), a * monomial((2**20, 0)), -a, one(2)):
        acc = _Accumulator(a)
        acc.subtract(b)
        assert acc.value() == a - b


@st.composite
def held_at(draw, m, width):
    """A polynomial whose bound puts it in the `width`-bit layout: terms at
    ±offset, where the largest |entry| of offset is drawn near either end of
    that layout's range, and a few terms near 0."""
    low, high = (1, 2**15 - 1) if width == 16 else (2 ** (width // 2 - 1), 2 ** (width - 1) - 1)
    top = draw(st.one_of(st.integers(low, low + 2), st.integers(high - 2, high), st.integers(low, high)))
    j = draw(st.integers(0, m - 1))
    offset = [draw(st.integers(-top, top)) for _ in range(m)]
    offset[j] = draw(st.sampled_from((top, -top)))
    coefficient = st.integers(-4, 4).filter(bool)
    terms = {tuple(offset): draw(coefficient), tuple(-x for x in offset): draw(coefficient)}
    for _ in range(draw(st.integers(0, 3))):
        terms[draw(st.tuples(*[st.integers(-2, 2)] * m))] = draw(coefficient)
    return LaurentPolynomial(m, terms)


@pytest.mark.parametrize("widths", list(permutations((16, 32, 64))))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accumulator_lays_out_three_operands_of_every_width(widths, data):
    """acc += sign·h·b and acc -= p with the accumulator, h and b held at 16,
    32 and 64 bits in each order; a product whose bound reaches the widest
    operand's bias must move to a wider layout."""
    m = data.draw(st.integers(1, 3))
    start, h, b = (data.draw(held_at(m, width)) for width in widths)
    assert [p._layout.width for p in (start, h, b)] == list(widths)
    S, H, B = map(tuple_terms, (start, h, b))
    sign = data.draw(st.sampled_from((1, -1)))
    acc = _Accumulator(start)
    acc.add_product(h, b, sign)
    expected = oracle.add(S, oracle.mul(H, B), sign)
    assert tuple_terms(acc.value()) == expected
    acc.subtract(h)
    assert tuple_terms(acc.value()) == oracle.add(expected, H, -1)
    acc = _Accumulator(start)
    acc.subtract(h)
    acc.subtract(b)
    assert tuple_terms(acc.value()) == oracle.add(oracle.add(S, H, -1), B, -1)
