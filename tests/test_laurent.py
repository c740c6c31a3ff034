import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kquadric.laurent as laurent
from kquadric.gkm import integer_multiple_of
from kquadric.laurent import (
    LaurentPolynomial,
    NonDivisibleError,
    ParseError,
    div_exact_binomial,
    div_exact_product,
    divisible_by_binomial,
    from_json_dict,
    monomial,
    one,
    one_minus_monomial,
    to_json_dict,
    zero,
)


def rand_poly(rng, m, max_terms=4, exp_bound=3, coef_bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(m))
        c = rng.randint(-coef_bound, coef_bound)
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(m, terms)


def brute_force_divisible(g, alpha):
    """Oracle: full leading-term elimination by scanning for the maximum."""
    terms = dict(g.items())
    if not terms:
        return True

    def lam(e):
        return sum(a * x for a, x in zip(alpha, e))

    bound = min(map(lam, terms)) - sum(a * a for a in alpha)
    while terms:
        e = max(terms, key=lambda t: (lam(t), t))
        if lam(e) < bound:
            return False
        c = terms.pop(e)
        d = tuple(x - a for x, a in zip(e, alpha))
        v = terms.get(d, 0) + c
        if v:
            terms[d] = v
        elif d in terms:
            del terms[d]
    return True


# -- construction and canonical form ------------------------------------------


def test_monomial_of_zero_exponent_is_one():
    assert monomial((0, 0, 0)) == one(3)


def test_monomial_single_negative_exponent():
    # The value of the monomial class at vertex 1 evaluated at vertex 2 (n = 2).
    p = monomial((-1, 0, 0))
    assert p.items() == [((-1, 0, 0), 1)]


def test_monomial_product_of_characters():
    # f(4) * f(1)^-1 for n = 1: weights x_1 and -x_2 exponentiate and divide to y_1*y_2.
    f4 = monomial((1, 0))
    f1_inverse = monomial((0, 1))
    assert f4 * f1_inverse == monomial((1, 1))


def test_zero_coefficients_are_dropped():
    p = LaurentPolynomial(2, {(0, 0): 1, (1, 0): 0})
    assert p.items() == [((0, 0), 1)]
    assert (p - p).is_zero()


def test_duplicate_exponents_merge():
    p = LaurentPolynomial(2, [((1, 0), 2), ((1, 0), 3)])
    assert p.items() == [((1, 0), 5)]


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        one(2) + one(3)
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(1, 2, 3): 1})


def test_bool_is_not_a_variable_count():
    # A bool m would be written as "m": true, which from_json_dict refuses.
    with pytest.raises(ValueError, match="variable count must be a positive int, got True"):
        LaurentPolynomial(True, {(1,): 2})


# -- ring operations -----------------------------------------------------------


def test_add_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng, 3)
        assert p + zero(3) == p


def test_add_cancellation():
    y1_inv = monomial((-1, 0))
    assert (one(2) - y1_inv) + y1_inv == one(2)


def test_add_term_merge():
    a = one(2) - monomial((0, -1))
    b = one(2) - monomial((-1, 0))
    expected = LaurentPolynomial(2, {(0, 0): 2, (-1, 0): -1, (0, -1): -1})
    assert a + b == expected


def test_mul_identity():
    rng = random.Random(2)
    for _ in range(20):
        p = rand_poly(rng, 2)
        assert p * one(2) == p


def test_mul_thom_factor_expansion():
    # (1 - y1^-1)(1 - y2*y1^-1) expands to 1 - y1^-1 - y2*y1^-1 + y2*y1^-2.
    product = one_minus_monomial((-1, 0, 0)) * one_minus_monomial((-1, 1, 0))
    expected = LaurentPolynomial(
        3, {(0, 0, 0): 1, (-1, 0, 0): -1, (-1, 1, 0): -1, (-2, 1, 0): 1}
    )
    assert product == expected


def test_mul_difference_of_squares():
    alpha = (2, -1)
    assert one_minus_monomial(alpha) * (one(2) + monomial(alpha)) == one_minus_monomial(
        (4, -2)
    )


def test_ring_axioms_on_random_triples():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rand_poly(rng, 3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_no_zero_coefficients_after_operations():
    rng = random.Random(12)
    for _ in range(40):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        for result in (a + b, a - b, a * b, a * 0, a - a):
            assert all(c != 0 for _, c in result.items())


def test_int_coercion():
    p = monomial((1, 1))
    assert 1 - p == one(2) - p
    assert 3 * p == p + p + p


# -- divisibility ----------------------------------------------------------------


def test_zero_divisible_by_anything():
    assert divisible_by_binomial(zero(2), (5, -3))


def test_divisible_with_sign_flip():
    # 1 - y2^-1 = -y2^-1 * (1 - y2), so it is divisible by 1 - y^(0,1).
    g = one(2) - monomial((0, -1))
    assert divisible_by_binomial(g, (0, 1))


def test_not_divisible_across_cosets():
    g = one(2) - monomial((1, 0))
    assert not divisible_by_binomial(g, (0, 1))


def test_invalid_divisor_rejected():
    with pytest.raises(ValueError):
        divisible_by_binomial(one(2), (0, 0))
    with pytest.raises(ValueError):
        div_exact_binomial(one(2), (0, 0))


def test_multiples_are_divisible():
    rng = random.Random(4)
    for _ in range(40):
        g = rand_poly(rng, 3)
        alpha = (0, 0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-2, 2) for _ in range(3))
        assert divisible_by_binomial(g * one_minus_monomial(alpha), alpha)


def test_divisibility_agrees_with_elimination_oracle():
    rng = random.Random(5)
    for _ in range(150):
        g = rand_poly(rng, 2, max_terms=3, exp_bound=2, coef_bound=3)
        alpha = (0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-2, 2) for _ in range(2))
        assert divisible_by_binomial(g, alpha) == brute_force_divisible(g, alpha)


# -- exact division ---------------------------------------------------------------


def test_divide_binomial_by_itself():
    alpha = (1, -1, 2)
    assert div_exact_binomial(one_minus_monomial(alpha), alpha) == one(3)


def test_divide_shifted_binomial():
    g = monomial((0, 1)) * one_minus_monomial((1, 0))
    assert div_exact_binomial(g, (1, 0)) == monomial((0, 1))


def test_divide_sign_flipped_binomial():
    g = one(2) - monomial((0, -1))
    q = div_exact_binomial(g, (0, 1))
    assert q == monomial((0, -1), -1)
    assert one_minus_monomial((0, 1)) * q == g


def test_divide_multiply_back_round_trip():
    rng = random.Random(6)
    for _ in range(60):
        g = rand_poly(rng, 3)
        alpha = (0, 0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-2, 2) for _ in range(3))
        product = g * one_minus_monomial(alpha)
        assert one_minus_monomial(alpha) * div_exact_binomial(product, alpha) == product


def test_divide_non_divisible_raises():
    with pytest.raises(NonDivisibleError):
        div_exact_binomial(one(2), (1, 0))
    # The message names alpha and the term count, not every term of the dividend.
    with pytest.raises(NonDivisibleError, match=r"^a polynomial of 2 terms is not divisible by 1 - y\^\[0, 1\]$"):
        div_exact_binomial(one(2) - monomial((1, 0)), (0, 1))


def test_divide_by_product_of_own_factors():
    alphas = [(1, 0, 0), (0, 1, 0), (1, 1, -1)]
    g = one(3)
    for a in alphas:
        g = g * one_minus_monomial(a)
    assert div_exact_product(g, alphas) == one(3)


def test_divide_zero_by_product():
    assert div_exact_product(zero(2), [(1, 0), (0, 1)]) == zero(2)


def test_divide_thom_value_by_its_factors():
    # (1 - y1^-1)(1 - y2*y1^-1) divided by both its binomial factors is 1;
    # note 1 - y^alpha with alpha = (-1,0,0) *is* 1 - y1^-1.
    g = one_minus_monomial((-1, 0, 0)) * one_minus_monomial((-1, 1, 0))
    assert div_exact_product(g, [(-1, 0, 0), (-1, 1, 0)]) == one(3)


def test_divide_product_order_independent():
    rng = random.Random(7)
    alphas = [(1, 0), (0, 1), (1, -1)]
    for _ in range(20):
        g = rand_poly(rng, 2, max_terms=3)
        product = g
        for a in alphas:
            product = product * one_minus_monomial(a)
        q1 = div_exact_product(product, alphas)
        q2 = div_exact_product(product, list(reversed(alphas)))
        assert q1 == q2 == g


def test_divide_product_failure_names_factor():
    g = one_minus_monomial((1, 0)) * (one(2) + monomial((0, 1)))
    with pytest.raises(NonDivisibleError) as err:
        div_exact_product(g, [(1, 0), (0, 1)])
    assert err.value.factor_index == 1


def test_divide_product_checks_each_alpha_once(monkeypatch):
    checked, divided = [], []
    check, divide = laurent._checked_alpha, laurent.div_exact_binomial
    monkeypatch.setattr(laurent, "_checked_alpha", lambda alpha, m: checked.append(alpha) or check(alpha, m))
    monkeypatch.setattr(laurent, "div_exact_binomial", lambda g, alpha: divided.append(alpha) or divide(g, alpha))
    alphas = [(1, 0, 0), (0, 1, 0), (1, 1, -1)]
    g = one_minus_monomial(alphas[0]) * one_minus_monomial(alphas[1]) * one_minus_monomial(alphas[2])
    assert div_exact_product(g, alphas) == one(3)
    assert checked == divided == alphas  # one check per alpha, each division through the module
    monkeypatch.undo()
    # Every alpha is still checked before any division, with the messages of div_exact_binomial.
    for bad, message in [((0, 0, 0), "nonzero vector"), ((1, 0), "has length 2, expected 3"), ((1.0, 0, 0), "ints")]:
        with pytest.raises(ValueError, match=message):
            div_exact_product(zero(3), [(1, 0, 0), bad])
        with pytest.raises(ValueError, match=message):
            div_exact_binomial(one(3), bad)


# -- sympy as an independent oracle for div_exact_product ---------------------------


def sympy_expr(sympy, ys, p):
    return sympy.Add(*[c * sympy.Mul(*[y**x for y, x in zip(ys, e)]) for e, c in p.items()])


def sympy_division(sympy, ys, g, alphas):
    """(sympy's quotient, None) when g / prod(1 - y^alpha) is a Laurent
    polynomial, else (None, the first factor index where it stops being one)."""
    expr = sympy_expr(sympy, ys, g)
    for index, alpha in enumerate(alphas):
        expr = sympy.cancel(expr / (1 - sympy_expr(sympy, ys, monomial(alpha))))
        if len(sympy.Poly(sympy.fraction(expr)[1], *ys).terms()) != 1:
            return None, index
    return expr, None


def random_alphas(rng, m, count):
    alphas = []
    while len(alphas) < count:
        alpha = tuple(rng.randint(-2, 2) for _ in range(m))
        if any(alpha):
            alphas.append(alpha)
    return alphas


@pytest.mark.parametrize("m", [2, 3])
def test_divisible_products_give_sympys_quotient(m):
    sympy = pytest.importorskip("sympy")
    ys = sympy.symbols(f"y1:{m + 1}")
    rng = random.Random(m)
    for _ in range(15):
        alphas = random_alphas(rng, m, rng.randint(1, 3))
        g = rand_poly(rng, m)
        for alpha in alphas:
            g = g * one_minus_monomial(alpha)
        expected, failed_at = sympy_division(sympy, ys, g, alphas)
        assert failed_at is None
        q = div_exact_product(g, alphas)
        assert sympy.expand(expected - sympy_expr(sympy, ys, q)) == 0


def test_non_divisible_products_name_sympys_factor_index():
    sympy = pytest.importorskip("sympy")
    ys = sympy.symbols("y1:3")
    rng = random.Random(5)
    indices = []
    for _ in range(25):
        alphas = random_alphas(rng, 2, 3)
        g = rand_poly(rng, 2) + monomial((0, 0))
        for alpha in alphas[: rng.randint(0, 2)]:
            g = g * one_minus_monomial(alpha)
        expected, failed_at = sympy_division(sympy, ys, g, alphas)
        if failed_at is None:
            assert sympy.expand(expected - sympy_expr(sympy, ys, div_exact_product(g, alphas))) == 0
            continue
        with pytest.raises(NonDivisibleError) as err:
            div_exact_product(g, alphas)
        assert err.value.factor_index == failed_at
        indices.append(failed_at)
    assert {1, 2} <= set(indices)


def test_division_success_iff_divisible():
    # The coset test and the elimination algorithm must agree on every input:
    # division succeeds exactly when divisibility holds, and then multiplies back.
    rng = random.Random(14)
    agree = 0
    for _ in range(300):
        g = rand_poly(rng, 3, max_terms=5, exp_bound=2, coef_bound=4)
        alpha = (0, 0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-2, 2) for _ in range(3))
        divisible = divisible_by_binomial(g, alpha)
        try:
            q = div_exact_binomial(g, alpha)
        except NonDivisibleError:
            assert not divisible
        else:
            assert divisible
            assert one_minus_monomial(alpha) * q == g
            agree += 1
    assert agree > 0  # some random inputs do divide (e.g. the zero polynomial)


# -- cosets of Z*alpha -----------------------------------------------------------
#
# y^e - y^f is divisible by 1 - y^alpha exactly when e - f lies in Z*alpha, so
# these tests state the coset structure through the public division API.


def same_coset(e, f, alpha):
    return divisible_by_binomial(monomial(e) - monomial(f), alpha)


def test_projection_constant_on_cosets():
    rng = random.Random(8)
    for _ in range(50):
        alpha = (0, 0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-3, 3) for _ in range(3))
        e = tuple(rng.randint(-5, 5) for _ in range(3))
        k = rng.randint(-4, 4)
        shifted = tuple(x + k * a for x, a in zip(e, alpha))
        assert same_coset(e, shifted, alpha)


def test_projection_separates_non_cosets():
    assert not same_coset((0, 0), (0, 1), (1, 0))
    assert same_coset((0, 0), (7, 0), (1, 0))


def test_projection_equality_iff_coset_membership():
    rng = random.Random(13)
    for _ in range(200):
        alpha = (0, 0, 0)
        while not any(alpha):
            alpha = tuple(rng.randint(-2, 2) for _ in range(3))
        e = tuple(rng.randint(-3, 3) for _ in range(3))
        f = tuple(rng.randint(-3, 3) for _ in range(3))
        diff = tuple(a - b for a, b in zip(e, f))
        in_line = integer_multiple_of(diff, alpha) is not None
        assert same_coset(e, f, alpha) == in_line


def test_projection_torsion_for_non_primitive_alpha():
    # (1,1) - (0,0) lies in Q*(2,2) but not Z*(2,2): different cosets.
    assert same_coset((1, 1), (0, 0), (1, 1))
    assert not same_coset((1, 1), (0, 0), (2, 2))
    assert same_coset((1, 1), (-1, -1), (2, 2))
    assert same_coset((0, 0), (2, 2), (2, 2))


def test_divisibility_with_non_primitive_alpha():
    alpha = (2, 2)
    g = one_minus_monomial(alpha)
    assert divisible_by_binomial(g, alpha)
    assert not divisible_by_binomial(one_minus_monomial((1, 1)), alpha)
    assert div_exact_binomial(g, alpha) == one(2)


BIG = 10**12


@st.composite
def labelled_division_cases(draw):
    """(alpha, q, e, c), labelled by construction: (1 - y^alpha) * q divides
    back to q, and adding c * y^e with c != 0 makes it indivisible."""
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    vector = st.tuples(*[entry] * m)
    scale = draw(st.integers(1, 3))  # alpha is non-primitive whenever scale > 1
    alpha = tuple(scale * a for a in draw(vector.filter(any)))
    q = LaurentPolynomial(m, draw(st.dictionaries(vector, st.integers(-5, 5), max_size=6)))
    e = draw(vector)
    c = draw(st.integers(-5, 5).filter(bool))
    return alpha, q, e, c


@settings(max_examples=300, deadline=None)
@given(labelled_division_cases())
# Non-primitive alpha and negative alpha·e.
@example(((2, 2), LaurentPolynomial(2, {(-BIG, 3): 4, (5, -7): -1}), (-BIG, -1), 3))
# Exponents past 2**53, where a floating-point floor would split a coset.
@example(((1, 0), monomial((10**20 + 1, 0)), (0, 1), 1))
def test_division_of_constructed_multiples(case):
    alpha, q, e, c = case
    g = one_minus_monomial(alpha) * q
    assert divisible_by_binomial(g, alpha)
    assert div_exact_binomial(g, alpha) == q
    h = g + monomial(e, c)
    assert not divisible_by_binomial(h, alpha)
    with pytest.raises(NonDivisibleError):
        div_exact_binomial(h, alpha)


# -- serialization ---------------------------------------------------------------


def emit(p):
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def parse(text):
    return from_json_dict(json.loads(text))


def test_emit_one():
    assert emit(one(3)) == '{"m":3,"terms":[{"exp":[0,0,0],"coef":"1"}]}'


def test_emit_sorted_and_deterministic():
    p = LaurentPolynomial(2, {(1, 0): 2, (-1, 3): -7, (0, 0): 1})
    assert emit(p) == emit(parse(emit(p)))
    exps = [t["exp"] for t in to_json_dict(p)["terms"]]
    assert exps == sorted(exps)


def test_parse_emit_round_trip_random():
    rng = random.Random(9)
    for _ in range(50):
        p = rand_poly(rng, 3)
        assert parse(emit(p)) == p


def test_parse_rejects_zero_coefficient():
    with pytest.raises(ParseError, match="zero coefficient"):
        from_json_dict({"m": 2, "terms": [{"exp": [0, 0], "coef": "0"}]})


def test_parse_rejects_wrong_length():
    with pytest.raises(ParseError, match="exp"):
        from_json_dict({"m": 2, "terms": [{"exp": [0, 0, 0], "coef": "1"}]})


def test_parse_rejects_duplicate_exponent():
    with pytest.raises(ParseError, match="duplicate"):
        from_json_dict(
            {"m": 1, "terms": [{"exp": [2], "coef": "1"}, {"exp": [2], "coef": "3"}]}
        )


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        from_json_dict({"m": 2})
    with pytest.raises(ParseError):
        from_json_dict({"m": 2, "terms": [{"exp": [0, 0], "coef": 1}]})
    with pytest.raises(ParseError):
        from_json_dict({"m": 0, "terms": []})


@pytest.mark.parametrize("coef", ["1_0", " 7", "+3", "\u0663"])
def test_parse_rejects_non_canonical_coefficient_strings(coef):
    # int() reads each of these (the last is ARABIC-INDIC DIGIT THREE), but
    # only the canonical decimal string of a value is a valid coefficient.
    int(coef)
    with pytest.raises(ParseError, match="canonical decimal form"):
        from_json_dict({"m": 1, "terms": [{"exp": [0], "coef": coef}]})


def test_emitted_document_is_valid_json():
    doc = json.loads(emit(one(2) - monomial((1, -1))))
    assert set(doc) == {"m", "terms"}
