"""Exact arithmetic in the integer Laurent polynomial ring Z[y_1^±1, ..., y_m^±1].

A polynomial is a finite map from exponent vectors (length-m tuples of ints,
negative entries allowed) to nonzero integer coefficients.  Canonical form
means no zero coefficient is ever stored, exponent keys are unique, and all
public iteration is in lexicographic exponent order.  Instances are immutable:
every operation returns a new polynomial, so values can be shared freely
between threads or tasks.

Besides the ring operations the module provides the two division primitives
everything downstream is built on:

* ``divisible_by_binomial(g, alpha)`` decides g ∈ (1 - y^alpha)·R exactly
  (the quotient by the binomial ideal is the group ring of Z^m / Z·alpha, so
  g is in the ideal iff its coefficients sum to zero over every coset);
* ``div_exact_binomial(g, alpha)`` produces the exact quotient, which along
  each coset is the running sum of g's coefficients.

Both rest on one pass that buckets the terms of g by coset of Z·alpha: the
coset of e is keyed by e - t·alpha with t = ⌊alpha·e / alpha·alpha⌋, one
integer floor division per term, which is also right for non-primitive alpha.
"""
from __future__ import annotations

import json
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


class NonDivisibleError(ArithmeticError):
    """Exact division by 1 - y^alpha (or a product of such binomials) failed.

    ``factor_index`` identifies the failing factor when dividing by a product.
    """

    def __init__(self, message: str, factor_index: int | None = None):
        super().__init__(message)
        self.factor_index = factor_index


class ParseError(ValueError):
    """A serialized polynomial document violates the schema or canonical form."""


def _check_exponent(e, m: int | None = None) -> Exponent:
    e = tuple(e)
    if not all(type(x) is int for x in e):
        raise ValueError(f"exponent vector must consist of ints, got {e!r}")
    if m is not None and len(e) != m:
        raise ValueError(f"exponent vector {e!r} has length {len(e)}, expected {m}")
    return e


class LaurentPolynomial:
    """An element of Z[y_1^±1, ..., y_m^±1] in canonical form.

    Supports +, -, * (with ints and with other polynomials of the same m) and
    ** (negative powers only for single-term units).  Equality is structural
    equality of canonical forms.
    """

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping[Exponent, int] | Iterable[tuple[Exponent, int]] = ()):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"variable count must be a positive int, got {m!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[Exponent, int] = {}
        for e, c in items:
            e = _check_exponent(e, m)
            if not isinstance(c, int):
                raise ValueError(f"coefficient for {e!r} must be an int, got {c!r}")
            c = collected.get(e, 0) + c
            if c:
                collected[e] = c
            elif e in collected:
                del collected[e]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", collected)

    @classmethod
    def _raw(cls, m: int, terms: dict[Exponent, int]) -> "LaurentPolynomial":
        # Internal fast path: `terms` must already be canonical (no zeros).
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- inspection ---------------------------------------------------------

    def items(self) -> list[tuple[Exponent, int]]:
        """Terms as (exponent, coefficient) pairs in lexicographic order."""
        return sorted(self._terms.items())

    def support(self) -> list[Exponent]:
        return sorted(self._terms)

    def coefficient(self, e) -> int:
        return self._terms.get(_check_exponent(e, self.m), 0)

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * self.m: 1}

    def is_monomial(self) -> bool:
        """True iff the polynomial has exactly one term with coefficient ±1."""
        return len(self._terms) == 1 and next(iter(self._terms.values())) in (1, -1)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == constant(self.m, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    __hash__ = None  # mutable-looking API keeps these out of sets/dict keys

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return constant(self.m, other)
        if isinstance(other, LaurentPolynomial):
            if other.m != self.m:
                raise ValueError(f"cannot combine polynomials in {self.m} and {other.m} variables")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        result = dict(self._terms)
        get = result.get
        for e, c in other._terms.items():
            v = get(e, 0) + c
            if v:
                result[e] = v
            elif e in result:
                del result[e]
        return LaurentPolynomial._raw(self.m, result)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._raw(self.m, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial._raw(self.m, {})
            return LaurentPolynomial._raw(self.m, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        result: dict[Exponent, int] = {}
        get = result.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                v = get(key, 0) + c1 * c2
                if v:
                    result[key] = v
                elif key in result:
                    del result[key]
        return LaurentPolynomial._raw(self.m, result)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not self.is_monomial():
                raise ValueError("negative powers exist only for single-term units")
            (e, c), = self._terms.items()
            inverse = LaurentPolynomial._raw(self.m, {tuple(-x for x in e): c})
            return inverse ** (-k)
        result = one(self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.items():
            factors = [f"y{i + 1}" if p == 1 else f"y{i + 1}^{p}" for i, p in enumerate(e) if p]
            body = "*".join(factors)
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}*{body}"
            sign = " - " if c < 0 else " + "
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == " - " else "") + first_term
        for sign, term in parts[1:]:
            text += sign + term
        return text

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.m}, {dict(self.items())!r})"


# -- constructors -----------------------------------------------------------


def zero(m: int) -> LaurentPolynomial:
    return LaurentPolynomial(m)


def one(m: int) -> LaurentPolynomial:
    return constant(m, 1)


def constant(m: int, c: int) -> LaurentPolynomial:
    if not isinstance(c, int):
        raise ValueError(f"constant coefficient must be an int, got {c!r}")
    return LaurentPolynomial(m, {(0,) * m: c} if c else {})


def monomial(e: Iterable[int], coefficient: int = 1) -> LaurentPolynomial:
    """The single-term polynomial coefficient * y^e (m is the length of e)."""
    e = _check_exponent(e)
    if not e:
        raise ValueError("exponent vector must have positive length")
    return LaurentPolynomial(len(e), {e: coefficient} if coefficient else {})


def one_minus_monomial(alpha: Iterable[int]) -> LaurentPolynomial:
    """The binomial 1 - y^alpha."""
    alpha = _check_exponent(alpha)
    return one(len(alpha)) - monomial(alpha)


# -- divisibility and exact division ------------------------------------------


def _checked_alpha(alpha, m: int) -> Exponent:
    alpha = _check_exponent(alpha, m)
    if not any(alpha):
        raise ValueError("invalid divisor: alpha must be a nonzero vector")
    return alpha


def _coset_buckets(g: LaurentPolynomial, alpha: Exponent) -> dict[Exponent, list[tuple[int, int]]]:
    """The terms of g grouped by coset of Z·alpha, as lists of (t, coefficient).

    The key of e is the representative e - t·alpha with t = ⌊alpha·e / alpha·alpha⌋.
    Adding alpha to e adds exactly 1 to t, so two exponents share a key iff
    their difference lies in Z·alpha; this holds for non-primitive alpha too.
    """
    norm = sum(a * a for a in alpha)
    buckets: dict[Exponent, list[tuple[int, int]]] = {}
    for e, c in g._terms.items():
        t = sum(a * x for a, x in zip(alpha, e)) // norm
        rep = tuple([x - t * a for x, a in zip(e, alpha)]) if t else e
        buckets.setdefault(rep, []).append((t, c))
    return buckets


def _all_cancel(buckets: dict[Exponent, list[tuple[int, int]]]) -> bool:
    return not any(sum(c for _, c in bucket) for bucket in buckets.values())


def divisible_by_binomial(g: LaurentPolynomial, alpha: Iterable[int]) -> bool:
    """True iff g lies in the ideal (1 - y^alpha).

    Coefficients are bucketed by coset of Z·alpha; g is divisible iff every
    bucket sums to zero.  This is exact: modulo y^alpha - 1 the ring is the
    group ring of Z^m / Z·alpha.
    """
    alpha = _checked_alpha(alpha, g.m)
    return _all_cancel(_coset_buckets(g, alpha))


def div_exact_binomial(g: LaurentPolynomial, alpha: Iterable[int]) -> LaurentPolynomial:
    """The exact quotient q with (1 - y^alpha) * q == g.

    Within one coset bucket, the coefficient of g at rep + t·alpha is
    q(t) - q(t - 1), so q at rep + s·alpha is the sum of the bucket's
    coefficients over t <= s; it is nonzero only for s from the bucket's least
    t up to, not including, its greatest.  Raises NonDivisibleError, before
    any quotient term is built, when some bucket does not sum to zero.
    """
    alpha = _checked_alpha(alpha, g.m)
    buckets = _coset_buckets(g, alpha)
    if not _all_cancel(buckets):
        raise NonDivisibleError(f"{g} is not divisible by 1 - y^{list(alpha)}")
    quotient: dict[Exponent, int] = {}
    for rep, bucket in buckets.items():
        bucket.sort()
        running = 0
        for (t, c), (t_next, _) in zip(bucket, bucket[1:]):
            running += c
            if running:
                for s in range(t, t_next):
                    quotient[tuple([x + s * a for x, a in zip(rep, alpha)])] = running
    return LaurentPolynomial._raw(g.m, quotient)


def div_exact_product(g: LaurentPolynomial, alphas: Iterable[Iterable[int]]) -> LaurentPolynomial:
    """Divide g exactly by the product of binomials 1 - y^alpha_i, in order.

    The result does not depend on the order (the ring is a domain).  On
    failure the raised NonDivisibleError carries the index of the first factor
    for which division broke down.
    """
    alphas = [_checked_alpha(a, g.m) for a in alphas]
    result = g
    for index, alpha in enumerate(alphas):
        if result.is_zero():
            return zero(g.m)
        try:
            result = div_exact_binomial(result, alpha)
        except NonDivisibleError as exc:
            raise NonDivisibleError(
                f"division by binomial factor {index} (alpha={list(alpha)}) failed",
                factor_index=index,
            ) from exc
    return result


# -- serialization ------------------------------------------------------------


def to_json_dict(p: LaurentPolynomial) -> dict:
    """Schema: {"m": int, "terms": [{"exp": [int x m], "coef": decimal-string}]}.

    Terms are sorted lexicographically by exponent; zero coefficients never occur.
    """
    return {
        "m": p.m,
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in p.items()],
    }


def from_json_dict(doc) -> LaurentPolynomial:
    if not isinstance(doc, dict) or set(doc) != {"m", "terms"}:
        raise ParseError("polynomial document must be an object with exactly the keys 'm' and 'terms'")
    m = doc["m"]
    if type(m) is not int or m < 1:
        raise ParseError(f"'m' must be a positive integer, got {m!r}")
    if not isinstance(doc["terms"], list):
        raise ParseError("'terms' must be a list")
    terms: dict[Exponent, int] = {}
    for k, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict) or set(entry) != {"exp", "coef"}:
            raise ParseError(f"term {k} must be an object with exactly the keys 'exp' and 'coef'")
        exp = entry["exp"]
        if not isinstance(exp, list) or len(exp) != m or not all(type(x) is int for x in exp):
            raise ParseError(f"term {k}: 'exp' must be a list of {m} ints, got {exp!r}")
        coef = entry["coef"]
        if not isinstance(coef, str):
            raise ParseError(f"term {k}: 'coef' must be a decimal string, got {coef!r}")
        try:
            value = int(coef)
        except ValueError:
            raise ParseError(f"term {k}: 'coef' is not a decimal integer: {coef!r}") from None
        if value == 0:
            raise ParseError(f"term {k} ({exp!r}): zero coefficient violates canonical form")
        key = tuple(exp)
        if key in terms:
            raise ParseError(f"term {k} ({exp!r}): duplicate exponent key")
        terms[key] = value
    return LaurentPolynomial._raw(m, terms)


def emit(p: LaurentPolynomial) -> str:
    """Deterministic compact JSON text for p (sorted terms, decimal-string coefficients)."""
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def parse(text: str) -> LaurentPolynomial:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    return from_json_dict(doc)
