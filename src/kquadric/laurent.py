"""Exact arithmetic in the integer Laurent polynomial ring Z[y_1^±1, ..., y_m^±1].

A polynomial is a finite map from exponent vectors (length-m tuples of ints,
negative entries allowed) to nonzero integer coefficients.  Canonical form
means no zero coefficient is ever stored, exponent keys are unique, and all
public iteration is in lexicographic exponent order.  Instances are immutable:
every operation returns a new polynomial, so values can be shared freely
between threads or tasks.

Packed exponents.  Internally every exponent vector is one Python int (a
Kronecker substitution): coordinate i sits in a field of `width` bits, with
coordinate 0 in the most significant field, and every field holds e_i + bias
with bias = 2^(width-1).  So the zero vector packs to the sum of the biases,
a product key is k1 + k2 - zero, shifting by alpha adds the signed packing
Σ alpha_i·2^(shift_i), and sorting packed ints sorts exponents
lexicographically.  The public API (constructor, `items`, `support`, str,
JSON documents) takes and returns tuples only.

Exactness for any exponent size.  Each polynomial carries `_bound`, an upper
bound on |e_i| over all its terms, and keeps _bound < bias, so every field is
in range and packing is a bijection.  A sum's bound is the larger operand
bound, a product's the sum of the operand bounds.  One rule, `_common_layout`,
lays out every operation on two operands: the wider of their layouts, or one
wide enough for the result bound when that reaches the wider one's bias.
Layouts widen from these tracked bounds only, never by re-measuring an
operand.  Widths run 16, 32, 64, ... bits, an operation between two widths
repacks the narrower operand, and `==` compares across widths.

In-place sums.  The private `_Accumulator` is a mutable running sum for
`decompose`'s residuals: `subtract` merges a polynomial straight into its
dict, widening by the same rule, and `value()` returns a polynomial over a
copy of the terms, so no polynomial ever aliases an accumulator.
`recompose` sums each vertex in Horner form with `_horner_sum`, in one dict
laid out once: each step multiplies the running sum by a binomial in place
of the pair loop, by the shift-and-merge below, and then adds each product
h·c with the pair loop `__mul__` runs (c is mostly 1 or one binomial, so
that is one or two steps per term of h).

Products by a binomial.  Most products the package builds multiply by one
binomial 1 - y^alpha: peeling, the Thom memo's chains, `canonical_basis`'s
running product and `decompose`'s cofactors.  `__mul__` sends an operand
whose terms are exactly {zero: 1, zero + P(alpha): -1} to the private
`_times_binomial(p, b)`, which copies p's terms and merges in p's keys
shifted by P(alpha) with negated coefficients (`_subtract_shifted`, the
merge `_horner_sum` shares): one Python step per term of p, where the pair
loop takes two.  Its layout and bound are the pair loop's.
Called with a key table (the Thom memo's), it takes each shifted key from the
table as it makes it, so values built through one table from values already
keyed by it hold one int object per distinct key, with no second pass.

Besides the ring operations the module provides the two division primitives
everything downstream is built on:

* ``divisible_by_binomial(g, alpha)`` decides g ∈ (1 - y^alpha)·R exactly
  (the quotient by the binomial ideal is the group ring of Z^m / Z·alpha, so
  g is in the ideal iff its coefficients sum to zero over every coset);
* ``div_exact_binomial(g, alpha)`` produces the exact quotient, which along
  each coset is the running sum of g's coefficients.

The line sums are one routine, ``_difference_divisible(a, b, alpha)``: it
adds a's coefficients and subtracts b's along each coset line e + Z·alpha,
so it decides a - b ∈ (1 - y^alpha) without building a - b.
``divisible_by_binomial`` is its checked public wrapper for one g, and
``gkm.is_k_class`` calls it on the two end values of each edge.  A line is
keyed by the representative e - t·alpha with t = ⌊e_j / alpha_j⌋ for the
first coordinate j of largest |alpha_j|, which is also right for
non-primitive alpha.  On packed keys that is one field read, one floor
division and key - t·P(alpha).  Then |t| <= |e_j|/|alpha_j| + 1, so every
coordinate of the representative satisfies |e_i - t·alpha_i| <= 2·bound +
max|alpha|, for the larger operand bound; the pass widens by the same rule.
The constants of alpha in one layout (max|alpha|, the field of j, alpha_j
and P(alpha)) are computed once per (alpha, layout) by the cached
``_line``, which ``div_exact_binomial`` reads too.

``div_exact_binomial`` fills the quotient in one walk over g's keys in
sorted order, laid out for bound + max|alpha|, in which every line is met
in increasing t.  On a divisible g every fill ends at the next term of g on
its line, so quotient exponents stay within g's bound.  Only a fill that
runs min(len(g), the fields' headroom) steps without meeting one runs the
line sums, once per call, and so does any fill once the quotient holds more
than 2·len(g) terms; the division of a divisible g with neither never sums
its lines.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import lshift
from typing import Iterable, Mapping

Exponent = tuple[int, ...]

BASE_WIDTH = 16  # bits per exponent field; wider layouts double it


class NonDivisibleError(ArithmeticError):
    """Exact division by 1 - y^alpha (or a product of such binomials) failed.

    ``factor_index`` identifies the failing factor when dividing by a product.
    """

    def __init__(self, message: str, factor_index: int | None = None):
        super().__init__(message)
        self.factor_index = factor_index


class ParseError(ValueError):
    """A serialized polynomial document violates the schema or canonical form."""


def _quoted(value) -> str:
    """repr(value), cut to its first 60 characters and "..." when longer, so a
    ParseError that echoes input stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _check_exponent(e, m: int | None = None) -> Exponent:
    e = tuple(e)
    if not {*map(type, e)} <= {int}:
        raise ValueError(f"exponent vector must consist of ints, got {e!r}")
    if m is not None and len(e) != m:
        raise ValueError(f"exponent vector {e!r} has length {len(e)}, expected {m}")
    return e


class _Layout:
    """How length-m exponent vectors with |e_i| < bias pack into one int."""

    __slots__ = ("width", "bias", "mask", "shifts", "zero")

    def __init__(self, m: int, width: int):
        self.width = width
        self.bias = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.shifts = tuple(width * (m - 1 - i) for i in range(m))
        self.zero = self.offset((self.bias,) * m)

    def offset(self, e) -> int:
        """The signed packing Σ e_i·2^(shift_i): adding it to a key multiplies by y^e."""
        return sum(map(lshift, e, self.shifts))

    def pack(self, e) -> int:
        return self.zero + self.offset(e)

    def unpack(self, key: int) -> Exponent:
        mask, bias = self.mask, self.bias
        return tuple(((key >> s) & mask) - bias for s in self.shifts)


@lru_cache(maxsize=None)
def _layout(m: int, width: int) -> _Layout:
    return _Layout(m, width)


def _layout_for(m: int, bound: int) -> _Layout:
    """The narrowest layout whose fields hold every |e_i| <= bound."""
    width = BASE_WIDTH
    while bound >= 1 << (width - 1):
        width *= 2
    return _layout(m, width)


def _common_layout(m: int, a: _Layout, b: _Layout, bound: int) -> _Layout:
    """The layout of an operation on operands held in `a` and `b` whose result
    has exponents up to `bound`: the wider of the two, or the narrowest that
    holds `bound` when that reaches the wider one's bias."""
    layout = a if a.width >= b.width else b
    return layout if bound < layout.bias else _layout_for(m, bound)


def _keyed(p, layout: _Layout) -> dict[int, int]:
    """The terms of p (a polynomial or an accumulator) keyed in `layout`,
    whose fields must hold every exponent of p (as they do when it is at
    least as wide as p's)."""
    if p._layout is layout:
        return p._terms
    unpack, pack = p._layout.unpack, layout.pack
    return {pack(unpack(key)): c for key, c in p._terms.items()}


class LaurentPolynomial:
    """An element of Z[y_1^±1, ..., y_m^±1] in canonical form.

    Supports +, -, * (with ints and with other polynomials of the same m).
    Equality is equality of canonical forms.
    """

    __slots__ = ("m", "_terms", "_layout", "_bound")

    def __init__(self, m: int, terms: Mapping[Exponent, int] | Iterable[tuple[Exponent, int]] = ()):
        if type(m) is not int or m < 1:
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
        self._set(m, *_packed(m, collected))

    def _set(self, m: int, terms: dict[int, int], layout: _Layout, bound: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_bound", bound)

    @classmethod
    def _raw(cls, m: int, terms: dict[int, int], layout: _Layout, bound: int) -> "LaurentPolynomial":
        # Internal fast path: `terms` must be canonical (no zeros) packed keys
        # of `layout`, with every |e_i| <= bound < layout.bias.
        self = object.__new__(cls)
        self._set(m, terms, layout, bound)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- inspection ---------------------------------------------------------

    def items(self) -> list[tuple[Exponent, int]]:
        """Terms as (exponent, coefficient) pairs in lexicographic order."""
        unpack = self._layout.unpack
        return [(unpack(key), c) for key, c in sorted(self._terms.items())]

    def support(self) -> list[Exponent]:
        unpack = self._layout.unpack
        return [unpack(key) for key in sorted(self._terms)]

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {self._layout.zero: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == constant(self.m, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.m != other.m or len(self._terms) != len(other._terms):
            return False
        layout = _common_layout(self.m, self._layout, other._layout, 0)
        return _keyed(self, layout) == _keyed(other, layout)

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

    def _add(self, other: "LaurentPolynomial", sign: int) -> "LaurentPolynomial":
        """self + sign * other, copying the larger operand and merging in the smaller."""
        bound = max(self._bound, other._bound)
        layout = _common_layout(self.m, self._layout, other._layout, bound)
        a, b = _keyed(self, layout), _keyed(other, layout)
        if len(a) < len(b):
            a, b = (b if sign == 1 else {key: -c for key, c in b.items()}), a
            sign = 1
        result = dict(a)
        _merge_into(result, b, sign)
        return LaurentPolynomial._raw(self.m, result, layout, bound)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        terms = {key: -c for key, c in self._terms.items()}
        return LaurentPolynomial._raw(self.m, terms, self._layout, self._bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if _is_binomial(other):
            return _times_binomial(self, other)
        if _is_binomial(self):
            return _times_binomial(other, self)
        bound = self._bound + other._bound
        layout = _common_layout(self.m, self._layout, other._layout, bound)
        result: dict[int, int] = {}
        _mul_into(result, _keyed(self, layout), _keyed(other, layout), layout.zero, 1)
        return LaurentPolynomial._raw(self.m, result, layout, bound)

    __rmul__ = __mul__

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


def _merge_into(result: dict[int, int], terms: dict[int, int], sign: int) -> None:
    """result += sign * terms, on packed keys of one layout."""
    get = result.get
    for key, c in terms.items():
        v = get(key, 0) + sign * c
        if v:
            result[key] = v
        else:  # c != 0, so a zero sum means the key was present
            del result[key]


def _mul_into(result: dict[int, int], a: dict[int, int], b: dict[int, int], zero_key: int, sign: int) -> None:
    """result += sign * a * b, on packed keys of one layout whose fields hold
    every exponent of the product; `zero_key` is that layout's packed zero."""
    if len(a) > len(b):
        a, b = b, a
    get = result.get
    for k1, c1 in a.items():
        base = k1 - zero_key
        c1 *= sign
        for k2, c2 in b.items():
            key = base + k2
            v = get(key, 0) + c1 * c2
            if v:
                result[key] = v
            else:  # c1 * c2 != 0, so a zero sum means the key was present
                del result[key]


def _is_binomial(p: LaurentPolynomial) -> bool:
    """True iff p is exactly 1 - y^alpha for some alpha != 0."""
    terms = p._terms
    return len(terms) == 2 and terms.get(p._layout.zero) == 1 and sum(terms.values()) == 0


def _subtract_shifted(result: dict[int, int], terms: dict[int, int], step: int, keys: dict[int, int] | None = None) -> None:
    """result -= y^alpha * terms, on packed keys of one layout whose fields
    hold every shifted exponent that is kept or cancels a kept one; `step` is
    P(alpha) in that layout.  With `keys`, each shifted key is taken from
    that table (a missing one is added)."""
    get = result.get
    share = None if keys is None else keys.setdefault
    for key, c in terms.items():
        key += step
        if share:
            key = share(key, key)
        v = get(key, 0) - c
        if v:
            result[key] = v
        else:  # c != 0, so a zero sum means the key was present
            del result[key]


def _horner_sum(m: int, steps) -> LaurentPolynomial:
    """The sum in Horner form that `steps` gives, laid out once.

    Each step (alpha, products) multiplies the running sum by 1 - y^alpha
    (not when alpha is None or the sum is empty), then adds h * c for each
    (h, b, c) of products by the pair loop.  The steps must add up to
    the expanded sum of every h * b, with every running sum a sum of h
    times b divided by binomials still to be multiplied in.  b is read only
    for the layout, which is the one `_common_layout` gives that expanded
    sum, for the bound max(h._bound + b._bound): each binomial has 0 in its
    Newton polytope, so every exponent kept, and every shifted one that
    cancels a kept one, lies within that bound.
    """
    products = [product for _, step_products in steps for product in step_products]
    bound = max((h._bound + b._bound for h, b, _ in products), default=0)
    width = max([_layout_for(m, bound).width] + [p._layout.width for h, b, _ in products for p in (h, b)])
    layout = _layout(m, width)
    terms: dict[int, int] = {}
    for alpha, step_products in steps:
        if alpha is not None and terms:
            previous, terms = terms, dict(terms)
            _subtract_shifted(terms, previous, layout.offset(alpha))
        for h, _, c in step_products:
            _mul_into(terms, _keyed(h, layout), _keyed(c, layout), layout.zero, 1)
    return LaurentPolynomial._raw(m, terms, layout, bound)


def _times_binomial(p: LaurentPolynomial, b: LaurentPolynomial, keys: dict[int, int] | None = None) -> LaurentPolynomial:
    """p * b for a b that `_is_binomial` accepts (see "Products by a
    binomial" above).  With `keys`, each shifted key is taken from that table
    (a missing one is added)."""
    bound = p._bound + b._bound
    layout = _common_layout(p.m, p._layout, b._layout, bound)
    terms = _keyed(p, layout)
    step = sum(_keyed(b, layout)) - 2 * layout.zero  # b's keys are zero and zero + P(alpha)
    result = dict(terms)
    _subtract_shifted(result, terms, step, keys)
    return LaurentPolynomial._raw(p.m, result, layout, bound)


class _Accumulator:
    """A mutable running sum, starting at p (see "In-place sums" above)."""

    __slots__ = ("m", "_terms", "_layout", "_bound")

    def __init__(self, p: LaurentPolynomial):
        self.m = p.m
        self._terms = dict(p._terms)
        self._layout = p._layout
        self._bound = p._bound

    def _fit(self, other: _Layout, bound: int) -> _Layout:
        """Hold the terms in the common layout of theirs and `other` for a sum
        bounded by `bound`, and return it."""
        layout = _common_layout(self.m, self._layout, other, bound)
        self._terms = _keyed(self, layout)
        self._layout = layout
        self._bound = bound
        return layout

    def term_count(self) -> int:
        return len(self._terms)

    def subtract(self, p: LaurentPolynomial) -> None:
        """self -= p, merged into the running sum's dict."""
        layout = self._fit(p._layout, max(self._bound, p._bound))
        _merge_into(self._terms, _keyed(p, layout), -1)

    def value(self) -> LaurentPolynomial:
        return LaurentPolynomial._raw(self.m, dict(self._terms), self._layout, self._bound)


def _sharing_keys(p: LaurentPolynomial, keys: dict[int, int]) -> LaurentPolynomial:
    """p with each packed key replaced by the equal int held in `keys` (a
    missing one is added).  Equal ints are interchangeable, so the value is
    unchanged; polynomials passed through one table hold one int object per
    distinct key, which saves memory when many of them are kept."""
    share = keys.setdefault
    return LaurentPolynomial._raw(p.m, {share(key, key): c for key, c in p._terms.items()}, p._layout, p._bound)


def _packed(m: int, terms: dict[Exponent, int]) -> tuple[dict[int, int], _Layout, int]:
    """Packed keys, layout and bound for canonical tuple-keyed terms."""
    bound = max(map(abs, chain.from_iterable(terms)), default=0)
    layout = _layout_for(m, bound)
    pack = layout.pack
    return {pack(e): c for e, c in terms.items()}, layout, bound


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


class _Divisor(tuple):
    """An alpha that `_checked_alpha` accepted: m ints, not all zero."""

    __slots__ = ()


def _checked_alpha(alpha, m: int) -> _Divisor:
    alpha = _check_exponent(alpha, m)
    if not any(alpha):
        raise ValueError("invalid divisor: alpha must be a nonzero vector")
    return _Divisor(alpha)


@lru_cache(maxsize=4096)  # bounded: public callers may pass any number of distinct alphas
def _line(alpha: _Divisor, layout: _Layout) -> tuple[int, int, int, int]:
    """(top, shift, alpha_j, step) of the lines e + Z·alpha in `layout`:
    top = max|alpha_i|, j the first coordinate with |alpha_j| = top, shift
    the offset of j's field, and step = P(alpha)."""
    sizes = list(map(abs, alpha))
    top = max(sizes)
    j = sizes.index(top)
    return top, layout.shifts[j], alpha[j], layout.offset(alpha)


def _line_layout(m: int, alpha: _Divisor, layout: _Layout, bound: int) -> tuple[_Layout, tuple[int, int, int, int]]:
    """The layout of a walk along alpha's lines over terms held in `layout`
    whose coordinates reach bound + max|alpha_i|, and alpha's `_line` in it."""
    layout = _common_layout(m, layout, layout, bound + _line(alpha, layout)[0])
    return layout, _line(alpha, layout)


def _difference_divisible(a: LaurentPolynomial, b: LaurentPolynomial, alpha: _Divisor) -> bool:
    """True iff a - b lies in the ideal (1 - y^alpha), for an alpha that
    `_checked_alpha` accepted.

    a's coefficients are added and b's subtracted into one sum per coset
    line, so a - b is never built.  The line through e is keyed by the packed
    representative e - t·alpha with t = ⌊e_j / alpha_j⌋ for the first j of
    largest |alpha_j|.  Adding alpha to e adds exactly 1 to t, so two
    exponents share a key iff their difference lies in Z·alpha.
    """
    layout, (_, shift, a_j, step) = _line_layout(
        a.m, alpha, _common_layout(a.m, a._layout, b._layout, 0), 2 * max(a._bound, b._bound)
    )
    mask, bias = layout.mask, layout.bias
    sums: dict[int, int] = {}
    get = sums.get
    for key, c in _keyed(a, layout).items():
        rep = key - (((key >> shift) & mask) - bias) // a_j * step
        sums[rep] = get(rep, 0) + c
    for key, c in _keyed(b, layout).items():
        rep = key - (((key >> shift) & mask) - bias) // a_j * step
        sums[rep] = get(rep, 0) - c
    return not any(sums.values())


def divisible_by_binomial(g: LaurentPolynomial, alpha: Iterable[int]) -> bool:
    """True iff g lies in the ideal (1 - y^alpha).

    Coefficients are summed by coset of Z·alpha; g is divisible iff every
    coset sums to zero.  This is exact: modulo y^alpha - 1 the ring is the
    group ring of Z^m / Z·alpha.  The sums are `_difference_divisible`'s,
    for g minus an empty polynomial.
    """
    if type(alpha) is not _Divisor:  # div_exact_binomial passes alphas checked against g.m
        alpha = _checked_alpha(alpha, g.m)
    return _difference_divisible(g, LaurentPolynomial._raw(g.m, {}, g._layout, 0), alpha)


def div_exact_binomial(g: LaurentPolynomial, alpha: Iterable[int]) -> LaurentPolynomial:
    """The exact quotient q with (1 - y^alpha) * q == g.

    Along one coset line the coefficient of g at e is q(e) - q(e - alpha), so
    q(e) = q(e - alpha) + g(e).  The keys of g are walked in sorted order
    (reversed when P(alpha) < 0), which meets every line in increasing t; a
    nonzero running value is stored at e and filled forward to the next key
    of g on the line.  On a divisible g every fill ends there, inside g's
    bound.  A fill that runs cap = min(len(g), (bias - 1 - bound) //
    max|alpha_i|) steps without meeting a key of g may be the overrun of a
    line that does not sum to zero, so it runs `divisible_by_binomial`, once
    per call: NonDivisibleError if g is not divisible, else the walk goes on
    with no cap.  Once the quotient holds more than 2·len(g) terms, cap is 1
    until that check has run, so a failing call fills O(len(g)) terms in all.
    The layout holds bound + max|alpha_i|, and within cap steps no field
    wraps, so the last fill of a line that does not sum to zero meets no key
    of g and always overruns.
    """
    if type(alpha) is not _Divisor:  # div_exact_product passes alphas checked against g.m
        alpha = _checked_alpha(alpha, g.m)
    layout, (top, _, _, step) = _line_layout(g.m, alpha, g._layout, g._bound)
    terms = _keyed(g, layout)
    cap = min(len(terms), (layout.bias - 1 - g._bound) // top)
    budget = 2 * len(terms)
    quotient: dict[int, int] = {}
    get = quotient.get
    for key in sorted(terms, reverse=step < 0):
        running = get(key - step, 0) + terms[key]
        if running:
            quotient[key] = running
            if cap > 1 and len(quotient) > budget:
                cap = 1
            limit = key + cap * step  # cap is 0 once g is known divisible: the fill has left key
            key += step
            while key not in terms:
                if key == limit:
                    if not divisible_by_binomial(g, alpha):
                        raise NonDivisibleError(
                            f"a polynomial of {len(terms)} terms is not divisible by 1 - y^{list(alpha)}"
                        )
                    cap = 0
                quotient[key] = running
                key += step
    return LaurentPolynomial._raw(g.m, quotient, layout, g._bound)


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
        raise ParseError(f"'m' must be a positive integer, got {_quoted(m)}")
    if not isinstance(doc["terms"], list):
        raise ParseError("'terms' must be a list")
    terms: dict[Exponent, int] = {}
    for k, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict) or entry.keys() != {"exp", "coef"}:
            raise ParseError(f"term {k} must be an object with exactly the keys 'exp' and 'coef'")
        exp = entry["exp"]
        if not isinstance(exp, list) or len(exp) != m or list(map(type, exp)).count(int) != m:
            raise ParseError(f"term {k}: 'exp' must be a list of {m} ints, got {_quoted(exp)}")
        coef = entry["coef"]
        if not isinstance(coef, str):
            raise ParseError(f"term {k}: 'coef' must be a decimal string, got {_quoted(coef)}")
        try:
            value = int(coef)
        except ValueError:
            raise ParseError(f"term {k}: 'coef' is not a decimal integer: {_quoted(coef)}") from None
        if str(value) != coef:  # int() also takes signs, spaces, '_' and non-ASCII digits
            raise ParseError(f"term {k}: 'coef' is not in canonical decimal form: {_quoted(coef)}")
        if value == 0:
            raise ParseError(f"term {k} ({_quoted(exp)}): zero coefficient violates canonical form")
        key = tuple(exp)
        if key in terms:
            raise ParseError(f"term {k} ({_quoted(exp)}): duplicate exponent key")
        terms[key] = value
    return LaurentPolynomial._raw(m, *_packed(m, terms))
