"""Exact arithmetic kernel.

Sparse Laurent polynomials in one variable ``q`` with int coefficients, and
``Fraction`` only where a value is not integral (normalised on the way in, so
integer work stays in ``int``). Every int path comes first, and ``fractions``
is imported only by the few branches that make a ``Fraction``, so a run whose
values stay integral never loads it. ``rational`` holds the gcd, long division
and ``RationalFn``, which no command needs, and loads on first use.

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads.
"""


class EvalAtZeroWithNegativeExponent(ZeroDivisionError):
    """Evaluation at 0 requested for a polynomial with negative exponents."""


class DivisionByZero(ZeroDivisionError):
    """Denominator of a rational function is the zero polynomial."""


class NotPolynomial(ArithmeticError):
    """A rational function expected to be a polynomial is not one."""


def _norm(x):
    """The canonical coefficient: an int when the value is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    import fractions  # loaded if x is a Fraction; cheaper here than a from-import
    if isinstance(x, fractions.Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficient must be an int or Fraction, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial in one variable ``q`` over the rationals.

    Stored sparsely as a map from (possibly negative) exponent to nonzero
    coefficient, an int when integral and a Fraction otherwise; the zero
    polynomial is the empty map.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if not isinstance(exp, int) or isinstance(exp, bool):
                    raise TypeError("exponents must be integers")
                c = _norm(coeff)
                if c != 0:
                    clean[exp] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """A copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent; undefined for the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def order(self) -> int:
        """Smallest exponent; undefined for the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no order")
        return min(self._terms)

    def leading_coeff(self):
        """The coefficient of the degree: an int, or a Fraction when it is not integral."""
        return self._terms[self.degree()]

    def is_polynomial(self) -> bool:
        """True if no negative exponent occurs."""
        return self.is_zero() or self.order() >= 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = _norm(s)
            else:
                out.pop(exp, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        out = {}
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _raw({e: _norm(c) for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not Laurent polynomials in general")
        base, result = self, None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ONE if result is None else result

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by ``q**n``."""
        return _raw({e + n: c for e, c in self._terms.items()})

    def scale(self, c) -> "LaurentPoly":
        c = _norm(c)
        if c == 0:
            return ZERO
        return _raw({e: _norm(c * v) for e, v in self._terms.items()})

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x):
        """Exact value at a rational ``x``, nonzero if negative exponents occur: an int, or
        a Fraction when it is not integral."""
        x = _norm(x)
        if not self.is_polynomial():
            if x == 0:
                raise EvalAtZeroWithNegativeExponent(
                    "cannot evaluate at 0: negative exponents present")
            import fractions
            x = fractions.Fraction(x)  # a negative power of an int would be a float
        return _norm(sum(c * x ** exp for exp, c in self._terms.items()))

    __call__ = evaluate

    # -- division ------------------------------------------------------

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient ``self / other``; raises NotPolynomial if not divisible."""
        other = _coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        from .rational import _divmod_dense
        quot, rem = _divmod_dense(_dense(self), _dense(other))
        if any(rem):
            raise NotPolynomial("remainder is nonzero in exact division")
        return _from_dense(quot).shift(self.order() - other.order())

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:  # not an int, a Fraction or a LaurentPoly
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as its coefficient, since it compares equal to it
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"LaurentPoly({self._terms!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms):
            c = self._terms[exp]
            if exp == 0:
                parts.append(str(c))
            elif exp == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{exp}" if c != 1 else f"q^{exp}")
        return " + ".join(parts)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def q_pow(n: int) -> LaurentPoly:
    """The monomial q**n."""
    return LaurentPoly({n: 1})


def _raw(terms: dict) -> LaurentPoly:
    """Build without re-validating; callers guarantee nonzero normalised coefficients."""
    p = LaurentPoly()
    object.__setattr__(p, "_terms", terms)
    return p


def _coerce(x) -> LaurentPoly:
    """x as a constant polynomial; a TypeError unless x is an int or a Fraction."""
    return x if isinstance(x, LaurentPoly) else LaurentPoly({0: x})


# -- dense helpers for factor_ratio, division and gcd ------------------------

def _dense(p: LaurentPoly) -> list:
    """Coefficient list of p / q^order(p), lowest first; [] for zero."""
    if p.is_zero():
        return []
    low = p.order()
    out = [0] * (p.degree() - low + 1)
    for e, c in p._terms.items():
        out[e - low] = c
    return out


def _from_dense(coeffs: list, low: int = 0) -> LaurentPoly:
    return _raw({i: c if type(c) is int else _norm(c) for i, c in enumerate(coeffs, low) if c})


def __getattr__(name):
    """``RationalFn`` and ``laurent_gcd`` from ``rational``, loaded on first use (PEP 562)."""
    if name in ("RationalFn", "laurent_gcd"):
        from . import rational
        return getattr(rational, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
