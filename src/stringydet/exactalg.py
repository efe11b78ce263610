"""Exact arithmetic kernel.

Sparse Laurent polynomials in one variable ``q`` with int coefficients,
``Fraction`` only where a value is not integral (normalised on the way in, so
integer work stays in ``int``), and gcd-reduced rational functions. Every int
path comes first, and ``fractions`` is imported only by the few branches that
make a ``Fraction``, so a run whose values stay integral never loads it.

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


# -- dense helpers for division and gcd -------------------------------------

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


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divmod_dense(num: list, den: list):
    """Dense long division; a leading coefficient of +-1 keeps int inputs in int."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    unit = lead == 1 or lead == -1
    if not unit:
        import fractions
        lead = fractions.Fraction(lead)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        t = c * lead if unit else _norm(c / lead)
        lo = i - dd
        quot[lo] = t
        num[lo:i + 1] = [a - t * b for a, b in zip(num[lo:i + 1], den)]
    return _trim(quot), _trim(num)


def _gcd_dense(a: list, b: list) -> list:
    """Monic gcd by the Euclidean algorithm over Q.

    Each remainder is made monic before the next division step, so the
    coefficients do not grow from one step to the next.
    """
    while b:
        a, b = b, _monic(_divmod_dense(a, b)[1])
    return _monic(a)


def _monic(coeffs: list) -> list:
    lead = coeffs[-1] if coeffs else 1
    if lead == 1 or lead == -1:  # c / lead is c * lead, and an int stays an int
        return [_norm(c * lead) for c in coeffs]
    import fractions
    lead = fractions.Fraction(lead)
    return [_norm(c / lead) for c in coeffs]


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts after clearing q-power factors.

    Pure q-power content is discarded: gcd(q^m * f, q^n * g) is reported as
    gcd(f, g) with f, g of order 0.
    """
    return _from_dense(_gcd_dense(_dense(a), _dense(b)))


class RationalFn:
    """A gcd-reduced ratio of Laurent polynomials.

    Canonical form: numerator and denominator share no nonconstant factor,
    the denominator has order 0 and leading coefficient 1. With that
    normalization equality of values is structural equality.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=ONE):
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "_num", ZERO)
            object.__setattr__(self, "_den", ONE)
            return
        g = laurent_gcd(num, den)
        if not g == ONE:
            num = num.divide_exact(g)
            den = den.divide_exact(g)
        # pull the pure q-power and the leading unit out of the denominator
        shift = den.order()
        num = num.shift(-shift)
        den = den.shift(-shift)
        lead = den.leading_coeff()
        if lead != 1:
            import fractions
            num = num.scale(fractions.Fraction(1) / lead)
            den = den.scale(fractions.Fraction(1) / lead)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    # -- field operations ----------------------------------------------

    def __add__(self, other) -> "RationalFn":
        other = _coerce_rf(other)
        return RationalFn(self._num * other._den + other._num * self._den,
                          self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self._num, self._den)

    def __sub__(self, other) -> "RationalFn":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RationalFn":
        return _coerce_rf(other) - self

    def __mul__(self, other) -> "RationalFn":
        other = _coerce_rf(other)
        return RationalFn(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = _coerce_rf(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFn(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other) -> "RationalFn":
        return _coerce_rf(other) / self

    def __eq__(self, other) -> bool:
        try:
            other = _coerce_rf(other)
        except TypeError:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a polynomial value hashes as its numerator, since it compares equal to it
        if self._den == ONE:
            return hash(self._num)
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RationalFn({self._num!r}, {self._den!r})"

    def __str__(self):
        if self._den == ONE:
            return str(self._num)
        return f"({self._num}) / ({self._den})"

    # -- extraction -----------------------------------------------------

    def to_poly(self) -> LaurentPoly:
        """The Laurent polynomial equal to this value, or NotPolynomial."""
        return self._num.divide_exact(self._den)


def _coerce_rf(x) -> RationalFn:
    if isinstance(x, RationalFn):
        return x
    return RationalFn(_coerce(x))

