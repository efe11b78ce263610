"""Gcd-reduced rational functions, the Laurent gcd and dense long division.

No command loads this module. Only the tests and ``bench/`` use it, through
``exactalg.RationalFn``, ``exactalg.laurent_gcd`` and ``LaurentPoly.divide_exact``;
it goes once the benchmark stops probing the gcd and exact division (ROADMAP item 1).
"""
from .exactalg import DivisionByZero, LaurentPoly, ONE, ZERO, _coerce, _dense, _from_dense, _norm


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

