"""Exact arithmetic over Q(i): the numbers every layer of the package reads.

* :class:`GaussianRational` -- an exact element of Q(i);
* :func:`power_product_of` -- ``prod(v ** e)`` over ``(v, e)`` pairs, the one
  kernel of every power and product of powers (:func:`product`,
  :func:`power_product` and ``**``);
* :func:`dot` and :func:`symmetric_trilinear` -- the dot product of two
  integer vectors, and a symmetric tensor, stored sparsely, evaluated at
  three.

A Gaussian rational is one reduced integer triple: ``(a + b*i) / d`` with
``d > 0`` and ``gcd(a, b, d) == 1``.  The form is canonical, so equality
and hashing compare triples.  Each operation works on the integers and
reduces once with a single three-way ``gcd`` (none when ``d`` is 1).
Powers and products of powers share one kernel, :func:`power_product_of`,
which raises each factor in Z[i] and reduces the running triple once per
factor.  Text is read and written straight from the triple.  ``Fraction``
appears only at the edges: the constructor's non-integer arguments, the
coercion of a ``Fraction`` operand and the read-only ``re``, ``im`` and
``norm()`` views, so no hot path builds a ``Fraction``, and ``fractions``
is imported only where one is made.

Everything here is immutable and pure.  :class:`Frozen` is the one base of
the package's immutable values, and :class:`held_property` holds what they
derive on first use.  Reading a pair document and building a
pair need only this module; the integer lattices are in
:mod:`logcy3.exactnum`.
"""

from __future__ import annotations

import re as _regex
import sys
from math import gcd, lcm
from operator import attrgetter


class ExactArithmeticError(ValueError):
    """Raised on invalid exact-arithmetic input (zero denominators etc.)."""


class Frozen:
    """An immutable value: its attributes are set once, when it is made.

    Setting or deleting an attribute raises ``AttributeError``.  A subclass
    names in ``_fields`` the attributes that the constructor stores and
    ``==``, ``hash`` and ``repr`` read, in order: two values are equal when
    they have the same class and equal fields, and hash as the tuple of
    their fields.  A subclass that checks, converts or defaults its input
    has its own constructor, which hands the fields on to this one.  Values
    derived on construction, and those derived on first use
    (:class:`held_property`), are stored with ``object.__setattr__`` as
    plain instance attributes.  Nothing reads the instance ``__dict__``:
    reading it turns the instance's inline attributes into a real dict, and
    every later attribute read of the instance is then about twice as slow.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        """Store the fields ``_fields`` names, by position, then by keyword.

        A missing, extra, unknown or repeated field raises ``TypeError``.  It
        needs an instance ``__dict__``: a subclass with slots stores its own.
        """
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {fields}; got "
                    f"{len(values)} by position and {tuple(named)} by keyword"
                )
            values += tuple(named[name] for name in rest)
        # One by one: filling ``vars(self)`` makes every later read ~3x slower.
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            get = attrgetter(*cls._fields)
            # Of a single name, ``attrgetter`` gives the bare value.
            cls._values = property(
                get if len(cls._fields) > 1 else lambda self: (get(self),)
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class held_property:
    """A value derived from an instance on first read, then held on it.

    The first read computes the value and stores it as an instance
    attribute of the same name, with ``object.__setattr__``, so a
    :class:`Frozen` value can hold it; the attribute then shadows this
    descriptor, which defines no ``__set__``, and later reads are plain
    attribute reads.  An attribute of that name set with
    ``object.__setattr__`` before the first read is a held value too: it
    shadows the descriptor, which never computes it.  Unlike
    ``functools.cached_property`` it never reads the instance ``__dict__``
    (see :class:`Frozen`).
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.compute(instance)
        object.__setattr__(instance, self.name, value)
        return value


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_RE = r"(?P<re>\d+)(?:/(?P<re_d>\d+))?"
_IM = r"(?P<im>\d+)(?:/(?P<im_d>\d+))?"
_FULL_RE = _regex.compile(rf"^(?P<sr>[+-]?){_RE}(?:(?P<si>[+-])(?:{_IM}\*)?i)?$")
_IMAG_RE = _regex.compile(rf"^(?P<si>[+-]?)(?:{_IM}\*)?i$")


class GaussianRational(Frozen):
    """An exact element of Q(i), stored as ``(a + b*i) / d`` in lowest terms.

    The three integers satisfy ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    values have equal triples.  Instances are immutable; ``re`` and ``im``
    are read-only ``Fraction`` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            from fractions import Fraction

            re, im = Fraction(re), Fraction(im)
            # Both parts are reduced, so over their least common denominator
            # the triple is already in lowest terms.
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __reduce__(self):
        return _reduced, (self._a, self._b, self._d)

    # -- construction -------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse the textual form ``a/b``, ``a/b+c/d*i`` or ``a/b-c/d*i``.

        Denominators of 1 may be omitted; a bare real part or a bare
        imaginary part (``i``, ``-i``, ``2*i``) is also accepted.
        """
        s = text.replace(" ", "") if " " in text else text
        # The full form starts with a digit after its sign, the bare
        # imaginary part never does, so at most one of the two matches.
        m = _FULL_RE.match(s)
        if m is not None:
            sr, re, re_d, si, im, im_d = m.groups()
        else:
            m = _IMAG_RE.match(s)
            if m is None:
                raise ExactArithmeticError(f"cannot parse Gaussian rational {text!r}")
            sr = re = re_d = None
            si, im, im_d = m.groups()
        # A part reads n / d; a missing real part is 0 and a bare i is 1.
        try:
            a = int(re or 0)
            p = int(re_d or 1)
            b = int(im or 1) if si is not None else 0
            q = int(im_d or 1)
        except ValueError as exc:  # more digits than the interpreter converts
            raise ExactArithmeticError("Gaussian rational with too many digits") from exc
        if p == 0 or q == 0:
            raise ExactArithmeticError(f"zero denominator in Gaussian rational {text!r}")
        if sr == "-":
            a = -a
        if si == "-":
            b = -b
        return _reduced(a * q, b * p, p * q)

    # -- accessors ----------------------------------------------------------

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def norm(self):
        """The field norm ``re**2 + im**2``."""
        from fractions import Fraction

        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other):
        other = _coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2), reduced once.
        other = _coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ExactArithmeticError("division by zero in Q(i)")
        d2 = other._d
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n
        )

    def inverse(self) -> "GaussianRational":
        # d / (a + b i) = (a - b i) d / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ExactArithmeticError("division by zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def __pow__(self, exponent: int) -> "GaussianRational":
        return power_product_of(((self, exponent),))

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _ratio_text(a, d)
        sign = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


# Slot setters that bypass the immutable ``Frozen.__setattr__``.
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b*i) / d`` of a triple already in lowest terms."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b*i) / d`` for any ``d > 0``, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, as ``str(Fraction(n, d))`` writes it.

    A period value can outgrow the interpreter's limit on the digits of an
    integer it writes; then the limit is lifted for this one text and put
    back, so that parsing input keeps it.
    """
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return _ratio_text(n, d)
        finally:
            sys.set_int_max_str_digits(limit)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return GaussianRational(x)
    from fractions import Fraction

    if isinstance(x, Fraction):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


def power_product_of(factors) -> GaussianRational:
    """Compute ``prod(v ** e)`` over ``(v, e)`` pairs exactly.

    The running product is one integer triple ``(a, b, d)``.  Each factor
    is raised in Z[i] by square and multiply, a negative exponent first
    inverting it as ``q * (x - y*i) / (x**2 + y**2)``, multiplied in, and
    the triple reduced by one ``gcd(a, b, d)`` (none while ``d`` is 1), so
    a factor makes no intermediate Gaussian rational (Knuth, TAOCP vol. 2,
    4.6.3).
    """
    a, b, d = 1, 0, 1
    for v, e in factors:
        if not e:
            continue
        x, y, q = v._a, v._b, v._d
        if e < 0:
            n = x * x + y * y
            if n == 0:
                raise ExactArithmeticError("division by zero in Q(i)")
            x, y, q, e = q * x, -q * y, n, -e
        if e == 1:
            a, b = a * x - b * y, a * y + b * x
        else:
            if q != 1:
                q = q**e
            while True:
                if e & 1:
                    a, b = a * x - b * y, a * y + b * x
                e >>= 1
                if not e:
                    break
                x, y = x * x - y * y, 2 * x * y
        if q != 1:
            d *= q
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def product(values) -> GaussianRational:
    """Multiply an iterable of Gaussian rationals (empty product is 1)."""
    return power_product_of((v, 1) for v in values)


def power_product(values, exponents) -> GaussianRational:
    """Compute ``prod(values[j] ** exponents[j])`` exactly.

    One pass of :func:`power_product_of`; the two sequences must have the
    same length (``ValueError`` otherwise).
    """
    return power_product_of(zip(values, exponents, strict=True))


def dot(a, b) -> int:
    """The integer dot product of two vectors, over the nonzero entries of ``a``."""
    return sum(x * y for x, y in zip(a, b) if x)


def symmetric_trilinear(tensor: dict, a, b, c) -> int:
    """The trilinear form of a symmetric tensor at three integer vectors.

    ``tensor`` maps sorted index triples to entries (absent ones are 0);
    only the nonzero coordinates of the vectors are walked.
    """
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    nonzero_c = [(k, z) for k, z in enumerate(c) if z]
    total = 0
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                for k, z in nonzero_c:
                    total += x * y * z * tensor.get(tuple(sorted((i, j, k))), 0)
    return total
