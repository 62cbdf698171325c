"""Exact arithmetic over Q(i) and integer lattice algebra.

All coordinate and period data in this package lives in the multiplicative
group of the Gaussian rationals, and all lattice bookkeeping is done with
arbitrary-precision integer matrices.  This module supplies both layers:

* :class:`GaussianRational` -- an exact element of Q(i);
* :class:`IntMatrix` -- an integer matrix made from its rows or from the
  nonzero entries of its columns; it holds each form once built, and
  applies, multiplies, transposes and pulls characters back on the
  columns;
* :func:`snf` -- Smith normal form: four sparse unimodular transforms and
  the invariant factors, the inverses built step by step alongside the
  transforms, plus kernels, cokernels, coordinates in the basis of ``V``,
  integer linear solving, and the solution in Q(i) of a character system
  on the columns, ``h(A e_j) = t_j``, or a relation among the columns
  that the targets break;
* :func:`dot` and :func:`symmetric_trilinear` -- the dot product of two
  integer vectors, and a symmetric tensor, stored sparsely, evaluated at
  three;
* :func:`nth_root` -- exact n-th roots in Q(i), when they exist, found
  without factoring: integer n-th roots by Newton's iteration, one
  Gaussian gcd and one power check.  Of several roots it returns the one
  with the largest real part, then the largest imaginary part.

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
the package's immutable values.
"""

from __future__ import annotations

import re as _regex
from functools import cached_property
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
    has its own constructor, which hands the fields on to this one; values
    derived on construction are stored with ``object.__setattr__``, and
    those derived on first use (``cached_property``) go straight into the
    instance ``__dict__``.
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
        s = text.replace(" ", "")
        m = _IMAG_RE.match(s) or _FULL_RE.match(s)
        if m is None:
            raise ExactArithmeticError(f"cannot parse Gaussian rational {text!r}")
        parts = m.groupdict()
        # A part reads n / d; a missing real part is 0 and a bare i is 1.
        try:
            a = int(parts.get("re") or 0)
            p = int(parts.get("re_d") or 1)
            b = int(parts["im"] or 1) if parts["si"] is not None else 0
            q = int(parts["im_d"] or 1)
        except ValueError as exc:  # more digits than the interpreter converts
            raise ExactArithmeticError("Gaussian rational with too many digits") from exc
        if p == 0 or q == 0:
            raise ExactArithmeticError(f"zero denominator in Gaussian rational {text!r}")
        if parts.get("sr") == "-":
            a = -a
        if parts["si"] == "-":
            b = -b
        return _reduced(a * q, b * p, p * q)

    # -- accessors ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def norm(self) -> Fraction:
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
    """``n/d`` in lowest terms, as ``str(Fraction(n, d))`` writes it."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


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


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix(Frozen):
    """An immutable matrix of arbitrary-precision integers, in two forms.

    A matrix is made from its rows, ``IntMatrix(rows)``, or from the nonzero
    ``(row, value)`` entries of each column, :meth:`from_columns`.  It
    builds the form it was not made with once, on first use: ``data`` holds
    the dense rows and ``columns`` the sparse columns.  ``apply``, ``*``,
    ``pull_back``, ``column`` and ``transpose`` walk the columns; equality
    and hashing compare ``shape`` and ``data``, so the forms of a matrix
    are equal.
    """

    def __init__(self, rows):
        rows = tuple(tuple(map(int, r)) for r in rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ExactArithmeticError("ragged matrix")
        object.__setattr__(self, "shape", (len(rows), width))
        object.__setattr__(self, "data", rows)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "IntMatrix":
        """The ``rows x len(columns)`` matrix with these sparse columns.

        Each column lists its nonzero ``(row, value)`` entries in increasing
        row order, the order every matrix of this module keeps: the columns
        read off the rows, a product's, a transpose's and the transforms of
        :func:`snf` are sorted so.  The caller keeps it; it is not checked.
        """
        self = object.__new__(cls)
        columns = tuple(tuple(column) for column in columns)
        object.__setattr__(self, "shape", (rows, len(columns)))
        object.__setattr__(self, "columns", columns)
        return self

    @cached_property
    def data(self) -> tuple:
        rows = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for j, column in enumerate(self.columns):
            for i, x in column:
                rows[i][j] = x
        return tuple(map(tuple, rows))

    @cached_property
    def columns(self) -> tuple:
        columns = [[] for _ in range(self.shape[1])]
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if x:
                    columns[j].append((i, x))
        return tuple(map(tuple, columns))

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix(shape={self.shape}, data={self.data})"

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactArithmeticError("matrix dimension mismatch")
        left = self.columns
        product_columns = []
        for column in other.columns:
            image: dict = {}
            for k, y in column:
                for i, x in left[k]:
                    image[i] = image.get(i, 0) + x * y
            product_columns.append(tuple((i, x) for i, x in sorted(image.items()) if x))
        return IntMatrix.from_columns(self.rows, product_columns)

    def transpose(self) -> "IntMatrix":
        """The transpose, its sparse columns read off this matrix's columns.

        Takes time linear in the nonzero entries; a column-form matrix is
        never made dense.
        """
        columns = [[] for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, x in column:
                columns[i].append((j, x))
        return IntMatrix.from_columns(self.cols, columns)

    def apply(self, vector) -> tuple:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ExactArithmeticError("vector length mismatch")
        image = [0] * self.rows
        for y, column in zip(vector, self.columns):
            if y:
                for i, x in column:
                    image[i] += x * y
        return tuple(image)

    def pull_back(self, values) -> tuple:
        """The character with these values on the rows, pulled back.

        Entry ``j`` is ``prod(values[i] ** A[i, j])``, so ``power_product``
        over the result at ``x`` is the character's value at ``A x``.
        """
        if len(values) != self.rows:
            raise ExactArithmeticError("vector length mismatch")
        return tuple(
            power_product_of((values[i], x) for i, x in column)
            for column in self.columns
        )

    def column(self, j: int) -> tuple:
        """Column ``j`` as a dense tuple, read off the sparse columns."""
        column = [0] * self.rows
        for i, x in self.columns[j]:
            column[i] = x
        return tuple(column)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)


class SnfDecomposition(Frozen):
    """Unimodular U and V with ``U * A * V == diag(factors)``, and the inverses.

    ``factors`` are the nonzero diagonal entries, positive and in the
    divisibility chain d1 | d2 | ... ; the rest of the diagonal is zero.
    All four transforms are held as sparse columns, so reading a kernel
    vector, a lift, coordinates or a character's power products costs the
    nonzero entries it touches.
    """

    _fields = ("U", "V", "U_inv", "V_inv", "factors")

    @property
    def rank(self) -> int:
        return len(self.factors)

    def invariant_factors(self) -> tuple:
        """The ``factors`` field, kept for the sympy gate in ``benchmarks/checks.py``."""
        return self.factors

    def kernel(self):
        """A basis of the saturated integer kernel of ``A`` (column vectors)."""
        return [self.V.column(j) for j in range(self.rank, self.V.rows)]

    def coordinates(self, x) -> tuple:
        """The coordinates ``V_inv x`` of ``x`` in the basis of ``V``'s columns.

        ``A x`` is zero exactly when the coordinates before ``rank`` are,
        and then the rest are ``x``'s coordinates in the kernel basis.
        """
        return self.V_inv.apply(tuple(x))

    def cokernel(self):
        """Free rank and torsion invariant factors of ``Z^rows / im(A)``."""
        return self.U.rows - self.rank, tuple(d for d in self.factors if d > 1)

    def solve(self, b):
        """An integer solution ``x`` of ``A x = b``, or ``None``.

        One factorization of ``A`` serves any number of right-hand sides.
        """
        ub = self.U.apply(tuple(b))
        if any(ub[self.rank :]):
            return None
        y = [0] * self.V.rows
        for i, d in enumerate(self.factors):
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        return self.V.apply(tuple(y))

    def solve_over_gaussian_torus(self, targets):
        """A character ``h`` on ``Z^rows`` with ``h(A e_j) == targets[j]``.

        The complex torus is divisible, so the system is solvable exactly
        when every integer relation ``a`` with ``A a = 0`` has
        ``prod(targets[j] ** a[j]) == 1``; the columns of ``V`` from the
        rank on span those relations.  Otherwise ``h`` is read off the
        factorization: with ``s_i = prod(targets[j] ** V[j, i])`` and
        ``y_i ** d_i == s_i``, ``h(e_r) = prod(y_i ** U[i, r])``.

        Returns ``("solved", values)`` with one Q(i)* value per row,
        ``("complex_only", (d, s))`` when the system is solvable over the
        full torus but the root ``s ** (1/d)`` it needs is not in Q(i), or
        ``("unsolvable", relation)`` with the first relation the targets
        break, which certifies that no solution exists.
        """
        targets = list(targets)
        if len(targets) != self.V.rows:
            raise ExactArithmeticError("one target per column required")
        for tval in targets:
            if tval.is_zero():
                raise ExactArithmeticError("targets must be nonzero")
        columns = self.V.columns
        for k in range(self.rank, self.V.rows):
            if not power_product_of((targets[j], x) for j, x in columns[k]).is_one():
                return "unsolvable", self.V.column(k)
        y = [ONE] * self.U.rows
        for i, d in enumerate(self.factors):
            s = power_product_of((targets[j], x) for j, x in columns[i])
            root = nth_root(s, d)
            if root is None:
                return "complex_only", (d, s)
            y[i] = root
        return "solved", list(self.U.pull_back(y))


def _add_sparse(dst: dict, src: dict, c: int):
    """``dst += c * src`` on vectors held as ``{index: nonzero entry}``."""
    if not c:
        return
    for k, y in src.items():
        x = dst.get(k, 0) + c * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form over Z with transforms, by exact row/column reduction.

    The inverses of the transforms are built alongside, each elementary
    step by its inverse (Dumas, Saunders and Villard, J. Symbolic Comput. 32
    (2001) 71-99): row ``dst += c * row src`` on ``U`` is column
    ``src -= c * column dst`` on ``U_inv``, column ``dst += c * column src``
    on ``V`` is row ``src -= c * row dst`` on ``V_inv``, and a swap or a
    negation is the same swap or negation there.  All four are held as
    sparse vectors, so a step costs the nonzero entries it moves.  At the
    end ``U`` and ``V_inv``, built as rows, are transposed, which sorts
    their columns, and the columns of ``V`` and ``U_inv`` are sorted once.
    """
    m, n = A.shape
    a = [list(r) for r in A.data]
    u = [{i: 1} for i in range(m)]  # rows
    u_inv = [{i: 1} for i in range(m)]  # columns
    v = [{j: 1} for j in range(n)]  # columns
    v_inv = [{j: 1} for j in range(n)]  # rows
    t = 0

    def holding():
        # The rows of a with a nonzero entry in column t.  Rows above t are
        # zero right of the diagonal, and the column steps only combine
        # columns from t on, so they walk the rows from t on.
        return [row for row in a[t:] if row[t]]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def swap_cols(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst, src, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        _add_sparse(u[dst], u[src], c)
        _add_sparse(u_inv[src], u_inv[dst], -c)

    def add_col(dst, src, c, rows):
        # rows: those of a with a nonzero entry in column src
        for row in rows:
            row[dst] += c * row[src]
        _add_sparse(v[dst], v[src], c)
        _add_sparse(v_inv[src], v_inv[dst], -c)

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = {k: -x for k, x in u[i].items()}
        u_inv[i] = {k: -x for k, x in u_inv[i].items()}

    while t < min(m, n):
        # Locate a pivot of minimal absolute value in the trailing block: the
        # first one in row-major order.  No nonzero entry is below 1, so the
        # scan stops at the first entry of absolute value 1.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # Clear column t below the pivot, then row t right of the pivot.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            rows = holding()
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q, rows)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        rows = holding()
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot; a unit
            # divides everything.
            if abs(a[t][t]) == 1:
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)

        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # The loop stops at the first empty trailing block, so the nonzero
    # diagonal entries are the first t.
    return SnfDecomposition(
        IntMatrix.from_columns(m, [row.items() for row in u]).transpose(),
        IntMatrix.from_columns(n, [sorted(column.items()) for column in v]),
        IntMatrix.from_columns(m, [sorted(column.items()) for column in u_inv]),
        IntMatrix.from_columns(n, [row.items() for row in v_inv]).transpose(),
        tuple(a[i][i] for i in range(t)),
    )


def kernel_basis(A: IntMatrix):
    """A basis of the saturated integer kernel of ``A`` (column vectors).

    The returned list is empty iff ``A`` is injective.
    """
    return snf(A).kernel()


def solve_integer(A: IntMatrix, b):
    """An integer solution ``x`` of ``A x = b``, or ``None``."""
    return snf(A).solve(b)


def invert_unimodular(A: IntMatrix) -> IntMatrix:
    """Inverse of a square integer matrix with determinant +-1.

    Read off the factorization: ``U * A * V == I`` exactly when ``A`` is
    unimodular, and then ``A^-1 == V * U``.
    """
    if A.rows != A.cols:
        raise ExactArithmeticError("matrix is not square")
    dec = snf(A)
    if dec.rank < A.rows:
        raise ExactArithmeticError("matrix is singular")
    if any(d != 1 for d in dec.factors):
        raise ExactArithmeticError("matrix is not unimodular")
    return dec.V * dec.U


# ---------------------------------------------------------------------------
# Exact n-th roots in Q(i)
# ---------------------------------------------------------------------------


def _integer_root(m: int, n: int):
    """The integer ``r >= 0`` with ``r**n == m``, or ``None`` if there is none.

    Newton's iteration from above (Cohen, GTM 138, section 1.7) reaches
    the floor of the real root; one exact power check then decides.
    """
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == m else None


def _gauss_divmod(a, b):
    """Rounded division in Z[i]; a, b are (re, im) integer pairs."""
    br, bi = b
    nb = br * br + bi * bi
    ar, ai = a
    qr_num = ar * br + ai * bi
    qi_num = ai * br - ar * bi
    qr = (2 * qr_num + nb) // (2 * nb)
    qi = (2 * qi_num + nb) // (2 * nb)
    rr = ar - (qr * br - qi * bi)
    ri = ai - (qr * bi + qi * br)
    return (qr, qi), (rr, ri)


def _gauss_gcd(a, b):
    while b != (0, 0):
        _, r = _gauss_divmod(a, b)
        a, b = b, r
    return a


def nth_root(x: GaussianRational, n: int):
    """The exact n-th root of ``x`` in Q(i), or ``None`` if there is none.

    Write ``x = (a + b*i) / d``; the roots of ``x`` are ``w / d`` with ``w``
    an n-th root of ``y = (a + b*i) * d**(n-1)`` in Z[i], which is
    integrally closed.  Any such ``w`` is ``q * (1+i)**s * u`` up to a unit,
    with ``q`` an odd positive integer and ``u`` primitive and prime to
    ``1+i``, hence prime to its conjugate.  Then the content of ``y`` is
    ``q**n * 2**t`` with ``2*t + [1+i divides y / content] == s*n``, the
    rest is a unit times ``u**n``, and ``u`` is the Gaussian gcd of the
    rest with the integer n-th root of its norm.  Each step takes integer
    n-th roots or one gcd, so nothing is factored; the last step keeps the
    unit multiples of ``q * (1+i)**s * u`` whose n-th power is ``y``.

    When ``x`` has several roots (only for even ``n``), the one with the
    largest real part, then the largest imaginary part, is returned.
    """
    if n <= 0:
        raise ExactArithmeticError("root order must be positive")
    if x.is_zero():
        raise ExactArithmeticError("no roots of zero in Q(i)*")
    if n == 1:
        return x
    d = x._d
    scale = d ** (n - 1)
    y = _triple(x._a * scale, x._b * scale, 1)
    content = gcd(y._a, y._b)
    t = (content & -content).bit_length() - 1
    q = _integer_root(content >> t, n)
    if q is None:
        return None
    # The power of 1+i in y: 2**t is a unit times (1+i)**(2t), and the
    # primitive rest holds 1+i at most once.
    a, b, e = y._a // content, y._b // content, 2 * t
    if (a - b) % 2 == 0:
        a, b, e = (a + b) // 2, (b - a) // 2, e + 1
    s, r = divmod(e, n)
    if r:
        return None
    k = _integer_root(a * a + b * b, n)
    if k is None:
        return None
    u = _gauss_gcd((a, b), (k, 0))
    w = _triple(q * u[0], q * u[1], 1) * GaussianRational(1, 1) ** s
    power = w ** n
    roots = [w * unit for unit in (ONE, I, MINUS_ONE, -I) if power * unit ** n == y]
    if not roots:
        return None
    best = max(roots, key=lambda root: (root._a, root._b))
    return _reduced(best._a, best._b, d)
