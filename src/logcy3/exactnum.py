"""Integer lattice algebra, and exact roots in Q(i).

* :class:`IntMatrix` -- an integer matrix made from its rows or from the
  nonzero entries of its columns; it holds each form once built, and
  applies, multiplies, transposes and pulls characters back on the
  columns;
* :func:`snf` -- Smith normal form: the invariant factors and the
  elimination's elementary steps, on a working matrix of sparse rows with
  the set of rows that hold each column, read off the input's columns and
  never made dense; each of the four sparse unimodular transforms is built
  from the steps by its first reader, and the torus solve pulls back
  through the row steps without building ``U``,
  plus kernels, cokernels, coordinates in the basis of ``V``,
  integer linear solving, and the solution in Q(i) of a character system
  on the columns, ``h(A e_j) = t_j``, or a relation among the columns
  that the targets break;
* :func:`nth_root` -- exact n-th roots in Q(i), when they exist, found
  without factoring: integer n-th roots by Newton's iteration, one
  Gaussian gcd and one power check.  Of several roots it returns the one
  with the largest real part, then the largest imaginary part.

The numbers are those of :mod:`logcy3.gaussian`.
Everything here is immutable and pure.
"""

from __future__ import annotations

from math import gcd

from logcy3.gaussian import (
    ExactArithmeticError, Frozen, GaussianRational, ONE, MINUS_ONE, I, _reduced, _triple,
    held_property, power_product_of,
)
from logcy3.gaussian import product  # for benchmarks/inputs.py only; it moves with the benchmark


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

    @held_property
    def data(self) -> tuple:
        rows = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for j, column in enumerate(self.columns):
            for i, x in column:
                rows[i][j] = x
        return tuple(map(tuple, rows))

    @held_property
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


class SnfDecomposition(Frozen):
    """Unimodular U and V with ``U * A * V == diag(factors)``, kept as their steps.

    ``factors`` are the nonzero diagonal entries, positive and in the
    divisibility chain d1 | d2 | ... ; the rest of the diagonal is zero.
    ``shape`` is that of ``A``.  The elimination's elementary steps are
    kept in order, those on rows in ``row_steps`` and those on columns in
    ``column_steps``, each a triple ``(i, j, c)``: for ``i != j`` it adds
    ``c`` times line ``j`` to line ``i`` when ``c`` is nonzero and swaps
    the two lines when ``c`` is 0, and ``(t, t, -1)`` negates line ``t``.
    ``U`` is the product of the row steps, ``V`` that of the column steps,
    and each of ``U``, ``V``, ``U_inv`` and ``V_inv`` is built by its first
    reader, replaying its steps on the identity (the product form of the
    inverse: Dantzig and Orchard-Hays, Math. Tables Aids Comput. 8 (1954)
    64-67), and then held as sparse columns, so reading a kernel vector, a
    lift, coordinates or a character's power products costs the nonzero
    entries it touches.
    """

    _fields = ("shape", "row_steps", "column_steps", "factors")

    @held_property
    def U(self) -> IntMatrix:
        return _replayed(self.shape[0], self.row_steps, inverse=False, as_rows=True)

    @held_property
    def V(self) -> IntMatrix:
        return _replayed(self.shape[1], self.column_steps, inverse=False, as_rows=False)

    @held_property
    def U_inv(self) -> IntMatrix:
        return _replayed(self.shape[0], self.row_steps, inverse=True, as_rows=False)

    @held_property
    def V_inv(self) -> IntMatrix:
        return _replayed(self.shape[1], self.column_steps, inverse=True, as_rows=True)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def invariant_factors(self) -> tuple:
        """The ``factors`` field, kept for the sympy gate in ``benchmarks/checks.py``."""
        return self.factors

    def kernel(self):
        """A basis of the saturated integer kernel of ``A`` (column vectors)."""
        return [self.V.column(j) for j in range(self.rank, self.shape[1])]

    def coordinates(self, x) -> tuple:
        """The coordinates ``V_inv x`` of ``x`` in the basis of ``V``'s columns.

        ``A x`` is zero exactly when the coordinates before ``rank`` are,
        and then the rest are ``x``'s coordinates in the kernel basis.
        """
        return self.V_inv.apply(tuple(x))

    def cokernel(self):
        """Free rank and torsion invariant factors of ``Z^rows / im(A)``."""
        return self.shape[0] - self.rank, tuple(d for d in self.factors if d > 1)

    def solve(self, b):
        """An integer solution ``x`` of ``A x = b``, or ``None``.

        One factorization of ``A`` serves any number of right-hand sides.
        """
        ub = self.U.apply(tuple(b))
        if any(ub[self.rank :]):
            return None
        y = [0] * self.shape[1]
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
        ``y_i ** d_i == s_i``, ``h(e_r) = prod(y_i ** U[i, r])``, that is
        ``y`` pulled back through each row step, the last first, so ``U``
        is never built.

        Returns ``("solved", values)`` with one Q(i)* value per row,
        ``("complex_only", (d, s))`` when the system is solvable over the
        full torus but the root ``s ** (1/d)`` it needs is not in Q(i), or
        ``("unsolvable", relation)`` with the first relation the targets
        break, which certifies that no solution exists.
        """
        targets = list(targets)
        n = self.shape[1]
        if len(targets) != n:
            raise ExactArithmeticError("one target per column required")
        for tval in targets:
            if tval.is_zero():
                raise ExactArithmeticError("targets must be nonzero")
        columns = self.V.columns
        for k in range(self.rank, n):
            if not power_product_of((targets[j], x) for j, x in columns[k]).is_one():
                return "unsolvable", self.V.column(k)
        y = [ONE] * self.shape[0]
        for i, d in enumerate(self.factors):
            s = power_product_of((targets[j], x) for j, x in columns[i])
            root = nth_root(s, d)
            if root is None:
                return "complex_only", (d, s)
            y[i] = root
        # Pulled back through a step, y changes only where the step reads:
        # row dst += c * row src multiplies y[src] by y[dst] ** c.
        for dst, src, c in reversed(self.row_steps):
            if dst == src:
                y[dst] = y[dst].inverse()
            elif c:
                y[src] = power_product_of(((y[src], 1), (y[dst], c)))
            else:
                y[dst], y[src] = y[src], y[dst]
        return "solved", y


def _add_sparse(dst: dict, src: dict, c: int):
    """``dst += c * src``, ``c`` nonzero, on vectors held as ``{index: nonzero entry}``."""
    for k, y in src.items():
        x = dst.get(k, 0) + c * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def _replayed(size: int, steps, inverse: bool, as_rows: bool) -> IntMatrix:
    """The ``size x size`` identity with these steps applied to its lines, in order.

    Forward, a step acts on the lines as it reads.  For the inverse each
    step is replaced by its inverse on the other lines, as the order of the
    steps requires (Dumas, Saunders and Villard, J. Symbolic Comput. 32
    (2001) 71-99): line ``i += c * line j`` becomes line ``j -= c * line i``,
    and a swap or a negation is the same swap or negation.  The lines are
    the matrix's rows when ``as_rows`` holds (``U``, ``V_inv``), else its
    columns (``V``, ``U_inv``).
    """
    lines = [{i: 1} for i in range(size)]
    for i, j, c in steps:
        if i == j:
            line = lines[i]
            for k in line:
                line[k] = -line[k]
        elif not c:
            lines[i], lines[j] = lines[j], lines[i]
        elif inverse:
            _add_sparse(lines[j], lines[i], -c)
        else:
            _add_sparse(lines[i], lines[j], c)
    if as_rows:  # the transpose sorts the columns
        return IntMatrix.from_columns(size, [line.items() for line in lines]).transpose()
    return IntMatrix.from_columns(size, [sorted(line.items()) for line in lines])


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form over Z with its steps, by exact row/column reduction.

    The pivot is the first entry of least absolute value in row-major order
    of the trailing block; the column below it is cleared, then the row
    right of it, swapping in a nonzero remainder, and a pivot that does not
    divide the block has the first offending row added to its own.

    The working matrix is held as sparse rows ``{column: nonzero}``, read
    off ``A``'s columns, with the set of rows that hold each column, so a
    row step walks the source row's nonzeros, a column step the rows in the
    source column's set, and a swap relabels only the entries it moves.
    Each step is appended to the row or the column log and nothing else is
    done for the transforms: :class:`SnfDecomposition` builds each of them
    from its log when it is first read.
    """
    m, n = A.shape
    a = [{} for _ in range(m)]  # rows of the working matrix, nonzeros only
    holding = [set() for _ in range(n)]  # per column, the rows with a nonzero
    for j, column in enumerate(A.columns):
        for i, x in column:
            if x:
                a[i][j] = x
                holding[j].add(i)
    row_steps = []
    column_steps = []
    t = 0

    def swap_rows(i, j):
        ri, rj = a[i], a[j]
        for k in ri:
            if k not in rj:
                rows = holding[k]
                rows.remove(i)
                rows.add(j)
        for k in rj:
            if k not in ri:
                rows = holding[k]
                rows.remove(j)
                rows.add(i)
        a[i], a[j] = rj, ri
        row_steps.append((i, j, 0))

    def swap_cols(i, j):
        hi, hj = holding[i], holding[j]
        for r in hi:
            row = a[r]
            x = row.pop(i)
            if r in hj:
                row[i] = row[j]
            row[j] = x
        for r in hj:
            if r not in hi:
                row = a[r]
                row[i] = row.pop(j)
        holding[i], holding[j] = hj, hi
        column_steps.append((i, j, 0))

    def add_row(dst, src, c):
        # row[dst] += c * row[src]; c is never 0.
        row = a[dst]
        for k, y in a[src].items():
            x = row.get(k)
            if x is None:
                row[k] = c * y
                holding[k].add(dst)
            else:
                x += c * y
                if x:
                    row[k] = x
                else:
                    del row[k]
                    holding[k].remove(dst)
        row_steps.append((dst, src, c))

    def add_col(dst, src, c):
        # column[dst] += c * column[src]; c is never 0.
        rows = holding[dst]
        for r in holding[src]:
            row = a[r]
            x = row.get(dst)
            if x is None:
                row[dst] = c * row[src]
                rows.add(r)
            else:
                x += c * row[src]
                if x:
                    row[dst] = x
                else:
                    del row[dst]
                    rows.remove(r)
        column_steps.append((dst, src, c))

    while t < min(m, n):
        # Locate a pivot of minimal absolute value in the trailing block: the
        # first one in row-major order.  Rows above t and columns left of t
        # are done, so the rows from t on hold only trailing entries; a row's
        # ties go to its least column.  No nonzero entry is below 1, so the
        # scan stops after the first row that holds a unit.
        best = 0
        for i in range(t, m):
            for j, x in a[i].items():
                if x < 0:
                    x = -x
                if not best or x < best or (x == best and i == pivot_row and j < pivot_col):
                    best, pivot_row, pivot_col = x, i, j
            if best == 1:
                break
        if not best:
            break
        if pivot_row != t:
            swap_rows(t, pivot_row)
        if pivot_col != t:
            swap_cols(t, pivot_col)

        while True:
            # Clear column t below the pivot, then row t right of the pivot.
            # A step changes only its own row or column and a swap trades it
            # with the pivot's, so the rows below and the columns to the
            # right that are still to come hold what they held at the start.
            dirty = False
            for i in sorted(holding[t]):
                if i > t:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if t in a[i]:
                        swap_rows(t, i)
                        dirty = True
            row_t = a[t]
            for j in sorted(row_t):
                if j > t:
                    q = row_t[j] // row_t[t]
                    if q:
                        add_col(j, t, -q)
                    if j in row_t:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot; a unit
            # divides everything, and so does a zero entry.
            p = row_t[t]
            if p == 1 or p == -1:
                break
            offender = None
            for i in range(t + 1, m):
                for x in a[i].values():
                    if x % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)

        if row_t[t] < 0:
            # Row t holds only the pivot; negate it in place.
            row_t[t] = -row_t[t]
            row_steps.append((t, t, -1))
        t += 1

    # The loop stops at the first empty trailing block, so the nonzero
    # diagonal entries are the first t.
    return SnfDecomposition(
        A.shape, tuple(row_steps), tuple(column_steps), tuple(a[i][i] for i in range(t))
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
