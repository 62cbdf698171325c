"""Tests for exact Gaussian-rational arithmetic and integer lattice algebra."""

import copy
import importlib.resources
import pickle
import random
import re
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy3.exactnum import (
    ExactArithmeticError,
    GaussianRational,
    IntMatrix,
    invert_unimodular,
    kernel_basis,
    nth_root,
    power_product,
    power_product_of,
    snf,
    solve_integer,
)

gaussians = st.builds(
    GaussianRational,
    st.fractions(max_denominator=20),
    st.fractions(max_denominator=20),
)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero())
UNITS = [GaussianRational(x, y) for x, y in ((1, 0), (0, 1), (-1, 0), (0, -1))]


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero(m, n):
    """The m x n zero matrix, which keeps its width when m is 0."""
    return IntMatrix.from_columns(m, ((),) * n)


def diagonal(factors, shape):
    """The m x n matrix with these entries first on its diagonal."""
    m, n = shape
    return IntMatrix.from_columns(
        m, [((j, factors[j]),) if j < len(factors) else () for j in range(n)]
    )


def small_matrices(max_dim=4, max_entry=6, min_dim=1):
    return st.integers(min_dim, max_dim).flatmap(
        lambda m: st.integers(min_dim, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(IntMatrix)
        )
    )


@st.composite
def elementary_products(draw, max_dim=6, max_ops=12):
    """A unimodular matrix: a random product of elementary matrices."""
    n = draw(st.integers(1, max_dim))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, max_ops))):
        kind, i, j = draw(st.sampled_from(["add", "swap", "negate"])), draw(index), draw(index)
        if kind == "add" and i != j:
            c = draw(st.integers(-9, 9))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_RAT = r"\d+(?:/\d+)?"
_FULL_RE = re.compile(
    rf"^(?P<sr>[+-]?)(?P<re>{_RAT})"
    rf"(?:(?P<si>[+-])(?:(?P<im>{_RAT})\*)?i)?$"
)
_IMAG_RE = re.compile(rf"^(?P<si>[+-]?)(?:(?P<im>{_RAT})\*)?i$")


def fraction_parse(text):
    """``GaussianRational.parse`` as it was written with ``Fraction``: the reference."""
    s = text.replace(" ", "")
    try:
        m = _IMAG_RE.match(s)
        if m:
            im = Fraction(m.group("im") or "1")
            if m.group("si") == "-":
                im = -im
            return GaussianRational(0, im)
        m = _FULL_RE.match(s)
        if m is None:
            raise ExactArithmeticError(f"cannot parse Gaussian rational {text!r}")
        re_part = Fraction(m.group("re"))
        if m.group("sr") == "-":
            re_part = -re_part
        im_part = Fraction(0)
        if m.group("si"):
            im_part = Fraction(m.group("im") or "1")
            if m.group("si") == "-":
                im_part = -im_part
    except ZeroDivisionError as exc:
        raise ExactArithmeticError(
            f"zero denominator in Gaussian rational {text!r}"
        ) from exc
    return GaussianRational(re_part, im_part)


def parse_outcome(parse, text):
    try:
        value = parse(text)
    except ExactArithmeticError as exc:
        return "error", str(exc)
    return "value", (value._a, value._b, value._d)


_ratio_texts = st.builds(
    lambda n, d: n if d is None else f"{n}/{d}",
    st.integers(0, 10**6).map(str) | st.sampled_from(["0", "00", "007", "٣"]),
    st.none() | st.integers(0, 60).map(str) | st.just("00"),
)
_signs = st.sampled_from(["", "+", "-"])
_parse_texts = st.one_of(
    # Well-formed real, imaginary and complex forms, zero denominators included.
    st.builds(lambda s, r: s + r, _signs, _ratio_texts),
    st.builds(
        lambda s, r: f"{s}{r}*i" if r else f"{s}i", _signs, st.just("") | _ratio_texts
    ),
    st.builds(
        lambda s, r, t, m: f"{s}{r}{t}{m}*i" if m else f"{s}{r}{t}i",
        _signs, _ratio_texts, st.sampled_from(["+", "-"]), st.just("") | _ratio_texts,
    ),
    # Malformed and spaced strings over the parser's alphabet.
    st.text(alphabet="0123456789/+-*i .x\n", max_size=12),
)


class TestGaussianRational:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-3/7", "1/2+3/4*i", "2-5*i", "i", "-i", "3*i", "-1/3*i"],
    )
    def test_parse_format_round_trip(self, text):
        value = GaussianRational.parse(text)
        assert GaussianRational.parse(str(value)) == value

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1+", "1/0", "2i", "1//2"]:
            with pytest.raises(ExactArithmeticError):
                GaussianRational.parse(bad)

    @settings(max_examples=400)
    @given(_parse_texts)
    def test_parse_matches_the_fraction_parser(self, text):
        # The same value, or the same error text, as the Fraction parser.
        assert parse_outcome(GaussianRational.parse, text) == parse_outcome(
            fraction_parse, text
        )

    def test_field_axioms_on_samples(self):
        a = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
        b = GaussianRational(Fraction(-7, 2), Fraction(4))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.inverse() == GaussianRational(1)

    @given(nonzero_gaussians, st.integers(-6, 6))
    def test_integer_powers(self, g, e):
        expected = GaussianRational(1)
        for _ in range(abs(e)):
            expected = expected * (g if e > 0 else g.inverse())
        assert g ** e == expected

    def test_zero_inverse_rejected(self):
        with pytest.raises(ExactArithmeticError):
            GaussianRational(0).inverse()

    @given(nonzero_gaussians, nonzero_gaussians)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()


class FractionPair:
    """Reference Q(i): a pair of ``Fraction``s, with textbook formulas."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(g):
        return FractionPair(g.re, g.im)

    def __eq__(self, other):
        return (self.re, self.im) == (other.re, other.im)

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __mul__(self, o):
        return FractionPair(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        return FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def __pow__(self, e):
        result = FractionPair(1)
        for _ in range(abs(e)):
            result = result * (self if e > 0 else self.inverse())
        return result

    def text(self):
        def frac(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        if self.im == 0:
            return frac(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{frac(self.re)}{sign}{frac(abs(self.im))}*i"


def agrees(g, ref):
    """``g`` equals the reference value and its triple is in lowest terms."""
    a, b, d = g._a, g._b, g._d
    return d > 0 and gcd(a, b, d) == 1 and FractionPair.of(g) == ref


wide_gaussians = st.builds(
    GaussianRational,
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
)


class TestAgainstFractionPairs:
    @settings(max_examples=200)
    @given(wide_gaussians, wide_gaussians)
    def test_binary_operations(self, x, y):
        rx, ry = FractionPair.of(x), FractionPair.of(y)
        assert agrees(x + y, rx + ry)
        assert agrees(x - y, rx - ry)
        assert agrees(x * y, rx * ry)
        if not y.is_zero():
            assert agrees(x / y, rx / ry)
        else:
            with pytest.raises(ExactArithmeticError):
                x / y

    @settings(max_examples=200)
    @given(wide_gaussians, st.integers(-7, 7))
    def test_unary_operations_and_powers(self, x, e):
        rx = FractionPair.of(x)
        assert agrees(-x, -rx)
        assert agrees(x.conjugate(), rx.conjugate())
        assert x.norm() == rx.norm()
        assert x.is_zero() == (rx == FractionPair(0))
        assert x.is_one() == (rx == FractionPair(1))
        if x.is_zero():
            with pytest.raises(ExactArithmeticError):
                x.inverse()
            assert x ** max(e, 0) == (GaussianRational(1) if e <= 0 else x)
        else:
            assert agrees(x.inverse(), rx.inverse())
            assert agrees(x ** e, rx ** e)

    @given(wide_gaussians, st.integers(-5, 5), st.fractions(max_denominator=50))
    def test_mixed_operands(self, x, n, q):
        rx = FractionPair.of(x)
        assert agrees(x + n, rx + FractionPair(n))
        assert agrees(n + x, rx + FractionPair(n))
        assert agrees(x * q, rx * FractionPair(q))
        assert agrees(q * x, rx * FractionPair(q))
        assert agrees(x - q, rx - FractionPair(q))

    @settings(max_examples=200)
    @given(wide_gaussians)
    def test_text_round_trip(self, x):
        text = str(x)
        assert text == FractionPair.of(x).text()
        assert GaussianRational.parse(text) == x
        assert repr(x) == f"GaussianRational({text!r})"

    @given(wide_gaussians, wide_gaussians.filter(lambda g: not g.is_zero()))
    def test_equality_and_hash_laws(self, x, y):
        same = (x * y) / y
        assert same == x and hash(same) == hash(x)
        assert GaussianRational(x.re, x.im) == x
        assert hash(GaussianRational(x.re, x.im)) == hash(x)
        assert (x == y) == (FractionPair.of(x) == FractionPair.of(y))
        assert len({x, same, GaussianRational.parse(str(x))}) == 1
        assert x != x.re and GaussianRational(1) != 1

    @given(wide_gaussians)
    def test_copy_and_pickle_round_trips(self, x):
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert copy.deepcopy([x])[0] == x
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert back == x and hash(back) == hash(x) and agrees(back, FractionPair.of(x))

    def test_immutable(self):
        x = GaussianRational(Fraction(1, 2), 3)
        for name in ("re", "im", "_a", "_d", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 5)
        with pytest.raises(AttributeError):
            del x._a
        assert x == GaussianRational.parse("1/2+3*i")


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class TestSmithNormalForm:
    def test_identity(self):
        dec = snf(identity(3))
        assert dec.factors == dec.invariant_factors() == (1, 1, 1)

    def test_zero_matrix(self):
        dec = snf(zero(2, 3))
        assert dec.rank == 0 and dec.factors == ()

    def test_hand_example(self):
        dec = snf(IntMatrix([[2, 4], [6, 8]]))
        assert dec.invariant_factors() == (2, 4)

    @settings(max_examples=60)
    @given(small_matrices())
    def test_round_trip_and_divisibility(self, a):
        dec = snf(a)
        assert dec.U * a * dec.V == diagonal(dec.factors, a.shape)
        assert dec.U * dec.U_inv == identity(a.rows)
        assert dec.V * dec.V_inv == identity(a.cols)
        factors = dec.invariant_factors()
        assert all(f > 0 for f in factors)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0

    @settings(max_examples=60)
    @given(small_matrices())
    def test_rank_nullity(self, a):
        assert snf(a).rank + len(kernel_basis(a)) == a.cols

    @settings(max_examples=40)
    @given(small_matrices())
    def test_kernel_annihilated_and_saturated(self, a):
        basis = kernel_basis(a)
        for vec in basis:
            assert all(x == 0 for x in a.apply(vec))
        if basis:
            dec = snf(IntMatrix(list(zip(*basis))))
            assert all(d == 1 for d in dec.invariant_factors())

    @settings(max_examples=30, deadline=None)
    @given(small_matrices(max_dim=4, max_entry=8))
    def test_against_independent_oracle(self, a):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        ours = snf(a).invariant_factors()
        theirs = smith_normal_form(sympy.Matrix(a.data))
        diag = [abs(theirs[i, i]) for i in range(min(a.rows, a.cols))]
        assert list(ours) == [d for d in diag if d != 0]


def integer_lists(length, bound=3):
    return st.lists(st.integers(-bound, bound), min_size=length, max_size=length)


class TestTwoForms:
    """A matrix made from its sparse columns is the matrix made from its rows."""

    @settings(max_examples=60)
    @given(small_matrices(max_entry=3, min_dim=0))
    def test_round_trip(self, a):
        b = IntMatrix.from_columns(a.rows, a.columns)
        assert b.columns == a.columns
        assert b == a and hash(b) == hash(a)
        assert b.shape == a.shape and b.data is b.data

    @settings(max_examples=60)
    @given(small_matrices(max_entry=3, min_dim=0), st.data())
    def test_arithmetic_matches_dense(self, a, data):
        m, n = a.shape
        b = IntMatrix.from_columns(m, a.columns)
        vector = data.draw(integer_lists(n))
        dense = tuple(sum(a.data[i][j] * vector[j] for j in range(n)) for i in range(m))
        assert a.apply(vector) == b.apply(vector) == dense
        k = data.draw(st.integers(0, 3))
        right = [data.draw(integer_lists(n)) for _ in range(k)]  # its columns
        other = IntMatrix.from_columns(
            n, [[(i, x) for i, x in enumerate(column) if x] for column in right]
        )
        expected = tuple(
            tuple(sum(a.data[i][j] * column[j] for j in range(n)) for column in right)
            for i in range(m)
        )
        for left in (a, b):
            product_ = left * other
            assert product_.shape == (m, k) and product_.data == expected
        values = data.draw(st.lists(nonzero_gaussians, min_size=m, max_size=m))
        assert b.pull_back(values) == tuple(
            power_product(values, a.column(j)) for j in range(n)
        )
        # The column form answers all of the above without its dense rows.
        assert "data" not in vars(b) and "data" not in vars(other)
        transposed = b.transpose()
        assert "data" not in vars(transposed) and "data" not in vars(b)
        assert transposed.shape == (n, m)
        assert transposed.data == tuple(
            tuple(a.data[i][j] for i in range(m)) for j in range(n)
        )

    def test_shapes_without_entries(self):
        empty = IntMatrix.from_columns(3, [])
        assert empty.shape == (3, 0) and empty.data == ((), (), ())
        assert empty == IntMatrix([[], [], []]) and empty.apply(()) == (0, 0, 0)
        assert empty.transpose().shape == (0, 3)
        assert empty.transpose() * empty == zero(0, 0)
        wide = IntMatrix.from_columns(0, [(), ()])
        assert wide != IntMatrix([]) and wide.transpose().data == ((), ())
        assert (empty * wide).data == ((0, 0),) * 3
        with pytest.raises(ExactArithmeticError):
            empty.pull_back([GaussianRational(2)])


def reference_snf(A: IntMatrix):
    """The elimination of ``exactnum.snf`` before its fast paths, verbatim.

    ``snf`` must take the same steps: the first pivot of least absolute
    value, the same clearing and the same divisibility repair, so ``U``,
    ``D`` and ``V`` are equal.
    """
    m, n = A.rows, A.cols
    a = [list(r) for r in A.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # Locate a pivot of minimal absolute value in the trailing block.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
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
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
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

    # A matrix with no rows keeps its width in D.
    return IntMatrix(u), IntMatrix(a) if m else zero(0, n), IntMatrix(v)


def check_against_reference(a):
    """Equal transforms and diagonal to the reference's, and the inverses."""
    dec = snf(a)
    assert (dec.U, diagonal(dec.factors, a.shape), dec.V) == reference_snf(a)
    assert dec.U * dec.U_inv == identity(a.rows)
    assert dec.V * dec.V_inv == identity(a.cols)


# A 4 x 3 matrix with entries at most 6 on which the transforms grow: V to
# entries in the tens of thousands, U in the thousands.
GROWING = IntMatrix([(-3, 6, -5), (-6, 2, -3), (-1, 6, 3), (-4, -2, -1)])


class TestSmithNormalFormSteps:
    @settings(max_examples=150)
    @given(
        small_matrices(max_dim=5, max_entry=6, min_dim=0),
        st.sampled_from((1, 2, 3, 6)),
    )
    def test_same_transforms_as_the_reference(self, a, scale):
        # Scaling every entry leaves no unit pivot, so the divisibility
        # repair and the full pivot scan run too.
        check_against_reference(IntMatrix([[scale * x for x in row] for row in a.data]))

    @pytest.mark.parametrize(
        "a",
        [
            zero(0, 3),
            IntMatrix.from_columns(0, [(), ()]),
            IntMatrix([[], [], []]),
            IntMatrix([]),
            GROWING,
        ],
        ids=["0x3", "0x2", "3x0", "0x0", "growing"],
    )
    def test_shapes_without_entries_and_growing_transforms(self, a):
        check_against_reference(a)

    def test_same_transforms_on_bundled_pairs(self):
        from logcy3.fixtures import pair_fixtures, scaling_pair
        from logcy3.periods import edge_matching_map

        for pair in [*pair_fixtures().values(), scaling_pair(2, 8)]:
            for a in (edge_matching_map(pair), pair.restriction_matrix()):
                check_against_reference(a)


class TestWidthAndCoordinates:
    def test_a_matrix_with_no_rows_keeps_its_width(self):
        empty = zero(0, 3)
        assert empty.shape == (0, 3) and empty.transpose().shape == (3, 0)
        dec = snf(empty)
        assert dec.U.shape == (0, 0) and dec.V.shape == (3, 3) and dec.factors == ()
        assert dec.kernel() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert dec.cokernel() == (0, ())
        # A document's empty matrix names no width.
        assert IntMatrix([]).shape == (0, 0)

    @settings(max_examples=80)
    @given(small_matrices(max_dim=4, max_entry=4), st.data())
    def test_coordinates_vanish_before_the_rank_exactly_on_the_kernel(self, a, data):
        dec = snf(a)
        kernel = dec.kernel()
        weights = tuple(data.draw(integer_lists(len(kernel))))
        in_kernel = tuple(
            sum(w * vector[i] for w, vector in zip(weights, kernel))
            for i in range(a.cols)
        )
        assert dec.coordinates(in_kernel)[dec.rank:] == weights
        for x in (in_kernel, tuple(data.draw(integer_lists(a.cols)))):
            coordinates = dec.coordinates(x)
            assert dec.V.apply(coordinates) == x
            assert (not any(coordinates[: dec.rank])) == (not any(a.apply(x)))


class TestKernelAndCokernel:
    def test_kernel_examples(self):
        assert kernel_basis(identity(4)) == []
        basis = kernel_basis(IntMatrix([[2, -2]]))
        assert len(basis) == 1
        assert tuple(map(abs, basis[0])) == (1, 1) and basis[0][0] == basis[0][1]

    def test_cokernel_examples(self):
        assert snf(identity(3)).cokernel() == (0, ())
        assert snf(IntMatrix([[2]])).cokernel() == (0, (2,))
        assert snf(IntMatrix([[1, 0], [0, 1], [0, 0]])).cokernel() == (1, ())

    def test_solve_integer(self):
        a = IntMatrix([[2, 0], [0, 3]])
        assert solve_integer(a, (4, 9)) == (2, 3)
        assert solve_integer(a, (1, 0)) is None

    @settings(max_examples=40, deadline=None)
    @given(small_matrices(), st.data())
    def test_factored_solve_against_independent_oracle(self, a, data):
        # One factorization serves several right-hand sides.  A system is
        # solvable iff appending b keeps the rank and the product of the
        # invariant factors (sympy), i.e. b lies in the column lattice.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        def factors(rows):
            d = smith_normal_form(sympy.Matrix(rows))
            return [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]

        entries = st.integers(-6, 6)
        x0 = data.draw(st.lists(entries, min_size=a.cols, max_size=a.cols))
        b_any = data.draw(st.lists(entries, min_size=a.rows, max_size=a.rows))
        dec = snf(a)
        for b in (a.apply(x0), tuple(b_any)):
            x = dec.solve(b)
            assert x == solve_integer(a, b)
            augmented = [row + (y,) for row, y in zip(a.data, b)]
            f, f_aug = factors(a.data), factors(augmented)
            solvable = len(f) == len(f_aug) and prod(f) == prod(f_aug)
            assert (x is not None) == solvable
            if x is not None:
                assert a.apply(x) == tuple(b)

    @settings(max_examples=60, deadline=None)
    @given(elementary_products())
    def test_invert_unimodular_against_sympy(self, u):
        sympy = pytest.importorskip("sympy")
        expected = sympy.Matrix(u.data).inv()
        assert invert_unimodular(u).data == tuple(
            tuple(int(x) for x in expected.row(i)) for i in range(u.rows)
        )

    def test_invert_snf_transforms_of_bundled_pairs_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from logcy3.documents import load_pair
        from logcy3.periods import edge_matching_map

        data = importlib.resources.files("logcy3").joinpath("data")
        paths = [e for e in data.iterdir() if e.name.endswith(".pair.json")]
        assert len(paths) == 8
        for path in paths:
            u = snf(edge_matching_map(load_pair(path)[0])).U
            expected = sympy.Matrix(u.data).inv()
            assert invert_unimodular(u).data == tuple(
                tuple(int(x) for x in expected.row(i)) for i in range(u.rows)
            )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0, 0], [0, 1, 0]], "not square"),
            ([[1, 2], [2, 4]], "singular"),
            ([[2, 0], [0, 0]], "singular"),
            ([[2, 1], [0, 1]], "not unimodular"),
        ],
        ids=["non-square", "singular", "singular-after-bad-pivot", "determinant-2"],
    )
    def test_invert_unimodular_rejects(self, rows, message):
        with pytest.raises(ExactArithmeticError, match=message):
            invert_unimodular(IntMatrix(rows))

    @settings(max_examples=40)
    @given(small_matrices())
    def test_invert_unimodular_round_trip(self, a):
        dec = snf(a)
        for u in (dec.U, dec.V):
            inv = invert_unimodular(u)
            assert u * inv == identity(u.rows)


# ---------------------------------------------------------------------------
# The power-product kernel
# ---------------------------------------------------------------------------


def reference_power(v, e):
    """``v ** e`` by repeated multiplication, independent of the kernel."""
    base = v if e >= 0 else v.inverse()
    result = GaussianRational(1)
    for _ in range(abs(e)):
        result = result * base
    return result


def reference_power_product(values, exponents):
    """The per-factor ``result * (v ** e)`` product the kernel replaced."""
    result = GaussianRational(1)
    for v, e in zip(values, exponents, strict=True):
        if e:
            result = result * reference_power(v, e)
    return result


def triple(x):
    return x._a, x._b, x._d


def outcome_of(function, *args):
    try:
        return triple(function(*args))
    except ExactArithmeticError as exc:
        return type(exc), str(exc)


def reference_violated_relation(dec, targets):
    """The first dense kernel column of ``V`` on which the targets are not 1."""
    columns = list(zip(*dec.V.data))
    for k in range(dec.rank, dec.V.rows):
        if not reference_power_product(targets, columns[k]).is_one():
            return columns[k]
    return None


def reference_solve(dec, targets):
    """The column system solved on dense ``V`` columns and ``U`` rows."""
    relation = reference_violated_relation(dec, targets)
    if relation is not None:
        return "unsolvable", relation
    columns = list(zip(*dec.V.data))
    y = [GaussianRational(1)] * dec.U.rows
    for i, d in enumerate(dec.invariant_factors()):
        s = reference_power_product(targets, columns[i])
        root = nth_root(s, d)
        if root is None:
            return "complex_only", (d, s)
        y[i] = root
    # h(e_r) = prod_i y_i ** U[i, r], one factor per row of U.
    h = [GaussianRational(1)] * dec.U.rows
    for i, row in enumerate(dec.U.data):
        for r, x in enumerate(row):
            h[r] = h[r] * reference_power(y[i], x)
    return "solved", h


factor_lists = st.lists(st.tuples(gaussians, st.integers(-6, 6)), max_size=8)


class TestPowerProductKernel:
    @settings(max_examples=120)
    @given(factor_lists)
    def test_same_triples_as_the_per_factor_product(self, factors):
        values = [v for v, _ in factors]
        exponents = [e for _, e in factors]
        expected = outcome_of(reference_power_product, values, exponents)
        assert outcome_of(power_product_of, factors) == expected
        assert outcome_of(power_product, values, exponents) == expected

    @given(gaussians, st.integers(-6, 6))
    def test_a_power_is_a_one_factor_product(self, v, e):
        assert outcome_of(pow, v, e) == outcome_of(reference_power, v, e)

    def test_zero_to_a_negative_power_is_rejected(self):
        two, zero = GaussianRational(2), GaussianRational(0)
        with pytest.raises(ExactArithmeticError, match="division by zero in Q"):
            power_product_of([(two, 3), (zero, -1)])
        with pytest.raises(ExactArithmeticError, match="division by zero in Q"):
            power_product([zero], [-2])
        assert power_product_of([(zero, 0), (two, -1)]) == GaussianRational(1, 0) / 2
        assert power_product_of([(zero, 2), (two, -1)]).is_zero()

    def test_length_mismatch_is_rejected(self):
        one = GaussianRational(1)
        with pytest.raises(ValueError):
            power_product([one, one], [1])
        with pytest.raises(ValueError):
            power_product([one], [1, 0])

    @settings(max_examples=60)
    @given(small_matrices(max_dim=4, max_entry=3), st.data())
    def test_pull_back_against_the_reference(self, a, data):
        values = data.draw(st.lists(nonzero_gaussians, min_size=a.rows, max_size=a.rows))
        expected = tuple(
            reference_power_product(values, a.column(j)) for j in range(a.cols)
        )
        assert tuple(map(triple, a.pull_back(values))) == tuple(map(triple, expected))

    @settings(max_examples=30, deadline=None)
    @given(small_matrices(max_dim=3, max_entry=2), st.data())
    def test_torus_solves_against_the_reference(self, a, data):
        coordinates = ((2, 0), (1, 1), (1, -1), (3, 0), (0, 1), (1, 2))
        small = st.sampled_from([GaussianRational(x, y) for x, y in coordinates])
        targets = data.draw(st.lists(small, min_size=a.cols, max_size=a.cols))
        dec = snf(a)
        status, answer = dec.solve_over_gaussian_torus(targets)
        expected_status, expected = reference_solve(dec, targets)
        assert status == expected_status
        if status == "solved":
            assert list(map(triple, answer)) == list(map(triple, expected))
        elif status == "complex_only":
            assert answer[0] == expected[0]
            assert triple(answer[1]) == triple(expected[1])
        else:
            assert tuple(answer) == tuple(expected)


# ---------------------------------------------------------------------------
# Torus solvability
# ---------------------------------------------------------------------------


def values_on_columns(a, h):
    """``h(A e_j)`` for each column j of ``a``."""
    return [power_product(h, a.column(j)) for j in range(a.cols)]


class TestTorusSolvability:
    """The system ``h(A e_j) = targets[j]`` for a character ``h`` on ``Z^rows``."""

    def test_identity_always_solvable(self):
        targets = [GaussianRational(5), GaussianRational(0, 1)]
        assert snf(identity(2)).solve_over_gaussian_torus(targets) == (
            "solved",
            targets,
        )

    def test_forced_inconsistency(self):
        # Both columns are 1, so h(1) cannot be both 2 and 3.
        targets = [GaussianRational(2), GaussianRational(3)]
        status, cert = snf(IntMatrix([[1, 1]])).solve_over_gaussian_torus(targets)
        assert status == "unsolvable"
        assert IntMatrix([[1, 1]]).apply(cert) == (0,)
        assert not power_product(targets, cert).is_one()

    def test_divisibility_of_the_torus(self):
        status, h = snf(IntMatrix([[2]])).solve_over_gaussian_torus([GaussianRational(4)])
        assert status == "solved" and h == [GaussianRational(2)]

    def test_zero_target_rejected(self):
        with pytest.raises(ExactArithmeticError, match="targets must be nonzero"):
            snf(IntMatrix([[1]])).solve_over_gaussian_torus([GaussianRational(0)])
        with pytest.raises(ExactArithmeticError, match="one target per column"):
            snf(IntMatrix([[1, 0]])).solve_over_gaussian_torus([GaussianRational(2)])

    def test_unimodular_row_invariance(self):
        # A row operation W on A leaves the solvable systems alone: h solves
        # W A exactly when h o W solves A.
        a = IntMatrix([[1, 3, 4], [2, 4, 6]])
        a2 = IntMatrix([[1, 3, 4], [3, 7, 10]])  # row 1 += row 0
        for targets in (
            [GaussianRational(2), GaussianRational(3), GaussianRational(6)],
            [GaussianRational(2), GaussianRational(8), GaussianRational(8)],
        ):
            status, h = snf(a).solve_over_gaussian_torus(targets)
            status2, h2 = snf(a2).solve_over_gaussian_torus(targets)
            assert status == status2
            if status == "solved":
                assert values_on_columns(a, h) == values_on_columns(a2, h2) == targets

    def test_gaussian_solution_verifies(self):
        a = IntMatrix([[2, 0], [1, 1]])
        targets = [GaussianRational(24), GaussianRational(6)]
        status, h = snf(a).solve_over_gaussian_torus(targets)
        assert status == "solved"
        assert values_on_columns(a, h) == targets

    def test_gaussian_complex_only(self):
        status, witness = snf(IntMatrix([[2]])).solve_over_gaussian_torus(
            [GaussianRational(2)]
        )
        assert status == "complex_only"
        assert witness[0] == 2

    @settings(max_examples=30, deadline=None)
    @given(small_matrices(max_dim=3, max_entry=2), st.data())
    def test_one_factorization_solves_and_certifies(self, a, data):
        # Targets made from a Q(i)* point are solvable.  The matrices and
        # the point's Gaussian integer coordinates are small because snf
        # lets its transforms grow, and the solve raises the targets to
        # powers as large as the transforms' entries.
        coordinates = ((2, 0), (1, 1), (1, -1), (3, 0), (0, 1))
        small = st.sampled_from([GaussianRational(x, y) for x, y in coordinates])
        point = data.draw(st.lists(small, min_size=a.rows, max_size=a.rows))
        targets = values_on_columns(a, point)
        dec = snf(a)
        status, h = dec.solve_over_gaussian_torus(targets)
        assert status in ("solved", "complex_only")
        if status == "solved":
            assert values_on_columns(a, h) == targets
        # Breaking one target breaks a relation, when there is one.
        bent = [targets[0] * GaussianRational(2)] + targets[1:]
        status, relation = dec.solve_over_gaussian_torus(bent)
        if status == "unsolvable":
            assert not any(a.apply(relation))
            assert not power_product(bent, relation).is_one()

    def test_gaussian_unsolvable(self):
        status, relation = snf(IntMatrix([[1, 1]])).solve_over_gaussian_torus(
            [GaussianRational(2), GaussianRational(3)]
        )
        assert status == "unsolvable" and relation is not None


class TestNthRoot:
    @pytest.mark.parametrize(
        "value, n, expected",
        [
            ("4", 2, "2"),
            ("-1", 2, "i"),
            ("-4", 2, "2*i"),
            ("8", 3, "2"),
            ("1/9", 2, "1/3"),
            ("2*i", 2, "1+i"),
        ],
    )
    def test_roots_exist(self, value, n, expected):
        root = nth_root(GaussianRational.parse(value), n)
        assert root is not None
        assert root ** n == GaussianRational.parse(value)
        assert root == GaussianRational.parse(expected) or (-root) == GaussianRational.parse(expected)

    @pytest.mark.parametrize("value, n", [("2", 2), ("i", 2), ("3", 3), ("-2", 2)])
    def test_roots_missing(self, value, n):
        assert nth_root(GaussianRational.parse(value), n) is None

    small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
    small_gaussians = st.builds(GaussianRational, small_fractions, small_fractions).filter(
        lambda g: not g.is_zero()
    )

    @given(small_gaussians, st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_root_of_power_recovers_up_to_unit(self, g, n):
        root = nth_root(g ** n, n)
        assert root is not None
        assert root ** n == g ** n
        # Every root is g times a unit; the one returned comes first by
        # (real part, imaginary part), largest first.
        roots = [g * u for u in UNITS if (g * u) ** n == g ** n]
        assert root == max(roots, key=lambda r: (r.re, r.im))

    @pytest.mark.parametrize(
        "value, n, expected",
        [("16", 4, "2"), ("-4", 2, "2*i"), ("1/2*i", 2, "1/2+1/2*i"), ("1", 6, "1")],
    )
    def test_choice_of_root(self, value, n, expected):
        root = nth_root(GaussianRational.parse(value), n)
        assert root == GaussianRational.parse(expected)

    def test_large_inputs_answer_without_factoring(self):
        # 3p^2 + 4 = 7 * 97 * 271 * 19699 * 827633401178743795021, so
        # trial division of its norm would run to about 2.9e10.
        p = 10 ** 15 + 37
        start = time.perf_counter()
        assert nth_root(GaussianRational(3 * p * p + 4), 2) is None
        square = GaussianRational(p, 7) ** 2 / GaussianRational(p + 2) ** 2
        root = nth_root(square, 2)
        elapsed = time.perf_counter() - start
        assert root == GaussianRational(Fraction(p, p + 2), Fraction(7, p + 2))
        assert elapsed < 0.1

    def test_root_exists_exactly_when_sympy_finds_a_linear_factor(self):
        # X**n - x has a root in Q(i) exactly when it has a factor of degree
        # 1 over Q(i); sympy factors it over the field Q(i) independently.
        import sympy

        field = sympy.QQ.algebraic_field(sympy.I)
        qq = sympy.QQ
        X = sympy.Symbol("X")
        rng = random.Random(20240)

        def draw():
            while True:
                g = GaussianRational(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
                    Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
                )
                if not g.is_zero():
                    return g

        found = 0
        for case in range(40):
            n = rng.choice((2, 3, 4, 5, 6, 8))
            x = draw()
            if case % 2 == 0:
                x = x ** n
                if case % 4 == 2:
                    x = x * rng.choice(UNITS + [GaussianRational(2)])
            value = field([qq(x.im.numerator, x.im.denominator),
                           qq(x.re.numerator, x.re.denominator)])
            coeffs = [field.one] + [field.zero] * (n - 1) + [-value]
            _, factors = sympy.Poly(coeffs, X, domain=field).factor_list()
            linear = any(f.degree() == 1 for f, _ in factors)
            root = nth_root(x, n)
            assert (root is not None) == linear, (str(x), n)
            if root is not None:
                assert root ** n == x
                found += 1
        assert 0 < found < 40
