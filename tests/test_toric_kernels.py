"""The closed-form integer kernels of the fan layer against general references.

The kernels of ``logcy3.toric`` are written out entry by entry.  Each is
checked here against the general form it was written out from: the
cofactor inverse of a unimodular matrix, the candidate-multiple rule for a
2d wall relation, and a summed matrix product.
"""

from hypothesis import given
from hypothesis import strategies as st

from logcy3 import toric
from logcy3.toric import FanError

ENTRIES = st.integers(-6, 6)
VECTORS = st.tuples(ENTRIES, ENTRIES, ENTRIES)
MATRICES = st.tuples(VECTORS, VECTORS, VECTORS)
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def outcome(kernel, *args):
    """What ``kernel`` gives: its value, or the text of its ``FanError``."""
    try:
        return "value", kernel(*args)
    except FanError as exc:
        return "FanError", str(exc)


def product(a, b):
    """The plain matrix product of two 3x3 matrices given by rows."""
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(3)) for c in range(3))
        for r in range(3)
    )


def reference_inverse_unimodular(cols):
    """The inverse by cofactors: the adjugate times the determinant."""
    m = [[col[r] for col in cols] for r in range(3)]
    d = sum(
        m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3] - m[1][(j + 2) % 3] * m[2][(j + 1) % 3])
        for j in range(3)
    )
    if abs(d) != 1:
        raise FanError("matrix is not unimodular")
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return tuple(tuple(x * d for x in row) for row in cof)


@st.composite
def unimodular_columns(draw):
    """The columns of a product of elementary matrices, entries in [-6, 6].

    Each step adds a multiple of one row to another, swaps two rows or
    negates one; an addition that would leave [-6, 6] is skipped.
    """
    rows = [list(row) for row in IDENTITY]
    steps = st.tuples(
        st.sampled_from(("add", "swap", "negate")),
        st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
    )
    for kind, i, j, c in draw(st.lists(steps, max_size=10)):
        if kind == "add" and i != j:
            row = [x + c * y for x, y in zip(rows[i], rows[j])]
            if max(map(abs, row)) <= 6:
                rows[i] = row
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
    return tuple(zip(*rows))


class TestInverseUnimodular:
    @given(unimodular_columns())
    def test_unimodular_matrices(self, cols):
        inverse = toric._inverse_unimodular(cols)
        assert inverse == reference_inverse_unimodular(cols)
        # Row k of the inverse pairs 1 with column k and 0 with the others.
        assert product(inverse, tuple(zip(*cols))) == IDENTITY

    @given(MATRICES)
    def test_any_matrix(self, cols):
        expected = outcome(reference_inverse_unimodular, cols)
        assert outcome(toric._inverse_unimodular, cols) == expected
        if expected[0] == "FanError":
            assert expected[1] == "matrix is not unimodular"


def reference_solve_wall_coefficient(rays, i):
    """The c with u_{i-1} + u_{i+1} = c * u_i, tried over candidate multiples."""
    k = len(rays)
    u_prev, u, u_next = rays[(i - 1) % k], rays[i], rays[(i + 1) % k]
    s = (u_prev[0] + u_next[0], u_prev[1] + u_next[1])
    candidates = []
    if u[0] != 0 and s[0] % u[0] == 0:
        candidates.append(s[0] // u[0])
    if u[1] != 0 and s[1] % u[1] == 0:
        candidates.append(s[1] // u[1])
    if s == (0, 0):
        candidates.append(0)
    for c in candidates:
        if (c * u[0], c * u[1]) == s:
            return c
    raise FanError(f"rays around index {i} are not a smooth 2d fan")


PLANE = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def ray_triples(draw):
    """Three 2d rays: arbitrary, or with u_0 + u_2 a multiple of u_1."""
    u_prev, u = draw(PLANE), draw(PLANE)
    if draw(st.booleans()):
        c = draw(st.integers(-4, 4))
        return u_prev, u, (c * u[0] - u_prev[0], c * u[1] - u_prev[1])
    return u_prev, u, draw(PLANE)


class TestWallCoefficient:
    @given(ray_triples(), st.integers(0, 2))
    def test_matches_the_candidate_multiples(self, rays, i):
        assert outcome(toric._solve_wall_coefficient, rays, i) == outcome(
            reference_solve_wall_coefficient, rays, i
        )


class TestFrameMap:
    @given(MATRICES, MATRICES, VECTORS)
    def test_frame_map_and_apply3_are_matrix_products(self, inverse, frame, vec):
        # The matrix with columns ``frame``, times ``inverse``.
        expected = product(tuple(zip(*frame)), inverse)
        m = toric._frame_map(inverse, frame)
        assert tuple(map(tuple, m)) == expected
        assert toric._apply3(m, vec) == tuple(
            sum(expected[r][c] * vec[c] for c in range(3)) for r in range(3)
        )
