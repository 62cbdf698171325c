"""The package's immutable value types compare, hash and print as frozen
dataclasses with the same fields do.

Each case makes one small value twice from equal fields.  The expected
``repr`` is the dataclass form: the class name, then ``name=repr(value)``
for every field shown.
"""

import pytest

from logcy3.boundary import ExceptionalClass, LooijengaComponent, Marking
from logcy3.exactnum import GaussianRational, IntMatrix, SnfDecomposition
from logcy3.pair import CurveBlowup, PicVector, PointBlowup
from logcy3.periods import PeriodCharacter
from logcy3.torelli import Correspondence, Verdict
from logcy3.toric import (
    DualComplex,
    Fan2,
    Fan3,
    ToricIntersectionData,
    ToricLayer,
    ToricPicBasis,
)

G = GaussianRational
RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
CONES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
FAN_REPR = (
    "Fan3(rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), "
    "max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), orientation=((0, 1, 2), 1))"
)
FAN2_REPR = "Fan2(vertex=0, rays=((1, 0), (0, 1), (-1, -1)), labels=(1, 2, 3))"
BASIS_REPR = f"ToricPicBasis(fan={FAN_REPR}, seed=(0, 1, 2), basis_rays=(3,))"
ONE = "IntMatrix(shape=(1, 1), data=((1,),))"


def fan2():
    return Fan2(0, ((1, 0), (0, 1), (-1, -1)), (1, 2, 3))


def basis():
    return ToricPicBasis(Fan3(RAYS, CONES), (0, 1, 2), (3,))


# class, a maker of one value, its fields, whether it hashes, its repr
CASES = [
    (
        ExceptionalClass,
        lambda: ExceptionalClass(1, G(2), 0),
        ("neighbor", "coordinate", "step"),
        True,
        "ExceptionalClass(neighbor=1, coordinate=GaussianRational('2'), step=0)",
    ),
    (
        Marking,
        lambda: Marking(((frozenset((0, 1)), G(-1)),)),
        ("points",),
        True,
        "Marking(points=((frozenset({0, 1}), GaussianRational('-1')),))",
    ),
    (
        LooijengaComponent,
        lambda: LooijengaComponent(fan2(), (ExceptionalClass(1, G(2), 0),), (True, False, True)),
        ("base", "excs", "head_sides"),
        True,
        f"LooijengaComponent(base={FAN2_REPR}, excs=(ExceptionalClass(neighbor=1, "
        "coordinate=GaussianRational('2'), step=0),), head_sides=(True, False, True))",
    ),
    (
        SnfDecomposition,
        lambda: SnfDecomposition(*(IntMatrix([[1]]) for _ in range(4)), (1,)),
        ("U", "V", "U_inv", "V_inv", "factors"),
        True,
        f"SnfDecomposition(U={ONE}, V={ONE}, U_inv={ONE}, V_inv={ONE}, factors=(1,))",
    ),
    (
        PicVector,
        lambda: PicVector([1, 2], "toric"),
        ("coords", "basis"),
        True,
        "PicVector(coords=(1, 2), basis='toric')",
    ),
    (
        PointBlowup,
        lambda: PointBlowup((0, 1), G(2)),
        ("edge", "coordinate"),
        True,
        "PointBlowup(edge=(0, 1), coordinate=GaussianRational('2'))",
    ),
    (
        CurveBlowup,
        lambda: CurveBlowup(3, (2,), ((0, (G(2),)),)),
        ("component", "curve_class", "points"),
        True,
        "CurveBlowup(component=3, curve_class=(2,), points=((0, (GaussianRational('2'),)),))",
    ),
    (
        PeriodCharacter,
        lambda: PeriodCharacter(((1, 0),), (G(2),)),
        ("basis", "values"),
        True,
        "PeriodCharacter(basis=((1, 0),), values=(GaussianRational('2'),))",
    ),
    (
        Correspondence,
        lambda: Correspondence(((0, 0),), (0,), IntMatrix([[1]])),
        ("vertex_map", "step_map", "mu", "mu_components"),
        True,
        f"Correspondence(vertex_map=((0, 0),), step_map=(0,), mu={ONE}, mu_components=())",
    ),
    (
        Verdict,
        lambda: Verdict("isomorphic", "periods agree", {"check": "period"}),
        ("kind", "reason", "certificate"),
        False,
        "Verdict(kind='isomorphic', reason='periods agree', certificate={'check': 'period'})",
    ),
    (
        Fan3,
        lambda: Fan3(RAYS, CONES),
        ("rays", "max_cones", "orientation"),
        True,
        FAN_REPR,
    ),
    (
        DualComplex,
        lambda: DualComplex((0, 1, 2), ((0, 1), (1, 2)), ((0, 1, 2),)),
        ("vertices", "edges", "triangles"),
        True,
        "DualComplex(vertices=(0, 1, 2), edges=((0, 1), (1, 2)), triangles=((0, 1, 2),))",
    ),
    (
        ToricPicBasis,
        basis,
        ("fan", "seed", "basis_rays"),
        True,
        BASIS_REPR,
    ),
    (
        Fan2,
        fan2,
        ("vertex", "rays", "labels"),
        True,
        FAN2_REPR,
    ),
    (
        ToricLayer,
        lambda: ToricLayer(basis(), {(0, 0, 0): 1}, (fan2(),), ({0: (1,)},), (-4,)),
        ("basis", "tensor", "surfaces", "restriction", "canonical"),
        True,
        f"ToricLayer(basis={BASIS_REPR}, tensor={{(0, 0, 0): 1}}, surfaces=({FAN2_REPR},), "
        "restriction=({0: (1,)},), canonical=(-4,))",
    ),
    (
        ToricIntersectionData,
        lambda: ToricIntersectionData(3, frozenset({frozenset((0, 1, 2))}), {(0, 1): (1, 1)}),
        ("n_vertices", "cones", "wall_curves"),
        False,
        "ToricIntersectionData(n_vertices=3, cones=frozenset({frozenset({0, 1, 2})}), "
        "wall_curves={(0, 1): (1, 1)})",
    ),
]


@pytest.mark.parametrize(
    "cls, make, fields, hashable, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_type_parity(cls, make, fields, hashable, text):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert repr(a) == text
    values = tuple(getattr(a, name) for name in fields)
    assert values == tuple(getattr(b, name) for name in fields)
    if cls is ToricLayer:
        # One layer is held per fan; layers compare and hash by identity.
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        assert a != values and (a == values) is False
    if hashable and cls is not ToricLayer:
        assert hash(a) == hash(b)
        # Marking holds the hash of its points; the rest hash the field tuple.
        assert hash(a) == (hash(a.points) if cls is Marking else hash(values))
    elif not hashable:
        with pytest.raises(TypeError):
            hash(a)
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in fields) == values


def test_marking_holds_its_hash():
    marking = Marking(((frozenset((0, 1)), G(-1)),))
    assert "_hash" not in vars(marking)
    assert hash(marking) == hash(marking.points) == vars(marking)["_hash"]


def test_derived_values_stay_out_of_equality():
    fan, fresh = Fan3(RAYS, CONES), Fan3(RAYS, CONES)
    assert fan.walls() and "_walls" in vars(fan) and "_walls" not in vars(fresh)
    assert fan == fresh and hash(fan) == hash(fresh)
    surface, other = fan2(), fan2()
    assert surface.wall_coefficients == (-1, -1, -1)
    object.__setattr__(other, "wall_coefficients", ())
    assert surface == other and hash(surface) == hash(other)
    assert "wall_coefficients" not in repr(surface)


@pytest.mark.parametrize(
    "value", [GaussianRational(1, 2), IntMatrix([[1, 2]])], ids=["GaussianRational", "IntMatrix"]
)
def test_numbers_and_matrices_share_the_guard(value):
    for name in ("shape", "_a", "other"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)


# The cases whose class stores its fields with Frozen's own constructor.
GENERIC = [case for case in CASES if "__init__" not in vars(case[0])]


@pytest.mark.parametrize(
    "cls, make, fields", [case[:3] for case in GENERIC], ids=[case[0].__name__ for case in GENERIC]
)
def test_generic_constructor(cls, make, fields):
    a = make()
    values = tuple(getattr(a, name) for name in fields)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    for b in (by_keyword, mixed):
        assert type(b) is cls and tuple(getattr(b, name) for name in fields) == values
        # One layer is held per fan; layers compare by identity.
        assert (b == a) is (cls is not ToricLayer)
    wrong = {
        "missing": lambda: cls(*values[:-1]),
        "extra": lambda: cls(*values, None),
        "unknown": lambda: cls(*values, other=None),
        "repeated": lambda: cls(*values, **{fields[0]: values[0]}),
    }
    for build in wrong.values():
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes the fields"):
            build()
