"""The ``Record`` contract: every value type behaves like the frozen
dataclass it replaced, checked against a ``make_dataclass`` twin."""

import copy
import dataclasses
import importlib
import importlib.util
import pickle
import pkgutil
import types
import typing
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlocus
from singlocus import descent, graphs, toric, topology
from singlocus.descent import DescentDiagram, PicInvariants, assemble_diagram, gauge
from singlocus.errors import InvalidValue, SingLocusError
from singlocus.examples import circular_ladder_graph, p3_fan, theta_graph
from singlocus.graphs import (
    CompactEdge,
    DecoratedGraph,
    DualSurface,
    Leg,
    flip_vertex,
    validate_graph,
)
from singlocus.intlinalg import SparseColumns, cokernel_abelian_group
from singlocus.errors import FrozenInstanceError, Record
from singlocus.serialize import graph_from_json, parse_rational
from singlocus.toric import Fan, WallReport, validate_fan, wall_data
from singlocus.topology import H1Result, NodalCurveReport

from models import (
    EdgeAut,
    FiniteCategory,
    Monomial,
    PantsPresentation,
    TriangleConstraintViolated,
    TwoPerE,
    TwoPerV,
    VertexAut,
    build_i,
    build_j,
)
from oracles import SmithForm

RECORDS = (
    DescentDiagram, PicInvariants,
    CompactEdge, Leg, DecoratedGraph, DualSurface, FiniteCategory,
    SmithForm, SparseColumns,  # SmithForm: the snf oracle's record
    Monomial, TwoPerE, EdgeAut, TwoPerV, VertexAut, PantsPresentation,
    Fan, WallReport,
    H1Result, NodalCurveReport,
)
# The records that callers build; the library builds the others.
INPUT_RECORDS = (
    CompactEdge, Leg, DecoratedGraph, Fan, SparseColumns, DescentDiagram,
    EdgeAut, Monomial, TwoPerE, TwoPerV, VertexAut, PantsPresentation,
)

# Field values of record type are drawn from these instances.
SAMPLES = {
    CompactEdge: [CompactEdge((0, 3)), CompactEdge((1, 4), twist=2, holonomy=Fraction(1, 2))],
    Leg: [Leg(5)],
    DecoratedGraph: [theta_graph(), theta_graph(twists=(1, 0, 2))],
    EdgeAut: [EdgeAut(-1, 2, Fraction(1, 2), 3, 1)],
    SparseColumns: [SparseColumns(2, ({0: 1},)), SparseColumns(0, ())],
}
# Fields whose valid values a type does not describe.
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# A diagram needs one transition per compact edge of its graph, so they
# are drawn from diagrams assembled on the sample graphs.
DIAGRAMS = [assemble_diagram(g) for g in SAMPLES[DecoratedGraph]]
OVERRIDES = {
    (VertexAut, "perm"): st.permutations((0, 1, 2)).map(tuple),
    (DescentDiagram, "charts"): st.tuples(NONZERO, NONZERO),
    (DescentDiagram, "transitions"): st.sampled_from([d.transitions for d in DIAGRAMS]),
    (PantsPresentation, "scalars"): st.tuples(NONZERO, NONZERO, NONZERO, NONZERO).map(
        lambda c: (c[0], c[1], 1 / (c[0] * c[1]), c[2], c[3], 1 / (c[2] * c[3]))
    ),
}
# Values of the wrong shape, so that the ``__post_init__`` checks fail too.
JUNK = st.sampled_from([0, -1, None, "x", (), (0,), (0, 0, 1), Fraction(0)])
# Values that no integer field holds, and that no scalar field holds but a
# non-integral Fraction.
WRONG_TYPE = st.sampled_from(
    [1.5, -1.0, 0.0, Fraction(1, 2), Fraction(-7, 3), "7", "x", None, True, False]
)


def values(tp) -> st.SearchStrategy:
    """Values of the annotated type ``tp``, small and mostly valid."""
    if tp in SAMPLES:
        return st.sampled_from(SAMPLES[tp])
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(values, args))
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(values(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values, args))
    if origin is list:
        return st.lists(values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(values(args[0]), values(args[1]), max_size=3)
    return {
        int: st.integers(-3, 3),
        bool: st.booleans(),
        str: st.sampled_from("abc"),
        Fraction: st.fractions(min_value=-3, max_value=3, max_denominator=4),
        type(None): st.none(),
    }[tp]


def holds(value, tp) -> bool:
    """Whether ``value`` is exactly of the annotated type ``tp``: a bool is
    no int, and an int no Fraction."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(holds(value, arg) for arg in args)
    if origin is tuple:
        if type(value) is not tuple:
            return False
        if args[-1] is Ellipsis:
            return all(holds(x, args[0]) for x in value)
        return len(value) == len(args) and all(map(holds, value, args))
    if origin is dict:
        return type(value) is dict and all(holds(k, args[0]) and holds(v, args[1]) for k, v in value.items())
    return isinstance(value, tp) if issubclass(tp, Record) else type(value) is tp


def with_one_leaf(value, leaves) -> st.SearchStrategy:
    """``value`` with itself, or one item or key at any depth of its
    tuples, lists and dicts, drawn from ``leaves``."""
    if isinstance(value, (tuple, list)) and value:
        def swap(i):
            return with_one_leaf(value[i], leaves).map(
                lambda x: type(value)([*value[:i], x, *value[i + 1:]])
            )
        return leaves | st.integers(0, len(value) - 1).flatmap(swap)
    if isinstance(value, dict) and value:
        keys = sorted(value)
        new_key = st.tuples(st.sampled_from(keys), leaves).map(
            lambda kx: {**{k: v for k, v in value.items() if k != kx[0]}, kx[1]: value[kx[0]]}
        )
        new_value = st.sampled_from(keys).flatmap(
            lambda k: with_one_leaf(value[k], leaves).map(lambda x: {**value, k: x})
        )
        return leaves | new_key | new_value
    return leaves


def field_strategies(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {
        name: OVERRIDES[cls, name] if (cls, name) in OVERRIDES else values(hints[name])
        for name in cls.__annotations__
    }


def twin(cls):
    """The frozen dataclass with the same fields, defaults and ``__post_init__``."""
    fields = []
    for name in cls.__annotations__:
        spec = {"default": vars(cls)[name]} if name in vars(cls) else {}
        fields.append((name, object, dataclasses.field(**spec)))
    namespace = {"__post_init__": vars(cls)["__post_init__"]} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


TWINS = {cls: twin(cls) for cls in RECORDS}


def outcome(f, *args, **kwargs):
    """``f``'s value, or the type and message of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return (type(exc), str(exc))


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def test_every_record_type_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 19
    # The package's own: the others are the snf oracle's and the test models'.
    assert sum(cls.__module__.startswith("singlocus.") for cls in RECORDS) == 11


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    strategies = field_strategies(cls)
    names = list(strategies)
    if data.draw(st.integers(0, 2)) == 0:  # one field of the wrong shape
        strategies[data.draw(st.sampled_from(names))] = JUNK
    # Some leading fields positional, the rest by keyword; defaults may be left out.
    k = data.draw(st.integers(0, len(names)))
    args = [data.draw(strategies[n]) for n in names[:k]]
    kwargs = {
        n: data.draw(strategies[n]) for n in names[k:]
        if n not in vars(cls) or data.draw(st.booleans())
    }
    made = outcome(cls, *args, **kwargs)
    twin_made = outcome(TWINS[cls], *args, **kwargs)
    if isinstance(twin_made, tuple):
        assert made == twin_made
        return
    assert repr(made) == repr(twin_made)
    assert hash_or_error(made) == hash_or_error(twin_made)
    assert made == made.replace() and made != twin_made

    other = {n: data.draw(strategies[n]) for n in names}
    record_other = outcome(cls, **other)
    if not isinstance(record_other, tuple):
        assert (made == record_other) == (twin_made == TWINS[cls](**other))

    name = data.draw(st.sampled_from(names))
    change = {name: data.draw(strategies[name])}
    replaced = outcome(made.replace, **change)
    twin_replaced = outcome(dataclasses.replace, twin_made, **change)
    assert (repr(replaced), type(replaced) is tuple) == (repr(twin_replaced), type(twin_replaced) is tuple)

    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(made, name, 0)
    with pytest.raises(AttributeError):
        delattr(made, name)
    for copied in (pickle.loads(pickle.dumps(made)), copy.copy(made), copy.deepcopy(made)):
        assert copied == made and repr(copied) == repr(made)


def test_post_init_messages_are_unchanged():
    g = theta_graph()
    cases = [
        (lambda: SparseColumns(-1, ()), ValueError, "matrix dimensions must be non-negative"),
        (lambda: CompactEdge((0, 1), holonomy=0), ValueError, "holonomy must be nonzero"),
        (lambda: CompactEdge((0, 1), base_scalar=0), ValueError, "base scalar must be nonzero"),
        (lambda: Monomial(0, 1, 1), ValueError, "coefficient must be nonzero"),
        (lambda: TwoPerE(0, 1), ValueError, "coefficient must be nonzero"),
        (lambda: EdgeAut(0, 1, 1, 1), ValueError, "eps must be +1 or -1"),
        (lambda: EdgeAut(1, 1, 0, 1), ValueError, "lam_x must be nonzero"),
        (lambda: EdgeAut(1, 1, 1, 0), ValueError, "lam_u must be nonzero"),
        (lambda: TwoPerV(0), ValueError, "2-periodic structure must be nonzero"),
        (lambda: VertexAut((1, 0, 1)), ValueError, "lambda must be nonzero"),
        (lambda: VertexAut((1, 1, 1), (0, 0, 1)), ValueError, "perm must be a permutation of (0, 1, 2)"),
        (lambda: PantsPresentation((1, 1, 2, 1, 1, 1)), TriangleConstraintViolated,
         "each triangle's scalars must multiply to 1"),
        (lambda: PantsPresentation((1, 1, 0, 1, 1, 1)), ValueError, "generator scalar must be nonzero"),
        (lambda: DescentDiagram(g, [1, 0], DIAGRAMS[0].transitions), ValueError, "trivialization must be nonzero"),
        # replace() runs the checks again.
        (lambda: CompactEdge((0, 1)).replace(holonomy=0), ValueError, "holonomy must be nonzero"),
        # Values that were truncated, parsed or read as 0 or 1, or ended in a TypeError.
        (lambda: CompactEdge((0, 3), twist=True), InvalidValue, "expected an integer, got True"),
        (lambda: CompactEdge((0, 3), twist=1.9), InvalidValue, "expected an integer, got 1.9"),
        (lambda: CompactEdge((0, 3), twist="7"), InvalidValue, "expected an integer, got '7'"),
        (lambda: CompactEdge((0.9, 3)), InvalidValue, "expected an integer, got 0.9"),
        (lambda: CompactEdge((0, 3), reversing="no"), InvalidValue, "expected true or false, got 'no'"),
        (lambda: CompactEdge((0, 3), holonomy=0.1), InvalidValue,
         "holonomy must be an int or Fraction, got 0.1"),
        (lambda: Leg(0.5), InvalidValue, "expected an integer, got 0.5"),
        (lambda: DecoratedGraph([(0, "1", 2)], []), InvalidValue, "expected an integer, got '1'"),
        (lambda: DecoratedGraph([(0, 1, 2)], [Leg(0), (1, 2)]), InvalidValue,
         "expected a CompactEdge or Leg, got (1, 2)"),
        (lambda: theta_graph(twists=(Fraction(1, 2), 0, 0)), InvalidValue,
         "expected an integer, got Fraction(1, 2)"),
        (lambda: cokernel_abelian_group(SparseColumns(1, ({0: 2.5},))), InvalidValue,
         "expected an integer, got 2.5"),
        (lambda: SparseColumns(1, ({1: 1},)), InvalidValue, "row 1 is out of range for 1 rows"),
        (lambda: SparseColumns(1, ({Index(0): 1, 0: 2},)), InvalidValue, "row 0 appears twice in a column"),
        (lambda: Fan([[1.7, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]), InvalidValue,
         "expected an integer, got 1.7"),
        (lambda: Fan([[Fraction(1), 0, 0]], []), InvalidValue, "expected an integer, got Fraction(1, 1)"),
        (lambda: Fan([["1", 0, 0]], []), InvalidValue, "expected an integer, got '1'"),
        (lambda: Fan([5], []), InvalidValue, "expected a list, got 5"),
        (lambda: EdgeAut(-1.0, 2, 3, 5, 1), InvalidValue, "expected an integer, got -1.0"),
        (lambda: EdgeAut(True, 2, 3, 5, 1), InvalidValue, "expected an integer, got True"),
        (lambda: VertexAut((1, 1)), InvalidValue, "expected a list of 3 items, got (1, 1)"),
        (lambda: DescentDiagram(None, (), ()), InvalidValue, "expected a DecoratedGraph, got None"),
        (lambda: flip_vertex(g, True), InvalidValue, "expected an integer, got True"),
        (lambda: flip_vertex(g, -1), InvalidValue, "no vertex -1"),
        (lambda: gauge(assemble_diagram(g), [1]), InvalidValue, "need one gauge scalar per vertex"),
        (lambda: gauge(assemble_diagram(g), [1, 0]), InvalidValue, "gauge scalars must be nonzero"),
        (lambda: gauge(assemble_diagram(g), [1, 0.5]), InvalidValue,
         "gauge scalars must be an int or Fraction, got 0.5"),
        (lambda: theta_graph(twists=(1,)), InvalidValue, "expected a list of 3 items, got (1,)"),
        (lambda: theta_graph(twists=(1, 2, 3, 4)), InvalidValue, "expected a list of 3 items, got (1, 2, 3, 4)"),
        (lambda: theta_graph(holonomies=5), InvalidValue, "expected a list of 3 items, got 5"),
        (lambda: theta_graph(base_scalars=[1, 1]), InvalidValue, "expected a list of 3 items, got [1, 1]"),
        (lambda: theta_graph(reversing=None), InvalidValue, "expected a list of 3 items, got None"),
        (lambda: cokernel_abelian_group("x"), InvalidValue, "expected a SparseColumns, got 'x'"),
        (lambda: cokernel_abelian_group(None), InvalidValue, "expected a SparseColumns, got None"),
        (lambda: circular_ladder_graph(2.0), InvalidValue, "expected an integer, got 2.0"),
        (lambda: circular_ladder_graph(0), InvalidValue, "need at least one rung"),
        (lambda: circular_ladder_graph(-1), InvalidValue, "need at least one rung"),
        (lambda: SparseColumns(2, ({0: 1}, [1])), InvalidValue, "expected a column {row: entry}, got [1]"),
    ]
    for make, error, message in cases:
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message
        assert isinstance(info.value, SingLocusError)


@pytest.mark.parametrize("cls", INPUT_RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_input_records_hold_exact_values_or_refuse(cls, data):
    # One field, or one item inside it, gets a value of the wrong type.
    fields = {name: data.draw(strategy) for name, strategy in field_strategies(cls).items()}
    name = data.draw(st.sampled_from(list(fields)))
    fields[name] = data.draw(with_one_leaf(fields[name], WRONG_TYPE))
    try:
        made = cls(**fields)
    except SingLocusError:
        return
    # Accepted: a bool flag, an absent optional pair or a non-integral
    # scalar, kept as given.
    hints = typing.get_type_hints(cls)
    assert all(holds(getattr(made, field), hints[field]) for field in fields)
    assert getattr(made, name) == fields[name]


class Index:
    """An integer that is no int: it has only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_post_init_normalizes_fields():
    e = CompactEdge([0, 1], twist=1, holonomy=2)
    assert repr(e) == (
        "CompactEdge(ends=(0, 1), twist=1, holonomy=Fraction(2, 1), "
        "base_scalar=Fraction(1, 1), reversing=False, self_intersections=None)"
    )
    assert e.replace(reversing=True).reversing and not e.reversing
    # An __index__ value is stored as the int it stands for, in a dict of the record's own.
    plain = SparseColumns(2, [{0: 2}])
    for rows, column in [(Index(2), {0: 2}), (2, {0: Index(2)}), (2, {Index(0): 2})]:
        m = SparseColumns(rows, [column])
        assert m == plain and m.columns[0] is not column
        assert cokernel_abelian_group(m) == cokernel_abelian_group(plain) == (1, (2,))


def test_arguments_are_checked():
    with pytest.raises(TypeError, match="missing arguments: ends"):
        CompactEdge(twist=1)
    with pytest.raises(TypeError, match="unknown or repeated"):
        CompactEdge((0, 1), ends=(0, 1))
    with pytest.raises(TypeError, match="unknown or repeated"):
        Leg(end=1, start=0)
    with pytest.raises(TypeError, match="too many"):
        Leg(1, 2)
    with pytest.raises(TypeError, match="unknown or repeated"):
        Leg(1).replace(start=0)


def test_records_of_different_classes_are_unequal():
    assert H1Result(0, ()) != SparseColumns(0, ())
    assert len({H1Result(0, ()), SparseColumns(0, ())}) == 2


def test_finite_category_compares_its_tables():
    full = FiniteCategory(("a",), {"ia": ("a", "a")}, {"a": "ia"}, {("ia", "ia"): "ia"})
    bare = FiniteCategory(("a",), {}, {}, {})
    assert full == full.replace() and full != bare
    assert bare != FiniteCategory(("b",), {}, {}, {})
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(full)
    assert repr(full).startswith("FiniteCategory(objects=('a',), arrows={'ia': ('a', 'a')}")
    # Same objects, different arrows: theta with two of its edges' ends swapped.
    t = theta_graph()
    other = DecoratedGraph(t.vertices, (CompactEdge((0, 4)), CompactEdge((1, 3)), CompactEdge((2, 5))))
    for build in (build_i, build_j):
        assert build(t) == build(t) and build(t).objects == build(other).objects
        assert build(t) != build(other)


BIG = 10**5000
DIGITS, DOUBLE = str(Decimal(BIG)), str(Decimal(2 * BIG))  # no digit limit in decimal


def big_formula_theta():
    t = theta_graph()
    first = t.edges[0].replace(twist=BIG, self_intersections=(0, 0))
    return DecoratedGraph(t.vertices, (first, *t.edges[1:]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: validate_graph(big_formula_theta()),
                     f"edge 0: triple point formula: expected n_e = 2, got {DIGITS}", id="triple-point-formula"),
        pytest.param(lambda: validate_graph(DecoratedGraph([(BIG, 1, 2)], [Leg(1), Leg(2)])),
                     f"half-edge {DIGITS} belongs to no edge", id="half-edge"),
        pytest.param(lambda: validate_fan(Fan([[2 * BIG, 0, 0], *p3_fan().rays[1:]], p3_fan().cones)),
                     f"ray 0 = ({DOUBLE}, 0, 0) not primitive", id="ray"),
        pytest.param(lambda: flip_vertex(theta_graph(), BIG), f"no vertex {DIGITS}", id="flip-vertex"),
        pytest.param(lambda: wall_data(p3_fan(), (BIG, 1)), f"({DIGITS}, 1) is not a wall of the fan",
                     id="not-a-wall"),
        pytest.param(lambda: DescentDiagram(theta_graph(), (1, 1), [(-1, BIG, 1)] * 3),
                     f"expected a list of 2 items, got (-1, {DIGITS}, 1)", id="transition"),
        pytest.param(lambda: SparseColumns(1, ({BIG: 1},)), f"row {DIGITS} is out of range for 1 rows",
                     id="row-range"),
        pytest.param(lambda: CompactEdge((BIG, 1, 2)), f"expected a pair of integers, got ({DIGITS}, 1, 2)",
                     id="pair"),
        pytest.param(lambda: CompactEdge((0, 3), twist=[BIG]), f"expected an integer, got [{DIGITS}]",
                     id="integer"),
        pytest.param(lambda: graph_from_json({"vertices": [], "edges": [{"kind": BIG}]}),
                     f"unknown edge kind {DIGITS}", id="edge-kind"),
        pytest.param(lambda: parse_rational([BIG]), f"bad rational [{DIGITS}]", id="rational"),
    ],
)
def test_integers_past_the_digit_limit_are_written_in_full(call, message):
    # A report holds the message, or the call raises a SingLocusError with it.
    try:
        messages = call()
    except SingLocusError as exc:
        messages = [str(exc)]
    assert message in messages


def test_repr_writes_integers_past_the_digit_limit_in_full():
    assert repr(H1Result(1, (BIG,))) == f"H1Result(free_rank=1, torsion=({DIGITS},))"
    assert f"twist={DIGITS}," in repr(theta_graph(twists=(BIG, 0, 0)))


@pytest.mark.parametrize(
    "function",
    [
        toric.validate_fan, toric.walls, lambda f: toric.wall_data(f, (0, 1)), toric.boundary_graph,
        toric.divisor_classification, topology.plumbing_presentation, topology.h1_graph_manifold,
        topology.pencil_localization, topology.dehn_twist_record,
        graphs.validate_graph, graphs.orientability, graphs.dual_surface, lambda g: graphs.flip_vertex(g, 0),
        descent.assemble_diagram, descent.pic_invariants, lambda d: descent.gauge(d, [1, 1]),
        lambda d: descent.diagrams_equivalent(d, DIAGRAMS[0]),
    ],
    ids=[
        "validate_fan", "walls", "wall_data", "boundary_graph", "divisor_classification",
        "plumbing_presentation", "h1_graph_manifold", "pencil_localization", "dehn_twist_record",
        "validate_graph", "orientability", "dual_surface", "flip_vertex",
        "assemble_diagram", "pic_invariants", "gauge", "diagrams_equivalent",
    ],
)
@pytest.mark.parametrize("value", [None, 5, {}], ids=repr)
def test_a_value_that_is_no_fan_or_graph_is_refused(function, value):
    with pytest.raises(InvalidValue, match=r"^expected a (Fan|DecoratedGraph|DescentDiagram), got " + repr(value)):
        function(value)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: descent.pic_invariants(theta_graph()), "DescentDiagram", id="pic_invariants"),
        pytest.param(lambda: descent.diagrams_equivalent(DIAGRAMS[0], theta_graph()), "DescentDiagram",
                     id="diagrams_equivalent"),
        pytest.param(lambda: graphs.dual_surface(p3_fan()), "DecoratedGraph", id="dual_surface"),
        pytest.param(lambda: graphs.validate_graph(p3_fan()), "DecoratedGraph", id="validate_graph"),
        pytest.param(lambda: topology.h1_graph_manifold(p3_fan()), "DecoratedGraph", id="h1_graph_manifold"),
        pytest.param(lambda: toric.validate_fan(theta_graph()), "Fan", id="validate_fan"),
    ],
)
def test_a_record_of_the_wrong_type_is_refused(call, expected):
    with pytest.raises(InvalidValue, match=rf"^expected a {expected}, got (Fan|DecoratedGraph)\("):
        call()


def test_every_exception_class_is_defined_in_errors():
    # Run every module of the package, lazily registered ones included; the
    # command line's __main__ would run the CLI, and defines no class.
    for module in pkgutil.iter_modules(singlocus.__path__):
        if module.name != "__main__":
            vars(importlib.import_module(f"singlocus.{module.name}"))
    classes, seen = [BaseException], []
    while classes:
        cls = classes.pop()
        seen.append(cls)
        classes.extend(cls.__subclasses__())
    ours = {cls.__qualname__: cls.__module__ for cls in seen if cls.__module__.startswith("singlocus")}
    assert {"FrozenInstanceError", "ParseError", "SingLocusError", "InvalidValue"} <= set(ours)
    assert set(ours.values()) == {"singlocus.errors"}
    for gone in ("record", "localmodels", "categories"):
        assert importlib.util.find_spec(f"singlocus.{gone}") is None


def test_cached_properties_are_kept_out_of_the_fields():
    g = theta_graph()
    assert g.violations == () and "violations" in vars(g)
    assert g == theta_graph() and hash(g) == hash(theta_graph())
    assert repr(g) == repr(theta_graph())
    assert pickle.loads(pickle.dumps(g)).violations == ()
    with pytest.raises(FrozenInstanceError):
        g.violations = ("x",)
