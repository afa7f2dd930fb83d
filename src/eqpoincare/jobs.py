"""Declarative job files: one JSON document describes a computation.

A job bundles the character ring, the resolution graph, the chosen
components, the strata, and optionally the component-orbit bookkeeping
data, a curve section (branches plus removed strict-transform points),
an extraction plan, the brute-force oracle setup, and frozen expected
factorizations for regression checks.  Everything is cross-validated at
load time with messages naming the offending section.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from itertools import chain

from .charring import CharacterRing
from .oracle import MonomialModel
from .powerseries import Series, SubstitutionPlan, expand
# the benchmark's tracer wraps jobs.factor_power by name
from .powerseries import factor_power  # noqa: F401
from .resolution import ResolutionGraph
from .strata import (
    Branch,
    CharDerivation,
    OrbitDecl,
    RemovedPointOrbit,
    Stratum,
    StrataError,
    StratumModel,
    removed_point_stratum,
)


class JobError(ValueError):
    pass


_NULL = type(None)
_ID_TYPES = {str, int}
_INT_TYPE = {int}
_TEXT = {str, _NULL}

# How a value of the wrong type is worded, from the object's path ``where``,
# the field's path ``at`` (its bare key at the top level), ``key``, the type
# name ``got`` and the ``value``; ``_INTS_HERE`` names the object, not the field.
_TYPE = "{where}.{key}: unexpected type {got}"
_INTS = "{at}: expected a list of integers, got {value!r}"
_INTS_HERE = "{where}: expected a list of integers, got {value!r}"
_IDS = "{at}: expected a list of component ids, got {value!r}"
_ID = "{at}: component ids are strings or integers, got {value!r}"
_FACTORS = "{at}: expected a list of factors, got {value!r}"
_INTEGER = "{where}: {key} must be an integer"

# The job schema: for each kind of object, its keys in the order they are
# checked, as (key, types, item, required, message).  A value's exact type
# must be in ``types`` (None: any value; NoneType in it: null counts as
# absent).  ``item`` is the kind of the objects a field holds, which the
# loader walks in turn, or for a list the set of its items' types, or the
# (types, item, message) rule of each of its items.  An id list words a bad
# item with ``_ID``, any other list with ``message``.
_SCHEMA = {
    "job": (("name", _TEXT, None, False, _TYPE),
            ("ring", {dict}, "ring", True, _TYPE),
            ("graph", {dict}, "graph", True, _TYPE),
            ("chosen", {list}, _ID_TYPES, True, _IDS),
            ("strata", {list}, "stratum", True, _TYPE),
            ("orbits", {list, _NULL}, "orbit", False, _TYPE),
            ("curve", {dict, _NULL}, "curve", False, _TYPE),
            ("extract", {dict, _NULL}, "extract", False, _TYPE),
            ("oracle", {dict, _NULL}, "oracle", False, _TYPE),
            ("expected", {dict, _NULL}, "expected", False, _TYPE)),
    "ring": (("orders", {list}, _INT_TYPE, True, _INTS),),
    "graph": (("components", {list}, "component", True, _TYPE),
              ("edges", {list}, ({list}, _ID_TYPES, _IDS), True, _TYPE),
              ("first_blown_up", _ID_TYPES, None, True, _ID)),
    "component": (("id", _ID_TYPES, None, True, _ID),
                  ("self_intersection", {int}, None, True, _TYPE)),
    "stratum": (("carrier", {list}, _ID_TYPES, True, _IDS),
                ("chi", {int}, None, True, _TYPE),
                ("label", _TEXT, None, False, _TYPE),
                ("degree", {int, _NULL}, None, False, _TYPE),
                ("character", {dict, _NULL}, "character", False, _TYPE)),
    "character": (("exponents", {list}, _INT_TYPE, False, _INTS_HERE),
                  ("from_point", None, "from_point", False, None)),
    "from_point": (("exponents", {list}, _INT_TYPE, True, _INTS_HERE),
                   ("orbit_size", {int}, None, True, _TYPE)),
    "orbit": (("components", {list}, _ID_TYPES, True, _IDS),
              ("removed", {list}, _INT_TYPE, True, _INTS_HERE)),
    "curve": (("branches", {list}, "branch", True, _TYPE),
              ("removed_points", {list, _NULL}, "removed_point", False, _TYPE)),
    "branch": (("attach", _ID_TYPES, None, True, _ID),
               ("label", _TEXT, None, False, _TYPE)),
    "removed_point": (("stratum", {str, int}, None, True, _TYPE),
                      ("count", {int}, None, True, _TYPE),
                      ("degree", {int, _NULL}, None, False, _TYPE)),
    "extract": (("plan", {list}, "step", True, _TYPE),
                ("compute_degree", None, None, False, None)),  # read by the benchmark only
    "step": (("variable", {int}, None, True, _TYPE),
             ("drop", {bool, _NULL}, None, False, _TYPE),
             ("output", {int}, None, True, _TYPE),
             ("denominator", {int}, None, False, _INTEGER)),
    "oracle": (("curve_axes", {list, _NULL}, None, False, _TYPE),
               ("sigma_x", {str, int, _NULL}, None, False, _TYPE),
               ("sigma_y", {str, int, _NULL}, None, False, _TYPE),
               ("weights", {list}, _INT_TYPE, True, _INTS),
               ("order", {int}, None, True, _TYPE)),
    "expected": (("divisorial", {list}, "factor", False, _FACTORS),
                 ("curve", {list}, "factor", False, _FACTORS),
                 ("extract", {list}, "factor", False, _FACTORS)),
    "factor": (("exponent", {list}, _INT_TYPE, True, _INTS_HERE),
               ("power", {int}, None, True, _TYPE),
               ("character", {list}, _INT_TYPE, False, _INTS_HERE),
               ("coefficient", {int}, None, False, _INTEGER)),
}
_KEYS = {kind: {field[0] for field in fields} for kind, fields in _SCHEMA.items()}


def _check(value, types, item, message, where, key, at=None):
    """Raise ``message`` unless ``value`` keeps the rule ``types``/``item``;
    ``at`` is the value's path when it is not the field's own."""
    if type(value) in types:
        if value is None or item is None or type(item) is str:
            return
        if type(item) is tuple:  # a list of lists: each item keeps the rule ``item``
            if not (item[0].issuperset(map(type, value))  # else find the first bad item
                    and item[1].issuperset(map(type, chain.from_iterable(value)))):
                for i, x in enumerate(value):
                    if type(x) not in item[0] or not item[1].issuperset(map(type, x)):
                        _check(x, *item, where, key, f"{where}.{key}[{i}]")
            return
        if item.issuperset(map(type, value)):
            return
        if item is _ID_TYPES:  # an id list names its first bad id
            value, message = next(x for x in value if type(x) not in item), _ID
    if at is None:
        at = key if where == "job" else f"{where}.{key}"
    raise JobError(message.format(where=where, key=key, at=at, got=type(value).__name__,
                                  value=value))


def _walk(raw, kind, where, part=slice(None)):
    """Check the object ``raw`` at path ``where`` against the fields of
    ``kind`` in ``part``, in table order, and reject any key ``kind`` does
    not list."""
    if type(raw) is not dict:
        raise JobError(f"{where}: expected an object, got {type(raw).__name__}")
    if not raw.keys() <= _KEYS[kind]:
        key = next(key for key in raw if key not in _KEYS[kind])
        raise JobError(f"{where}.{key}: unknown field")
    for key, types, item, required, message in _SCHEMA[kind][part]:
        if key in raw:
            if types is not None:
                _check(raw[key], types, item, message, where, key)
        elif required:
            raise JobError(f"{where}: missing required field {key!r}")


class CurveSpec(namedtuple("CurveSpec", "branches removed_points")):
    """The :class:`Branch` tuple ``branches`` and the
    :class:`RemovedPointOrbit` tuple ``removed_points``."""

    __slots__ = ()


class Job(namedtuple("Job", "name model orbits curve extract oracle expected")):
    __slots__ = ()

    def __new__(cls, name: str, model: StratumModel, orbits: tuple | None = None,
                curve: CurveSpec | None = None, extract: SubstitutionPlan | None = None,
                oracle: MonomialModel | None = None, expected: dict | None = None):
        return super().__new__(cls, name, model, orbits, curve, extract, oracle,
                               {} if expected is None else expected)

    def expected_series(self, kind: str, degree: int) -> Series:
        """Expand the frozen factor list ``kind`` through ``degree``."""
        if kind not in self.expected:
            raise JobError(f"job {self.name!r} has no expected {kind!r} series")
        if kind == "extract":
            if self.extract is None:
                raise JobError(f"job {self.name!r}: expected extract without a plan")
            num_vars = self.extract.num_outputs
            ring = None
        elif kind == "curve":
            if self.curve is None:
                raise JobError(f"job {self.name!r}: expected curve series without a curve")
            num_vars = len(self.curve.branches)
            ring = self.model.ring
        else:
            num_vars = len(self.model.chosen)
            ring = self.model.ring
        return expand(self.expected[kind], num_vars, degree, ring)


def _parse_strata(items):
    strata = []
    for i, raw in enumerate(items):
        if (type(raw) is dict and len(raw) == 2 + ("label" in raw)
                and type(raw.get("label")) in _TEXT
                and type(carrier := raw.get("carrier")) is list and carrier
                and _ID_TYPES.issuperset(map(type, carrier)) and type(raw.get("chi")) is int):
            strata.append(Stratum._make(  # the checks of Stratum.__new__ hold
                (tuple(carrier), raw["chi"], None, None, raw.get("label"))))
            continue
        where = f"strata[{i}]"
        _walk(raw, "stratum", where)
        carrier = raw["carrier"]
        degree = raw.get("degree")
        if degree is not None and degree != len(carrier):
            raise JobError(f"{where}: declared degree {degree} but the carrier has "
                           f"{len(carrier)} entries")
        char_exponents = derivation = None
        spec = raw.get("character")
        if spec is not None:
            _walk(spec, "character", f"{where}.character")
            char_exponents = spec.get("exponents")
            if "from_point" in spec:
                fp = spec["from_point"]
                _walk(fp, "from_point", f"{where}.character.from_point")
                derivation = CharDerivation(tuple(fp["exponents"]), fp["orbit_size"])
            if char_exponents is None and derivation is None:
                raise JobError(f"{where}.character: needs exponents or from_point")
        strata.append(Stratum(carrier, raw["chi"], char_exponents=char_exponents,
                              derivation=derivation, label=raw.get("label")))
    return tuple(strata)


def _parse_plan(items, num_vars):
    entries = [None] * num_vars
    seen = set()
    for i, raw in enumerate(items):
        where = f"extract.plan[{i}]"
        _walk(raw, "step", where, slice(2))  # variable, drop
        var = raw["variable"]
        if not 1 <= var <= num_vars:
            raise JobError(f"{where}: variable {var} out of range 1..{num_vars}")
        if var in seen:
            raise JobError(f"{where}: variable {var} mapped twice")
        seen.add(var)
        if raw.get("drop"):
            continue
        _walk(raw, "step", where, slice(2, None))  # output, denominator
        entries[var - 1] = (raw["output"] - 1, raw.get("denominator", 1))
    if seen != set(range(1, num_vars + 1)):
        missing = sorted(set(range(1, num_vars + 1)) - seen)
        raise JobError(f"extract.plan: variables {missing} not mapped")
    if not any(entries):
        raise JobError("extract.plan: drops every variable, nothing to extract")
    try:
        return SubstitutionPlan(tuple(entries))
    except ValueError as e:
        raise JobError(f"extract.plan: {e}") from e


def _parse_expected_factors(items, where, ring_q):
    """The factors as ``expand`` records (exponent, character, power, coefficient)."""
    factors = []
    for i, raw in enumerate(items):
        if (type(raw) is dict and len(raw) == 2 and type(exponent := raw.get("exponent")) is list
                and _INT_TYPE.issuperset(map(type, exponent)) and type(raw.get("power")) is int
                and any(exponent) and min(exponent) >= 0):
            factors.append((tuple(exponent), None, raw["power"], 1))
            continue
        here = f"{where}[{i}]"
        _walk(raw, "factor", here)
        exponent = tuple(raw["exponent"])
        power = raw["power"]
        if any(x < 0 for x in exponent):
            raise JobError(f"{here}: exponent {exponent} has a negative entry")
        if power != 0 and not any(exponent):
            raise JobError(f"{here}: exponent {exponent} is zero with power {power}; "
                           "the factor would not be a power series")
        character = None
        if "character" in raw:
            character = tuple(raw["character"])
            if ring_q is not None and len(character) != ring_q:
                raise JobError(f"{here}: character {character} does not match the "
                               f"{ring_q} ring generators")
        factors.append((exponent, character, power, raw.get("coefficient", 1)))
    return tuple(factors)


def _parse_orbits(items, graph):
    """The :class:`OrbitDecl` tuples, in one pass when each orbit is one id and its valence."""
    valence = graph.valences.get  # None off the graph
    orbits = [OrbitDecl._make(((c[0],), (r[0],))) for raw in items
              if type(raw) is dict and len(raw) == 2
              and type(c := raw.get("components")) is list and len(c) == 1
              and type(c[0]) in _ID_TYPES and type(r := raw.get("removed")) is list
              and len(r) == 1 and type(r[0]) is int and r[0] == valence(c[0])]
    if len(orbits) == len(items):
        return tuple(orbits)
    orbits = []  # item by item, which words the first error
    known = graph.id_index
    for i, raw in enumerate(items):
        if (type(raw) is dict and len(raw) == 2
                and type(components := raw.get("components")) is list
                and type(removed := raw.get("removed")) is list
                and len(components) == len(removed) and _ID_TYPES.issuperset(
                    map(type, components)) and _INT_TYPE.issuperset(map(type, removed))):
            orbit = OrbitDecl._make((tuple(components), tuple(removed)))  # aligned
        else:
            _walk(raw, "orbit", f"orbits[{i}]")
            try:
                orbit = OrbitDecl(raw["components"], raw["removed"])
            except ValueError as e:
                raise JobError(f"orbits[{i}]: {e}") from e
        orbits.append(orbit)
        components, removed = orbit
        valences = tuple(map(valence, components))
        if None in valences:
            raise JobError(f"orbits[{i}].components: {list(components)} names "
                           "a component not in the graph")
        if len(components) > 1:  # G acts on the graph: the members look alike
            kinds = [graph.components[known[c]][1] for c in components]
            if len(set(zip(kinds, valences))) > 1:
                raise JobError(f"orbits[{i}].components: {list(components)} have "
                               f"self-intersections {kinds} and valences "
                               f"{list(valences)}; one orbit's members share both")
        if removed != valences:
            raise JobError(f"orbits[{i}].removed: {list(removed)}, but the graph "
                           f"gives valences {list(valences)} for {list(components)}")
    return tuple(orbits)


def parse_job(data: dict, name: str = "job") -> Job:
    _walk(data, "job", "job")
    name = name if data.get("name") is None else data["name"]  # null counts as absent

    _walk(data["ring"], "ring", "ring")
    try:
        ring = CharacterRing(data["ring"]["orders"])
    except ValueError as e:
        raise JobError(f"ring: {e}") from e

    graph_raw = data["graph"]
    _walk(graph_raw, "graph", "graph")
    comps = []
    for i, c in enumerate(graph_raw["components"]):
        if (type(c) is not dict or len(c) != 2 or type(c.get("id")) not in _ID_TYPES
                or type(c.get("self_intersection")) is not int):
            _walk(c, "component", f"graph.components[{i}]")
        comps.append((c["id"], c["self_intersection"]))
    edges = graph_raw["edges"]
    for i, e in enumerate(edges):
        if len(e) != 2:
            raise JobError(f"graph.edges[{i}]: an edge is a pair of ids, got {e!r}")
    try:
        graph = ResolutionGraph(comps, edges, graph_raw["first_blown_up"])
        graph.multiplicities  # blows the graph down to e0, or raises
    except ValueError as e:
        raise JobError(f"graph: {e}") from e
    known = graph.id_index

    chosen = tuple(data["chosen"])
    try:
        strata = _parse_strata(data["strata"])
    except StrataError as e:  # a Stratum's own check, worded by it
        raise JobError(str(e)) from e
    try:
        model = StratumModel(graph, ring, chosen, strata)
    except ValueError as e:
        raise JobError(f"model: {e}") from e

    orbits = None
    if data.get("orbits") is not None:
        orbits = _parse_orbits(data["orbits"], graph)

    curve = None
    raw = data.get("curve")
    if raw is not None:
        _walk(raw, "curve", "curve")
        if not raw["branches"]:
            raise JobError("curve.branches: lists no branches; a curve has at least one")
        branches = []
        for i, b in enumerate(raw["branches"]):
            _walk(b, "branch", f"curve.branches[{i}]")
            if b["attach"] not in known:
                raise JobError(f"curve.branches[{i}]: attach component {b['attach']!r} unknown")
            branches.append(Branch(b["attach"], b.get("label")))
        removed = []
        for i, r in enumerate(raw.get("removed_points") or ()):
            where = f"curve.removed_points[{i}]"
            _walk(r, "removed_point", where)
            orbit = RemovedPointOrbit(r["stratum"], r["count"], r.get("degree"))
            try:
                removed_point_stratum(model.strata, orbit)
            except StrataError as e:
                raise JobError(f"{where}: {e}") from e
            removed.append(orbit)
        curve = CurveSpec(tuple(branches), tuple(removed))

    extract = None
    raw = data.get("extract")
    if raw is not None:
        _walk(raw, "extract", "extract")
        extract = _parse_plan(raw["plan"], len(chosen))

    oracle = None
    raw = data.get("oracle")
    if raw is not None:
        _walk(raw, "oracle", "oracle", slice(3))  # curve_axes, sigma_x, sigma_y
        axes = raw.get("curve_axes")
        if axes is not None:
            if curve is None:
                raise JobError("oracle.curve_axes given but the job has no curve")
            if len(axes) != len(curve.branches):
                raise JobError(f"oracle.curve_axes lists {len(axes)} axes for "
                               f"{len(curve.branches)} branches")
        sigma_x, sigma_y = raw.get("sigma_x"), raw.get("sigma_y")
        if (sigma_x is None) != (sigma_y is None):
            missing = "sigma_x" if sigma_x is None else "sigma_y"
            raise JobError(f"oracle.{missing}: missing; sigma_x and sigma_y come as a pair")
        for key, sigma in (("sigma_x", sigma_x), ("sigma_y", sigma_y)):
            if sigma is not None and sigma not in known:
                raise JobError(f"oracle.{key}: component {sigma!r} unknown")
        if sigma_x is None and axes is None:
            raise JobError("oracle: needs sigma_x and sigma_y, or curve_axes")
        _walk(raw, "oracle", "oracle", slice(3, None))  # weights, order
        if len(raw["weights"]) != 2:
            raise JobError("oracle.weights must be a pair")
        try:
            oracle = MonomialModel(raw["order"], tuple(raw["weights"]), sigma_x=sigma_x,
                                   sigma_y=sigma_y,
                                   curve_axes=tuple(axes) if axes is not None else None)
        except ValueError as e:
            raise JobError(f"oracle: {e}") from e
        if tuple(oracle.ring().orders) != ring.orders:
            raise JobError(f"oracle order {oracle.order} does not give ring orders {ring.orders}")

    expected = {}
    expected_raw = data.get("expected")
    if expected_raw is not None:
        _walk(expected_raw, "expected", "expected")
        for kind, raw in expected_raw.items():
            q = ring.num_generators if kind != "extract" else None
            expected[kind] = _parse_expected_factors(raw, f"expected.{kind}", q)
            if kind == "extract" and any(f[1] is not None for f in expected[kind]):
                raise JobError("expected.extract factors are integer series factors")
    if "extract" in expected and extract is None:
        raise JobError("expected.extract needs an extract section")
    if "curve" in expected and curve is None:
        raise JobError("expected.curve needs a curve section")
    arity = {
        "divisorial": len(chosen),
        "curve": len(curve.branches) if curve is not None else None,
        "extract": extract.num_outputs if extract is not None else None,
    }
    for kind, factors in expected.items():
        for i, (exponent, _, _, _) in enumerate(factors):
            if len(exponent) != arity[kind]:
                raise JobError(f"expected.{kind}[{i}]: exponent {exponent} has "
                               f"{len(exponent)} entries, needs {arity[kind]}")

    return Job(name=name, model=model, orbits=orbits, curve=curve,
               extract=extract, oracle=oracle, expected=expected)


def load_job(path) -> Job:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise JobError(f"cannot read job file {path}: {e}") from e
    except (json.JSONDecodeError, RecursionError) as e:  # too deep to decode is not valid either
        raise JobError(f"job file {path} is not valid JSON: {e}") from e
    default = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_job(data, name=default)
