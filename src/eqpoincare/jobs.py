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
import warnings
from collections import namedtuple

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


# exact types a record's fields are tested against inline; the helpers below
# run only when a test fails, to word the error or accept a subclass
_ID_TYPES = {str, int}
_INT_TYPE = {int}
_FACTOR_KEYS = {"exponent", "power"}


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _at(where) -> str:
    """The field path of a message: ``where`` as it is when a string, or
    ``name[index]suffix`` from a ``(name, index[, suffix])`` tuple.  The
    loader passes tuples for list items and formats them only to raise."""
    if isinstance(where, str):
        return where
    name, index, *suffix = where
    return f"{name}[{index}]" + "".join(suffix)


def _require(mapping, key, where, types=None):
    if not isinstance(mapping, dict):
        raise JobError(f"{_at(where)}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise JobError(f"{_at(where)}: missing required field {key!r}")
    value = mapping[key]
    if types is not None and (not isinstance(value, types) or isinstance(value, bool)):
        raise JobError(f"{_at(where)}.{key}: unexpected type {type(value).__name__}")
    return value


def _optional(mapping, key, where, types):
    """``mapping[key]`` checked like :func:`_require`; None when absent or null."""
    if mapping.get(key) is None:
        return None
    return _require(mapping, key, where, types)


def _int_list(value, where):
    if isinstance(value, list):
        for x in value:
            if not isinstance(x, int) or isinstance(x, bool):
                break
        else:
            return tuple(value)
    raise JobError(f"{_at(where)}: expected a list of integers, got {value!r}")


def _component_id(value, where):
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise JobError(f"{_at(where)}: component ids are strings or integers, got {value!r}")
    return value


def _id_list(value, where):
    if not isinstance(value, list):
        raise JobError(f"{_at(where)}: expected a list of component ids, got {value!r}")
    for x in value:
        if not isinstance(x, (str, int)) or isinstance(x, bool):
            raise JobError(f"{_at(where)}: component ids are strings or integers, got {x!r}")
    return tuple(value)


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


def _parse_strata(items, ring):
    strata = []
    for i, raw in enumerate(items):
        if (type(raw) is dict and type(carrier := raw.get("carrier")) is list and carrier
                and _ID_TYPES.issuperset(map(type, carrier)) and type(raw.get("chi")) is int
                and raw.get("degree") is None and raw.get("character") is None):
            strata.append(Stratum._make(  # the checks of Stratum.__new__ hold
                (tuple(carrier), raw["chi"], None, None, raw.get("label"))))
            continue
        where = ("strata", i)
        carrier = _id_list(_require(raw, "carrier", where), ("strata", i, ".carrier"))
        chi = _require(raw, "chi", where, int)
        label = raw.get("label")
        degree = _optional(raw, "degree", where, int)
        if degree is not None and degree != len(carrier):
            raise JobError(
                f"{_at(where)}: declared degree {degree} but the carrier has "
                f"{len(carrier)} entries"
            )
        char_exponents = None
        derivation = None
        spec = _optional(raw, "character", where, dict)
        if spec is not None:
            if "exponents" in spec:
                char_exponents = _int_list(spec["exponents"], ("strata", i, ".character"))
            if "from_point" in spec:
                fp = spec["from_point"]
                here = ("strata", i, ".character.from_point")
                derivation = CharDerivation(
                    _int_list(_require(fp, "exponents", here), here),
                    _require(fp, "orbit_size", here, int),
                )
            if char_exponents is None and derivation is None:
                raise JobError(f"{_at(where)}.character: needs exponents or from_point")
        strata.append(
            Stratum(carrier, chi, char_exponents=char_exponents,
                    derivation=derivation, label=label)
        )
    return tuple(strata)


def _parse_plan(items, num_vars):
    entries = [None] * num_vars
    seen = set()
    for i, raw in enumerate(items):
        where = ("extract.plan", i)
        var = _require(raw, "variable", where, int)
        if not 1 <= var <= num_vars:
            raise JobError(f"{_at(where)}: variable {var} out of range 1..{num_vars}")
        if var in seen:
            raise JobError(f"{_at(where)}: variable {var} mapped twice")
        seen.add(var)
        if raw.get("drop"):
            continue
        out = _require(raw, "output", where, int)
        den = raw.get("denominator", 1)
        if not _is_int(den):
            raise JobError(f"{_at(where)}: denominator must be an integer")
        entries[var - 1] = (out - 1, den)
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
    if not isinstance(items, list):
        raise JobError(f"{where}: expected a list of factors, got {items!r}")
    factors = []
    for i, raw in enumerate(items):
        if (type(raw) is dict and type(exponent := raw.get("exponent")) is list
                and _INT_TYPE.issuperset(map(type, exponent)) and type(raw.get("power")) is int
                and any(exponent) and min(exponent) >= 0 and raw.keys() <= _FACTOR_KEYS):
            factors.append((tuple(exponent), None, raw["power"], 1))
            continue
        here = (where, i)
        exponent = _int_list(_require(raw, "exponent", here), here)
        power = _require(raw, "power", here, int)
        if any(x < 0 for x in exponent):
            raise JobError(f"{_at(here)}: exponent {exponent} has a negative entry")
        if power != 0 and not any(exponent):
            raise JobError(
                f"{_at(here)}: exponent {exponent} is zero with power {power}; the "
                "factor would not be a power series"
            )
        character = None
        if "character" in raw:
            character = _int_list(raw["character"], here)
            if ring_q is not None and len(character) != ring_q:
                raise JobError(
                    f"{_at(here)}: character {character} does not match the "
                    f"{ring_q} ring generators"
                )
        coefficient = raw.get("coefficient", 1)
        if not _is_int(coefficient):
            raise JobError(f"{_at(here)}: coefficient must be an integer")
        factors.append((exponent, character, power, coefficient))
    return tuple(factors)


def parse_job(data: dict, name: str = "job") -> Job:
    if not isinstance(data, dict):
        raise JobError("job document must be a JSON object")
    name = data.get("name", name)

    ring_raw = _require(data, "ring", "job", dict)
    orders = _int_list(_require(ring_raw, "orders", "ring"), "ring.orders")
    try:
        ring = CharacterRing(orders)
    except ValueError as e:
        raise JobError(f"ring: {e}") from e

    graph_raw = _require(data, "graph", "job", dict)
    comps = []
    for i, c in enumerate(_require(graph_raw, "components", "graph", list)):
        if (type(c) is dict and type(cid := c.get("id")) in _ID_TYPES
                and type(k := c.get("self_intersection")) is int):
            comps.append((cid, k))
            continue
        where = ("graph.components", i)
        comps.append(
            (_component_id(_require(c, "id", where), ("graph.components", i, ".id")),
             _require(c, "self_intersection", where, int))
        )
    edges = _require(graph_raw, "edges", "graph", list)
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or not _ID_TYPES.issuperset(map(type, e)):
            if len(_id_list(e, ("graph.edges", i))) != 2:
                raise JobError(f"graph.edges[{i}]: an edge is a pair of ids, got {e!r}")
    e0 = _component_id(_require(graph_raw, "first_blown_up", "graph"),
                       "graph.first_blown_up")
    try:
        graph = ResolutionGraph(comps, edges, e0)
        graph.multiplicities  # blows the graph down to e0, or raises
    except ValueError as e:
        raise JobError(f"graph: {e}") from e
    known = graph.id_index

    chosen = _id_list(_require(data, "chosen", "job"), "chosen")
    try:
        strata = _parse_strata(_require(data, "strata", "job", list), ring)
    except StrataError as e:  # a Stratum's own check, worded by it
        raise JobError(str(e)) from e
    try:
        model = StratumModel(graph, ring, chosen, strata)
    except ValueError as e:
        raise JobError(f"model: {e}") from e

    orbits = None
    orbits_raw = _optional(data, "orbits", "job", list)
    if orbits_raw is not None:
        orbits = []
        for i, raw in enumerate(orbits_raw):
            if (type(raw) is dict and type(components := raw.get("components")) is list
                    and type(removed := raw.get("removed")) is list
                    and len(components) == len(removed)
                    and _ID_TYPES.issuperset(map(type, components))
                    and _INT_TYPE.issuperset(map(type, removed))):
                orbit = OrbitDecl._make((tuple(components), tuple(removed)))  # aligned
            else:
                where = ("orbits", i)
                components = _id_list(_require(raw, "components", where),
                                      ("orbits", i, ".components"))
                removed = _int_list(_require(raw, "removed", where), where)
                try:
                    orbit = OrbitDecl(components, removed)
                except ValueError as e:
                    raise JobError(f"{_at(where)}: {e}") from e
            orbits.append(orbit)
            components, removed = orbit
            valences = tuple(map(graph.valences.get, components))  # None off the graph
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
        orbits = tuple(orbits)

    curve = None
    raw = _optional(data, "curve", "job", dict)
    if raw is not None:
        branches = []
        branches_raw = _require(raw, "branches", "curve", list)
        if not branches_raw:
            raise JobError("curve.branches: lists no branches; a curve has at least one")
        for i, b in enumerate(branches_raw):
            attach = _component_id(_require(b, "attach", ("curve.branches", i)),
                                   ("curve.branches", i, ".attach"))
            if attach not in known:
                raise JobError(
                    f"curve.branches[{i}]: attach component {attach!r} unknown"
                )
            branches.append(Branch(attach, b.get("label")))
        removed = []
        for i, r in enumerate(_optional(raw, "removed_points", "curve", list) or ()):
            where = ("curve.removed_points", i)
            orbit = RemovedPointOrbit(
                _require(r, "stratum", where, (str, int)),
                _require(r, "count", where, int),
                _optional(r, "degree", where, int),
            )
            try:
                removed_point_stratum(model.strata, orbit)
            except StrataError as e:
                raise JobError(f"{_at(where)}: {e}") from e
            removed.append(orbit)
        curve = CurveSpec(tuple(branches), tuple(removed))

    extract = None
    raw = _optional(data, "extract", "job", dict)
    if raw is not None:
        extract = _parse_plan(_require(raw, "plan", "extract", list), len(chosen))

    oracle = None
    raw = _optional(data, "oracle", "job", dict)
    if raw is not None:
        axes = _optional(raw, "curve_axes", "oracle", list)
        if axes is not None:
            if curve is None:
                raise JobError("oracle.curve_axes given but the job has no curve")
            if len(axes) != len(curve.branches):
                raise JobError(
                    f"oracle.curve_axes lists {len(axes)} axes for "
                    f"{len(curve.branches)} branches"
                )
        sigma_x = _optional(raw, "sigma_x", "oracle", (str, int))
        sigma_y = _optional(raw, "sigma_y", "oracle", (str, int))
        if (sigma_x is None) != (sigma_y is None):
            missing = "sigma_x" if sigma_x is None else "sigma_y"
            raise JobError(
                f"oracle.{missing}: missing; sigma_x and sigma_y come as a pair"
            )
        for key, sigma in (("sigma_x", sigma_x), ("sigma_y", sigma_y)):
            if sigma is not None and sigma not in known:
                raise JobError(f"oracle.{key}: component {sigma!r} unknown")
        if sigma_x is None and axes is None:
            raise JobError("oracle: needs sigma_x and sigma_y, or curve_axes")
        weights = _int_list(_require(raw, "weights", "oracle"), "oracle.weights")
        if len(weights) != 2:
            raise JobError("oracle.weights must be a pair")
        try:
            with warnings.catch_warnings():  # validate and check print a line instead
                warnings.simplefilter("ignore", RuntimeWarning)
                oracle = MonomialModel(
                    _require(raw, "order", "oracle", int),
                    weights,
                    sigma_x=sigma_x,
                    sigma_y=sigma_y,
                    curve_axes=tuple(axes) if axes is not None else None,
                )
        except ValueError as e:
            raise JobError(f"oracle: {e}") from e
        if tuple(oracle.ring().orders) != ring.orders:
            raise JobError(
                f"oracle order {oracle.order} does not give ring orders {ring.orders}"
            )

    expected = {}
    expected_raw = _optional(data, "expected", "job", dict)
    if expected_raw is not None:
        for kind, raw in expected_raw.items():
            if kind not in ("divisorial", "curve", "extract"):
                raise JobError(f"expected.{kind}: unknown series kind")
            q = ring.num_generators if kind != "extract" else None
            expected[kind] = _parse_expected_factors(raw, f"expected.{kind}", q)
            if kind == "extract":
                for _, character, _, _ in expected[kind]:
                    if character is not None:
                        raise JobError(
                            "expected.extract factors are integer series factors"
                        )
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
                raise JobError(
                    f"expected.{kind}[{i}]: exponent {exponent} has "
                    f"{len(exponent)} entries, needs {arity[kind]}"
                )

    return Job(name=name, model=model, orbits=orbits, curve=curve,
               extract=extract, oracle=oracle, expected=expected)


def load_job(path) -> Job:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise JobError(f"cannot read job file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise JobError(f"job file {path} is not valid JSON: {e}") from e
    default = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_job(data, name=default)
