"""Strata of the exceptional divisor under a finite group action.

The smooth part of the exceptional divisor (points on exactly one
component, excluding intersections with the strict transform where
relevant) is partitioned into group-invariant strata.  Each stratum is
recorded by its quotient: the carrier multiset lists, with multiplicity,
the components met by the preimage points of one quotient point, so the
covering degree equals the carrier size; ``chi`` is the Euler
characteristic of the quotient stratum.  A stratum that contributes to
the equivariant series also carries the character by which the group
scales a curvelet transversal to it, either given directly as an
exponent tuple or derived from the character at the first blown-up
component via the multiplicity matrix.
"""

from __future__ import annotations

from collections import namedtuple

from .charring import CharacterRing
from .resolution import MultiplicityMatrix, ResolutionGraph


class StrataError(ValueError):
    pass


class CharDerivation(namedtuple("CharDerivation", "p0_char_exponents p0_orbit_size")):
    """Character data at a reference point over the first blown-up component.

    ``p0_char_exponents`` (a tuple) is the character scaling a curvelet
    at one point p0 of the first exceptional component,
    ``p0_orbit_size`` (an int) the size of the orbit of p0.
    """

    __slots__ = ()


class Stratum(namedtuple("Stratum", "carrier chi char_exponents derivation label")):
    __slots__ = ()

    def __new__(cls, carrier: tuple, chi: int, char_exponents: tuple | None = None,
                derivation: CharDerivation | None = None, label: str | None = None):
        carrier = tuple(carrier)
        if not carrier:
            raise StrataError(f"stratum {label or ''!r} has an empty carrier")
        if char_exponents is not None:
            char_exponents = tuple(char_exponents)
        return super().__new__(cls, carrier, chi, char_exponents, derivation, label)

    @property
    def degree(self) -> int:
        """Covering degree of the stratum over its quotient."""
        return len(self.carrier)


def _where(stratum: Stratum) -> str:
    """How messages name a stratum: by label, else by carrier."""
    if stratum.label:
        return f"stratum {stratum.label!r}"
    return f"stratum {stratum.carrier}"


class StratumModel(namedtuple("StratumModel", "graph ring chosen strata")):
    __slots__ = ()

    def __new__(cls, graph: ResolutionGraph, ring: CharacterRing, chosen: tuple,
                strata: tuple):
        chosen = tuple(chosen)
        strata = tuple(strata)
        known = graph.id_index
        if not chosen:
            raise StrataError("at least one chosen component is required")
        for c in chosen:
            if c not in known:
                raise StrataError(f"chosen component {c!r} is not in the graph")
        q = ring.num_generators
        for st in strata:
            for c in st.carrier:
                if c not in known:
                    raise StrataError(f"{_where(st)}: carrier component {c!r} unknown")
            if st.char_exponents is not None and len(st.char_exponents) != q:
                raise StrataError(
                    f"{_where(st)}: character exponents {st.char_exponents} do not "
                    f"match the {q} ring generators"
                )
            if st.derivation is not None:
                d = st.derivation
                if len(d.p0_char_exponents) != q:
                    raise StrataError(
                        f"{_where(st)}: derivation exponents {d.p0_char_exponents} "
                        f"do not match the {q} ring generators"
                    )
                if d.p0_orbit_size < 1:
                    raise StrataError(f"{_where(st)}: orbit size must be positive")
        return super().__new__(cls, graph, ring, chosen, strata)

    def multiplicities(self) -> MultiplicityMatrix:
        return self.graph.multiplicities


def stratum_multiplicities(model: StratumModel, stratum: Stratum, targets) -> tuple:
    """Multi-index weight of a curvelet at the stratum: sum over carrier
    entries of the multiplicity matrix row, evaluated at each target."""
    m = model.multiplicities()
    return tuple(
        sum(m.entry(c, t) for c in stratum.carrier) for t in targets
    )


def derive_stratum_character(model: StratumModel, stratum: Stratum) -> tuple:
    """Character of the stratum from the reference-point data.

    The curvelet character at a point over component c is the reference
    character raised to M[c, first_blown_up] * (degree / orbit size of
    the reference point).  Every carrier entry must give the same
    answer; a mismatch means the declared data is inconsistent.
    """
    d = stratum.derivation
    if d is None:
        raise StrataError(f"{_where(stratum)}: no character derivation data")
    if stratum.degree % d.p0_orbit_size != 0:
        raise StrataError(
            f"{_where(stratum)}: degree {stratum.degree} is not a multiple of the "
            f"reference orbit size {d.p0_orbit_size}"
        )
    scale = stratum.degree // d.p0_orbit_size
    m = model.multiplicities()
    e0 = model.graph.first_blown_up
    ring = model.ring
    results = {}
    for c in dict.fromkeys(stratum.carrier):
        k = m.entry(c, e0) * scale
        results[c] = ring.reduce(tuple(e * k for e in d.p0_char_exponents))
    distinct = set(results.values())
    if len(distinct) > 1:
        raise StrataError(
            f"{_where(stratum)}: carrier entries disagree on the derived character: {results}"
        )
    return distinct.pop()


def resolve_character(model: StratumModel, stratum: Stratum) -> tuple:
    """The stratum character, cross-checking direct and derived data."""
    ring = model.ring
    direct = stratum.char_exponents
    if direct is not None:
        direct = ring.reduce(direct)
    if stratum.derivation is not None:
        derived = derive_stratum_character(model, stratum)
        if direct is not None and direct != derived:
            raise StrataError(
                f"{_where(stratum)}: declared character {direct} but derivation gives {derived}"
            )
        return derived
    if direct is not None:
        return direct
    if ring.num_generators == 0:
        return ()
    raise StrataError(f"{_where(stratum)}: no character given and nothing to derive it from")


class OrbitDecl(namedtuple("OrbitDecl", "components removed")):
    """One orbit of components with, per component, the number of points
    where it meets the others: its valence, which a job's orbits must
    restate at load."""

    __slots__ = ()

    def __new__(cls, components: tuple, removed: tuple):
        components = tuple(components)
        removed = tuple(removed)
        if len(components) != len(removed):
            raise StrataError("orbit: removed counts do not align with components")
        return super().__new__(cls, components, removed)


class OrbitCheck(namedtuple("OrbitCheck", "components euler_sum expected")):
    """``euler_sum`` (an int) is the chi-weighted covering degree of the
    strata over the orbit ``components``; ``expected`` (an int) the Euler
    characteristic of its punctured components."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.euler_sum == self.expected


class StrataReport(namedtuple("StrataReport", "checks findings")):
    """The :class:`OrbitCheck` list ``checks`` and the ``findings``, a
    list of message strings."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.findings and all(c.ok for c in self.checks)


def validate_strata(model: StratumModel, orbits, branches=()) -> StrataReport:
    """Bookkeeping check: within each component orbit the chi-weighted
    covering degrees of its strata must add up to the Euler
    characteristic of the orbit's punctured components, the sum of
    2 - valence(c) - (the ``branches`` attached at c) over the orbit.
    Pass a curve's branches with the strata :func:`curve_strata` gives.
    Report-valued; never raises for a mere mismatch."""
    orbits = list(orbits)
    findings: list[str] = []
    orbit_of = {}
    known = model.graph.id_index
    for i, orbit in enumerate(orbits):
        for c in orbit.components:
            if c not in known:
                findings.append(f"orbit {i}: unknown component {c!r}")
            elif c in orbit_of:
                findings.append(f"component {c!r} appears in two orbits")
            else:
                orbit_of[c] = i
    sums = [0] * len(orbits)
    for st in model.strata:
        carrier, c = st.carrier, st.carrier[0]
        if carrier.count(c) == len(carrier):  # one id, as most carriers are
            if (i := orbit_of.get(c)) is None:
                findings.append(f"{_where(st)}: carrier components {[c]} in no orbit")
            else:
                sums[i] += st.chi * st.degree
            continue
        support = dict.fromkeys(carrier)  # carrier order, for stable messages
        touched = {orbit_of[c] for c in support if c in orbit_of}
        unassigned = [c for c in support if c not in orbit_of]
        if unassigned:
            findings.append(f"{_where(st)}: carrier components {unassigned} in no orbit")
            continue
        if len(touched) != 1:
            findings.append(f"{_where(st)}: carrier spans several component orbits")
            continue
        sums[touched.pop()] += st.chi * st.degree
    lost = dict(model.graph.valences)
    for b in branches:
        lost[b.attach] = lost.get(b.attach, 0) + 1
    checks = []
    for i, orbit in enumerate(orbits):
        expected = sum(2 - lost.get(c, 0) for c in orbit.components)
        checks.append(OrbitCheck(orbit.components, sums[i], expected))
    return StrataReport(checks, findings)


class Branch(namedtuple("Branch", "attach label", defaults=(None,))):
    """One branch of the curve: the component ``attach`` its strict
    transform meets, and an optional ``label`` (a str)."""

    __slots__ = ()


class RemovedPointOrbit(namedtuple("RemovedPointOrbit", "stratum count degree",
                                   defaults=(None,))):
    """An orbit of strict-transform points to delete from a stratum.

    ``stratum`` names the stratum by label (a str) or by position (an
    int); ``count`` (an int) is the number of quotient points removed;
    ``degree`` (an int), when given, must equal the stratum's covering
    degree (the points of one orbit lie over the same carrier pattern as
    the stratum itself).
    """

    __slots__ = ()


def removed_point_stratum(strata, orbit: RemovedPointOrbit) -> int:
    """The index in ``strata`` of the stratum ``orbit`` names, by label or
    by position.  A :class:`StrataError` when it names none, or when the
    orbit's count is negative or its degree is not the stratum's."""
    ref = orbit.stratum
    if isinstance(ref, str):
        hits = [s for s in strata if s.label == ref]
        if len(hits) != 1:
            raise StrataError(f"{len(hits)} strata labelled {ref!r}")
        idx = strata.index(hits[0])
    elif isinstance(ref, int) and 0 <= ref < len(strata):
        idx = ref
    else:
        raise StrataError(f"no stratum {ref!r}")
    if orbit.degree is not None and orbit.degree != strata[idx].degree:
        raise StrataError(
            f"degree {orbit.degree} does not match the covering degree "
            f"{strata[idx].degree} of stratum {ref!r}"
        )
    if orbit.count < 0:
        raise StrataError(f"count {orbit.count} must be >= 0")
    return idx


def curve_strata(model: StratumModel, removed_orbits):
    """Strata of the divisor with the strict-transform points deleted.

    Returns the adjusted strata: chi reduced by the removed quotient
    points, carriers and characters unchanged.  Each orbit goes through
    :func:`removed_point_stratum`, as a job's orbits do at load.
    """
    strata = list(model.strata)
    for ro in removed_orbits:
        idx = removed_point_stratum(strata, ro)
        st = strata[idx]
        strata[idx] = st._replace(chi=st.chi - ro.count)  # skips __new__; chi has no check
    return tuple(strata)
