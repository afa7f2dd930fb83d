"""Dual graphs of embedded resolutions and their multiplicity matrices.

A resolution of a plane curve germ by a composition of point blow-ups is
described here only through its dual graph: one vertex per exceptional
component with its self-intersection number, one edge per intersection
point of two components, and a marked vertex for the first component
blown up.

A graph is accepted when it blows down to a smooth point.  A
(-1)-component meeting at most two others can be taken as the last
blow-up: contracting it raises the self-intersection of each neighbour
by one and, when there are two neighbours, joins them.  Contracting
until nothing is left recovers the blow-up sequence in reverse, and the
neighbours of a component when it is contracted are the components its
centre lies on.  The graph must be a tree, no neighbour may rise above
-1, and the component contracted last must be ``first_blown_up``.

The multiplicity matrix M = -(E o E)^(-1) is then read off the sequence
in integer arithmetic: M[s, t] is the multiplicity of a curvelet
transversal to component t along the divisorial valuation of component
s.  When the blow-down fails the error also reports the determinant of
the intersection matrix if it is not (-1)^n, the value every blow-up
composition has.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import add


class GraphError(ValueError):
    """The description is not the dual graph of a blow-up composition."""


def integer_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class ResolutionGraph(namedtuple("ResolutionGraph", "components edges first_blown_up")):
    """Vertices with self-intersections, edges, and the first blown-up vertex.

    ``components`` is a tuple of (id, self_intersection) pairs; ids may
    be any hashable JSON-friendly values and fix the matrix ordering.
    No ``__slots__``: :attr:`multiplicities` is cached in the instance dict.
    """

    def __new__(cls, components: tuple, edges: tuple, first_blown_up: object):
        comps = tuple((cid, int(k)) for cid, k in components)
        if not comps:
            raise GraphError("a resolution graph needs at least one component")
        ids = [cid for cid, _ in comps]
        if len(set(ids)) != len(ids):
            dupes = sorted({c for c in ids if ids.count(c) > 1}, key=repr)
            raise GraphError(f"duplicate component ids: {dupes}")
        for cid, k in comps:
            if k > -1:
                raise GraphError(
                    f"component {cid!r} has self-intersection {k}; blow-up "
                    "components always have self-intersection <= -1"
                )
        known = set(ids)
        seen = set()
        norm_edges = []
        for edge in edges:
            a, b = edge
            if a not in known or b not in known:
                raise GraphError(f"edge {edge!r} references an unknown component")
            if a == b:
                raise GraphError(f"edge {edge!r} is a loop")
            key = frozenset((a, b))
            if key in seen:
                raise GraphError(f"edge {edge!r} appears twice")
            seen.add(key)
            norm_edges.append((a, b))
        if first_blown_up not in known:
            raise GraphError(
                f"first blown-up component {first_blown_up!r} is not a vertex"
            )
        # connectivity: exceptional divisors of a single germ are connected
        reach = {ids[0]}
        frontier = [ids[0]]
        adjacency = {c: set() for c in ids}
        for a, b in norm_edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        while frontier:
            c = frontier.pop()
            for d in adjacency[c] - reach:
                reach.add(d)
                frontier.append(d)
        if reach != known:
            missing = sorted(known - reach, key=repr)
            raise GraphError(f"graph is not connected; unreachable: {missing}")
        return super().__new__(cls, comps, tuple(norm_edges), first_blown_up)

    @property
    def ids(self) -> tuple:
        return tuple(cid for cid, _ in self.components)

    def intersection_matrix(self) -> list[list[int]]:
        """(E_s o E_t) in the component order of the graph."""
        ids = self.ids
        index = {cid: i for i, cid in enumerate(ids)}
        n = len(ids)
        mat = [[0] * n for _ in range(n)]
        for i, (_, k) in enumerate(self.components):
            mat[i][i] = k
        for a, b in self.edges:
            mat[index[a]][index[b]] = 1
            mat[index[b]][index[a]] = 1
        return mat

    def blowup_sequence(self) -> tuple:
        """The blow-ups that produce this graph, recovered by blowing down.

        Returns ``(component, centre)`` pairs in blow-up order, where
        ``centre`` lists the earlier components the blown-up point lies
        on (none for the first, one for a free point, two for a
        satellite point).  Raises GraphError when the graph does not
        blow down to a smooth point.
        """
        ids = self.ids
        n = len(ids)
        if len(self.edges) != n - 1:
            # connected with n - 1 edges is a tree; contraction keeps a
            # tree a tree, so joined neighbours never collide below
            raise GraphError(
                f"graph has a cycle ({len(self.edges)} edges on {n} components); "
                "the dual graph of a blow-up composition is a tree"
            )
        index = {cid: i for i, cid in enumerate(ids)}
        self_int = [k for _, k in self.components]
        adjacency = [set() for _ in range(n)]
        for a, b in self.edges:
            adjacency[index[a]].add(index[b])
            adjacency[index[b]].add(index[a])
        # a vertex once ready stays ready: raising it above -1 is rejected,
        # and a contraction never raises a valence
        ready = [i for i in range(n) if self_int[i] == -1 and len(adjacency[i]) <= 2]
        contracted = []
        while ready:
            v = ready.pop()
            centre = tuple(adjacency[v])
            for c in centre:
                adjacency[c].discard(v)
            if len(centre) == 2:
                a, b = centre
                adjacency[a].add(b)
                adjacency[b].add(a)
            for c in centre:
                self_int[c] += 1
                if self_int[c] > -1:
                    raise GraphError(
                        f"contracting component {ids[v]!r} raises the "
                        f"self-intersection of {ids[c]!r} to {self_int[c]}"
                    )
                if self_int[c] == -1 and len(adjacency[c]) <= 2:
                    ready.append(c)
            contracted.append((v, centre))
        if len(contracted) < n:
            done = {v for v, _ in contracted}
            left = [ids[i] for i in range(n) if i not in done]
            raise GraphError(
                f"graph does not blow down: no (-1)-component of valence <= 2 "
                f"among the {len(left)} left, {left}"
            )
        return tuple(
            (ids[v], tuple(ids[c] for c in centre))
            for v, centre in reversed(contracted)
        )

    def multiplicity_matrix(self) -> "MultiplicityMatrix":
        """Build M from the blow-up sequence; O(n^2) integer additions.

        M[j, t] for an earlier t is the sum of M[c, t] over the centre
        components c of j, and M[j, j] is one more than the sum of
        M[j, c] over those c.
        """
        try:
            sequence = self.blowup_sequence()
        except GraphError as e:
            n = len(self.components)
            det = integer_determinant(self.intersection_matrix())
            if det != (-1) ** n:
                raise GraphError(
                    f"intersection matrix determinant is {det}, expected "
                    f"{(-1) ** n} for {n} components ({e}); not a blow-up "
                    "composition"
                ) from None
            raise GraphError(f"{e}; not a blow-up composition") from None
        root = sequence[0][0]
        if root != self.first_blown_up:
            raise GraphError(
                f"first_blown_up is {self.first_blown_up!r} but the graph "
                f"blows down to {root!r}"
            )
        n = len(sequence)
        position = {cid: j for j, (cid, _) in enumerate(sequence)}
        m = [[0] * n for _ in range(n)]
        for j, (_, centre) in enumerate(sequence):
            cs = [position[c] for c in centre]
            earlier = m[cs[0]][:j] if cs else []
            if len(cs) == 2:
                earlier = list(map(add, earlier, m[cs[1]][:j]))
            m[j][:j] = earlier
            for t, v in enumerate(earlier):
                m[t][j] = v
            m[j][j] = sum(earlier[c] for c in cs) + 1
        order = [position[cid] for cid in self.ids]
        return MultiplicityMatrix(
            self.ids, [list(map(m[s].__getitem__, order)) for s in order]
        )

    @cached_property
    def multiplicities(self) -> "MultiplicityMatrix":
        """:meth:`multiplicity_matrix`, built once per graph instance."""
        return self.multiplicity_matrix()


class MultiplicityMatrix:
    """M = -(E o E)^(-1), indexed by component ids."""

    def __init__(self, ids: tuple, rows: list[list[int]]):
        self.ids = tuple(ids)
        self._index = {cid: i for i, cid in enumerate(self.ids)}
        self.rows = [list(r) for r in rows]

    def entry(self, a, b) -> int:
        return self.rows[self._index[a]][self._index[b]]

    def row(self, a, targets=None) -> tuple:
        """Row at component ``a``, restricted to ``targets`` if given."""
        r = self.rows[self._index[a]]
        if targets is None:
            return tuple(r)
        return tuple(r[self._index[t]] for t in targets)

    def __repr__(self):
        return f"MultiplicityMatrix({len(self.ids)} components)"
