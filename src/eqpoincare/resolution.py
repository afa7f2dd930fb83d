"""Dual graphs of embedded resolutions and their multiplicity matrices.

A resolution of a plane curve germ by a composition of point blow-ups is
described here only through its dual graph: one vertex per exceptional
component with its self-intersection number, one edge per intersection
point of two components, and a marked vertex for the first component
blown up.

A graph keeps its ids, one map from ids to positions, one adjacency (the
neighbour positions of each component, filled in as each edge is checked)
and the valences, each stored in the instance dict as the constructor builds
it (a graph made by ``_make`` derives them when first read); the
connectivity walk, blow-down (on a copy) and matrix use them.

A graph is accepted when it blows down to a smooth point.  A
(-1)-component meeting at most two others can be taken as the last
blow-up: contracting it raises the self-intersection of each neighbour
by one and, when there are two neighbours, joins them.  Contracting
until nothing is left recovers the blow-up sequence in reverse, and the
neighbours of a component when it is contracted are the components its
centre lies on.  The graph must be a tree, no neighbour may rise above
-1, and the component contracted last must be ``first_blown_up``.

The multiplicity matrix M = -(E o E)^(-1) is then solved over the
sequence in integer arithmetic: M[s, t] is the multiplicity of a
curvelet transversal to component t along the divisorial valuation of
component s.  Column t takes O(n) additions and is solved when an entry
of it is first read, so loading a job solves no column and a series
solves one per component indexing it.  When the blow-down fails the
error also reports the determinant of the intersection matrix if it is
not (-1)^n, the value every blow-up composition has.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


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
    No ``__slots__``: the cached properties live in the instance dict.
    """

    def __new__(cls, components: tuple, edges: tuple, first_blown_up: object):
        comps = tuple((cid, int(k)) for cid, k in components)
        if not comps:
            raise GraphError("a resolution graph needs at least one component")
        self = super().__new__(cls, comps, tuple((a, b) for a, b in edges), first_blown_up)
        table = vars(self)  # each table goes in as it is built, so reads find it there
        ids = table["ids"] = cls.ids.func(self)
        index = table["id_index"] = cls.id_index.func(self)
        if len(index) != len(ids):
            dupes = sorted({c for c in ids if ids.count(c) > 1}, key=repr)
            raise GraphError(f"duplicate component ids: {dupes}")
        for cid, k in comps:
            if k > -1:
                raise GraphError(
                    f"component {cid!r} has self-intersection {k}; blow-up "
                    "components always have self-intersection <= -1"
                )
        adjacency = table["_adjacency"] = cls._adjacency.func(self)
        table["valences"] = cls.valences.func(self)
        if first_blown_up not in index:
            raise GraphError(
                f"first blown-up component {first_blown_up!r} is not a vertex"
            )
        # connectivity: exceptional divisors of a single germ are connected
        reach, frontier = [True] + [False] * (len(ids) - 1), [0]
        while frontier:
            for d in adjacency[frontier.pop()]:
                if not reach[d]:
                    reach[d] = True
                    frontier.append(d)
        if not all(reach):
            missing = sorted((c for c, r in zip(ids, reach) if not r), key=repr)
            raise GraphError(f"graph is not connected; unreachable: {missing}")
        return self

    @cached_property
    def ids(self) -> tuple:
        return tuple(cid for cid, _ in self.components)

    @cached_property
    def id_index(self) -> dict:
        """The position of each id in :attr:`ids`."""
        return {cid: i for i, cid in enumerate(self.ids)}

    @cached_property
    def _adjacency(self) -> list:
        """Neighbour positions per component in edge order; lists, so copies blow down alike."""
        index = self.id_index
        adjacency = [[] for _ in index]
        for a, b in self.edges:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphError(f"edge {(a, b)!r} references an unknown component")
            if i == j:
                raise GraphError(f"edge {(a, b)!r} is a loop")
            if j in adjacency[i]:
                raise GraphError(f"edge {(a, b)!r} appears twice")
            adjacency[i].append(j)
            adjacency[j].append(i)
        return adjacency

    @cached_property
    def valences(self) -> dict:
        """Edges at each component, keyed by id."""
        return dict(zip(self.ids, map(len, self._adjacency)))

    def intersection_matrix(self) -> list[list[int]]:
        """(E_s o E_t) in the component order of the graph."""
        n = len(self.components)
        mat = [[0] * n for _ in range(n)]
        for i, ((_, k), neighbours) in enumerate(zip(self.components, self._adjacency)):
            mat[i][i] = k
            for j in neighbours:
                mat[i][j] = 1
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
        return tuple((ids[v], tuple(ids[c] for c in centre))
                     for v, centre in reversed(self._blow_down()))

    def _blow_down(self) -> list:
        """:meth:`blowup_sequence` reversed, over indices into :attr:`ids`."""
        ids = self.ids
        n = len(ids)
        if len(self.edges) != n - 1:
            # connected with n - 1 edges is a tree; contraction keeps a
            # tree a tree, so joined neighbours never collide below
            raise GraphError(
                f"graph has a cycle ({len(self.edges)} edges on {n} components); "
                "the dual graph of a blow-up composition is a tree"
            )
        self_int = [k for _, k in self.components]
        adjacency = [set(a) for a in self._adjacency]
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
        return contracted

    def multiplicity_matrix(self) -> "MultiplicityMatrix":
        """M over the blow-up sequence, no column solved yet; a GraphError
        unless the graph blows down to ``first_blown_up``."""
        try:
            contracted = self._blow_down()
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
        root = self.ids[contracted[-1][0]]
        if root != self.first_blown_up:
            raise GraphError(
                f"first_blown_up is {self.first_blown_up!r} but the graph "
                f"blows down to {root!r}"
            )
        return MultiplicityMatrix(self.ids, self.id_index, contracted)

    @cached_property
    def multiplicities(self) -> "MultiplicityMatrix":
        """:meth:`multiplicity_matrix`, built once per graph instance."""
        return self.multiplicity_matrix()


class MultiplicityMatrix:
    """M = -(E o E)^(-1), indexed by component ids, solved by column.

    E_i = E*_i - (sum of E*_j over the blow-ups j centred on E_i), with the
    total transforms E*_j orthonormal of square -1, so E o E = -Q Q^T for
    a unitriangular Q and M = Q^(-T) Q^(-1).  Column t takes two integer
    passes over the sequence, each adding over at most two centres:
    y = Q^(-1) e_t walking down from the last blow-up (zero until t), then
    Q^(-T) y walking up.  Each column is solved when an entry of it is
    first read, once per instance; :attr:`rows` solves all of them.
    """

    def __init__(self, ids: tuple, index: dict, contracted: list):
        """The graph's ``ids``, ``id_index`` and ``_blow_down()``."""
        self.ids = ids
        self._index = index
        self._contracted = contracted
        self._columns = {}

    def _solve(self, t) -> list:
        """Column t in the order of :attr:`ids`, stored for later reads."""
        z = [0] * len(self.ids)
        z[self._index[t]] = 1
        for v, centre in self._contracted:  # y_v is final once the walk reaches v
            for c in centre:
                z[c] += z[v]
        for v, centre in reversed(self._contracted):  # z_v = y_v + z over the centres
            for c in centre:
                z[v] += z[c]
        self._columns[t] = z
        return z

    def entry(self, a, b) -> int:
        return (self._columns.get(b) or self._solve(b))[self._index[a]]

    def row(self, a, targets=None) -> tuple:
        """Row at component ``a``, restricted to ``targets`` if given.

        Reads one column per target; the whole row is column ``a``."""
        if targets is None:
            return tuple(self._columns.get(a) or self._solve(a))
        return tuple(self.entry(a, t) for t in targets)

    @cached_property
    def rows(self) -> list[list[int]]:
        return [list(self.row(a)) for a in self.ids]

    def __repr__(self):
        return f"MultiplicityMatrix({len(self.ids)} components)"
