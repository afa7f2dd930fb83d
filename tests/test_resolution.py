import copy
import random

import pytest

from eqpoincare.resolution import (
    GraphError,
    ResolutionGraph,
    integer_determinant,
)
from blowup import random_blowup_graph, relabelled


def chain(self_ints, e0):
    n = len(self_ints)
    comps = tuple((i + 1, k) for i, k in enumerate(self_ints))
    edges = tuple((i, i + 1) for i in range(1, n))
    return ResolutionGraph(comps, edges, e0)


def test_three_component_chain_multiplicities():
    g = chain([-1, -3, -1], e0=2)
    m = g.multiplicity_matrix()
    assert m.rows == [[2, 1, 1], [1, 1, 1], [1, 1, 2]]
    assert m.entry(1, 3) == 1
    assert m.row(1) == (2, 1, 1)
    assert m.row(3, targets=(3, 1)) == (2, 1)


def test_nine_component_chain_multiplicities():
    g = chain([-1, -2, -3, -1, -5, -1, -3, -2, -1], e0=5)
    m = g.multiplicity_matrix()
    assert m.row(1) == (4, 3, 2, 3, 1, 2, 1, 1, 1)
    assert m.row(9) == tuple(reversed(m.row(1)))
    assert m.row(1, targets=(1, 4, 6, 9)) == (4, 3, 2, 1)
    assert m.row(9, targets=(1, 4, 6, 9)) == (1, 2, 3, 4)


def test_star_multiplicities():
    # central (-7) vertex, six (-2) arms each ending in a (-1) tip
    comps = [("E0", -7)]
    edges = []
    for i in range(1, 7):
        comps += [(f"A{i}", -2), (f"B{i}", -1)]
        edges += [("E0", f"A{i}"), (f"A{i}", f"B{i}")]
    g = ResolutionGraph(tuple(comps), tuple(edges), "E0")
    m = g.multiplicity_matrix()
    assert all(m.entry("E0", cid) == 1 for cid in g.ids)
    assert m.entry("B1", "B1") == 3
    assert m.entry("B1", "A1") == 2
    assert m.entry("B1", "B2") == 1
    # the two tips over one subgroup's fixed-point pair, summed, give the
    # multi-index weights used by the star fixture
    pair = [m.entry("B1", c) + m.entry("B4", c)
            for c in ("E0", "A1", "B1", "A2", "B2", "A3", "B3")]
    assert pair == [2, 3, 4, 2, 2, 2, 2]


def test_wrong_self_intersection_rejected():
    with pytest.raises(GraphError, match="determinant"):
        chain([-1, -3, -2], e0=2).multiplicity_matrix()
    with pytest.raises(GraphError):
        chain([-1, -2, -1], e0=2).multiplicity_matrix()


def test_graph_validation_errors():
    with pytest.raises(GraphError, match="duplicate"):
        ResolutionGraph(((1, -1), (1, -2)), (), 1)
    with pytest.raises(GraphError, match="loop"):
        ResolutionGraph(((1, -1), (2, -2)), ((1, 1),), 1)
    with pytest.raises(GraphError, match="twice"):
        ResolutionGraph(((1, -1), (2, -2)), ((1, 2), (2, 1)), 1)
    with pytest.raises(GraphError, match="unknown"):
        ResolutionGraph(((1, -1),), ((1, 2),), 1)
    with pytest.raises(GraphError, match="connected"):
        ResolutionGraph(((1, -2), (2, -2)), (), 1)
    with pytest.raises(GraphError, match="not a vertex"):
        ResolutionGraph(((1, -1),), (), 3)
    with pytest.raises(GraphError, match="self-intersection"):
        ResolutionGraph(((1, 0),), (), 1)
    with pytest.raises(GraphError, match="at least one"):
        ResolutionGraph((), (), 1)


def test_single_blowup():
    g = ResolutionGraph(((1, -1),), (), 1)
    assert g.multiplicity_matrix().rows == [[1]]


def test_determinant_helper():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[2, 3], [4, 6]]) == 0
    assert integer_determinant([[0, 1], [0, 2]]) == 0  # no pivot in the first column
    assert integer_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_simulated_blowup_graphs_have_valid_matrices():
    rng = random.Random(20260815)
    for trial in range(200):
        g = random_blowup_graph(rng, rng.randrange(0, 12))
        e = g.intersection_matrix()
        n = len(e)
        assert integer_determinant(e) == (-1) ** n
        m = g.multiplicity_matrix()  # enforces symmetry and positivity
        for i in range(n):
            for j in range(n):
                acc = sum(e[i][k] * m.rows[k][j] for k in range(n))
                assert acc == (-1 if i == j else 0)


def test_simulated_blowup_graphs_at_full_size():
    # E.M = -I against the intersection matrix, which does not go through
    # the blow-down, on relabelled and reordered graphs of up to 40 components;
    # on fresh matrices, columns and rows solved one at a time in shuffled
    # order equal the slices of rows
    rng = random.Random(20261018)
    for trial in range(120):
        g = relabelled(rng, random_blowup_graph(rng, rng.randrange(0, 40)))
        e = g.intersection_matrix()
        m = g.multiplicity_matrix()
        assert m.ids == g.ids
        columns = list(zip(*m.rows))
        n = len(e)
        for i in range(n):
            for j in range(n):
                acc = sum(a * b for a, b in zip(e[i], columns[j]))
                assert acc == (-1 if i == j else 0)
        by_column = g.multiplicity_matrix()
        for t in rng.sample(range(n), n):
            assert tuple(by_column.entry(a, g.ids[t]) for a in g.ids) == columns[t]
        by_row = g.multiplicity_matrix()
        for s in rng.sample(range(n), n):
            assert list(by_row.row(g.ids[s])) == m.rows[s]


def test_blowup_sequence_of_the_cusp_chain():
    # three blow-ups resolving y^2 = x^3: a free point on E1, then the
    # satellite point E1 n E2
    g = ResolutionGraph(((1, -3), (2, -2), (3, -1)), ((1, 3), (3, 2)), 1)
    assert g.blowup_sequence() == ((1, ()), (2, (1,)), (3, (1, 2)))
    assert g.multiplicity_matrix().rows == [[1, 1, 2], [1, 2, 3], [2, 3, 6]]


def test_graphs_that_do_not_blow_down_are_rejected():
    e8 = ResolutionGraph(
        tuple((c, -2) for c in "ABCDEFGH"),
        tuple(zip("ABCDEF", "BCDEFG")) + (("C", "H"),),
        "A",
    )
    assert integer_determinant(e8.intersection_matrix()) == 1
    with pytest.raises(GraphError, match="does not blow down"):
        e8.multiplicity_matrix()
    cycle = ResolutionGraph(
        ((0, -2), (1, -3), (2, -2), (3, -2)), ((0, 1), (1, 2), (2, 0), (2, 3)), 0
    )
    with pytest.raises(GraphError, match="cycle"):
        cycle.multiplicity_matrix()
    with pytest.raises(GraphError, match="raises the self-intersection"):
        chain([-1, -1], e0=1).multiplicity_matrix()


def test_first_blown_up_must_be_the_blow_down_root():
    with pytest.raises(GraphError, match="first_blown_up is 1 but the graph blows down to 2"):
        chain([-1, -3, -1], e0=1).multiplicity_matrix()


def test_matrix_is_built_once_per_graph():
    g = chain([-1, -3, -1], e0=2)
    assert g.multiplicities is g.multiplicities
    assert g.multiplicities.rows == g.multiplicity_matrix().rows


def test_loading_solves_no_column():
    g = chain([-1, -2, -3, -1, -5, -1, -3, -2, -1], e0=5)
    assert g.multiplicities._columns == {}
    assert g.multiplicities.row(1, targets=(4, 4, 9)) == (3, 3, 1)
    assert sorted(g.multiplicities._columns) == [4, 9]


def test_valences_count_the_edges_at_each_component():
    g = chain([-1, -3, -1], e0=2)
    assert [g.valences[c] for c in g.ids] == [1, 2, 1]
    assert ResolutionGraph(((1, -1),), (), 1).valences[1] == 0


def test_graphs_rebuilt_without_new_derive_their_index():
    # _make skips __new__ and starts from an empty instance dict; deepcopy
    # runs __new__ and then copies the instance dict, cached matrix included
    rng = random.Random(34)
    graphs = [chain([-1, -3, -1], e0=2), ResolutionGraph(((1, -1),), (), 1)]
    graphs += [relabelled(rng, random_blowup_graph(rng, k)) for k in (4, 12, 30)]
    for g in graphs:
        made = ResolutionGraph._make(g)
        assert made.__dict__ == {}
        for h in (made, copy.deepcopy(g)):
            assert h == g
            assert h.blowup_sequence() == g.blowup_sequence()
            assert h.valences == g.valences
            assert h.multiplicities.rows == g.multiplicities.rows
            assert h.intersection_matrix() == g.intersection_matrix()
