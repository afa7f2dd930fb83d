"""Test-only simulator of point blow-up compositions.

Grows a dual graph the way an actual modification does: start from a
single (-1)-component; each further blow-up centre is either a free
point of one component (attach a new (-1)-vertex and drop that
component's self-intersection by one) or an intersection point of two
components (replace their edge by a path through the new (-1)-vertex,
dropping both ends by one).  The public API never builds graphs this
way; the simulator exists to mass-produce known-good inputs for the
matrix properties.
"""

import random

from eqpoincare.resolution import ResolutionGraph


def random_blowup_graph(rng: random.Random, extra_blowups: int) -> ResolutionGraph:
    self_int = {0: -1}
    edges = set()
    for new in range(1, extra_blowups + 1):
        if edges and rng.random() < 0.5:
            a, b = rng.choice(sorted(edges))
            edges.remove((a, b))
            edges.add(tuple(sorted((a, new))))
            edges.add(tuple(sorted((new, b))))
            self_int[a] -= 1
            self_int[b] -= 1
        else:
            a = rng.choice(sorted(self_int))
            edges.add(tuple(sorted((a, new))))
            self_int[a] -= 1
        self_int[new] = -1
    return ResolutionGraph(
        tuple(sorted(self_int.items())), tuple(sorted(edges)), 0
    )


def relabelled(rng: random.Random, graph: ResolutionGraph) -> ResolutionGraph:
    """The same graph under fresh ids (strings and integers mixed), with
    the component list, the edge list and each edge's ends shuffled."""
    ids = list(graph.ids)
    fresh = [f"c{k}" if k % 2 else 1000 + k for k in range(len(ids))]
    rng.shuffle(fresh)
    name = dict(zip(ids, fresh))
    comps = [(name[cid], k) for cid, k in graph.components]
    rng.shuffle(comps)
    edges = [tuple(rng.sample((name[a], name[b]), 2)) for a, b in graph.edges]
    rng.shuffle(edges)
    return ResolutionGraph(tuple(comps), tuple(edges), name[graph.first_blown_up])
