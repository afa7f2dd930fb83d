"""Seeded op lists for the benchmark workloads.

An op is one ``eqpoincare`` command line.  A pass is a workload's op
list run once.  The same seed gives the same op list for every pass
index; the program sees only argv and the job files written here.

* ``dense-series``: ``compute`` at high degree on the shipped graphs and
  the one-index star, plus ``extract`` at every degree the CLI accepts.
* ``oracle-check``: ``check`` on the jobs that carry a monomial oracle.
* ``fresh-graphs``: ``validate``, ``compute`` and ``check``, each on its
  own random blow-up resolution.  Every pass repeats the same graphs
  under new component ids, so each op does the same work in every pass
  and the package's graph-keyed cache never hits.

Every op that prints a series carries a :class:`Reference`: a frozen
factor list that :mod:`reference` expands without the package.  The
star takes the factors of ``example3``'s ``expected.divisorial``
projected onto its one chosen coordinate.  A fresh graph's factors come
from replaying its blow-up sequence (:func:`multiplicity_rows`), never
from ``ResolutionGraph.multiplicity_matrix``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dense-series", "oracle-check", "fresh-graphs")

# Inputs on which the parent commit of the benchmark gives a wrong
# answer: quotient extraction drops coefficients when the plan drops
# variables (ROADMAP open item 1).  These ops run, are verified and count
# as failed; the list only decides whether a failure is a new one.
KNOWN_DEFECTS = {
    ("extract", "example1"): range(13, 17),
    ("extract", "example2"): range(10, 15),
    ("extract", "example3"): range(9, 13),
    ("check", "example1"): range(13, 17),
}


@dataclass(frozen=True)
class Reference:
    """The expected series: ``prod (1 - c u^char t^exponent)^power``
    through ``degree``, restricted to ``character`` when given."""

    factors: tuple  # ((char, exponent, power, coefficient), ...)
    num_vars: int
    orders: tuple
    degree: int
    character: tuple | None = None
    integer: bool = False  # the command prints an integer series


@dataclass(frozen=True)
class Op:
    argv: tuple
    key: str  # ops with equal keys read equal inputs
    category: str
    reference: Reference | None  # None: the op only has to exit 0
    known_defect: bool = False


def _known_defect(command: str, job: str, degree: int) -> bool:
    return degree in KNOWN_DEFECTS.get((command, job), ())


def expected_factors(doc: dict, kind: str, orders: tuple) -> tuple:
    out = []
    for f in doc["expected"][kind]:
        char = tuple(f.get("character") or (0,) * len(orders))
        out.append((char, tuple(f["exponent"]), f["power"], f.get("coefficient", 1)))
    return tuple(out)


def star_job(example3: dict) -> dict:
    """``example3`` with the first chosen component only; the expected
    divisorial factors are projected onto that coordinate."""
    doc = json.loads(json.dumps(example3))
    keep = doc["chosen"].index("E0")
    doc["chosen"] = ["E0"]
    doc["name"] = "klein4-star-E0"
    del doc["extract"]
    doc["expected"] = {"divisorial": [
        dict(f, exponent=[f["exponent"][keep]])
        for f in example3["expected"]["divisorial"]
    ]}
    return doc


def _series_op(category, path, doc, command, degree, fmt, mode="divisorial",
               character=None, name=None):
    orders = tuple(doc["ring"]["orders"])
    argv = [command, str(path), "--degree", str(degree)]
    if command == "extract":
        factors = expected_factors(doc, "extract", ())
        ref = Reference(factors, len(factors[0][1]), (), degree, integer=True)
        defect = _known_defect("extract", name, degree)
    else:
        if mode == "curve":
            argv += ["--mode", "curve"]
            num_vars = len(doc["curve"]["branches"])
        else:
            num_vars = len(doc["chosen"])
        if character is not None:
            argv += ["--character", ",".join(str(x) for x in character)]
        factors = expected_factors(doc, mode, orders)
        ref = Reference(factors, num_vars, orders, degree, character,
                        integer=character is not None)
        defect = False
    if fmt == "machine":
        argv += ["--format", "machine"]
    return Op(tuple(argv), " ".join(argv), category, ref, defect)


def _check_op(category, path, name, degree):
    argv = ("check", str(path), "--degree", str(degree))
    return Op(argv, " ".join(argv), category, None,
              _known_defect("check", name, degree))


def _grid(lo, hi, count):
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _jitter(rng, value, spread, lo, hi):
    return min(hi, max(lo, value + rng.randint(-spread, spread)))


def _characters(orders):
    chars = [()]
    for m in orders:
        chars = [c + (e,) for c in chars for e in range(m)]
    return chars


def dense_ops(rng, jobs: Path, workdir: Path) -> list[Op]:
    docs = {n: json.loads((jobs / f"{n}.json").read_text())
            for n in ("example1", "example2", "example3")}
    star = star_job(docs["example3"])
    star_path = workdir / "star_E0.json"
    star_path.write_text(json.dumps(star))
    e1, e1_path = docs["example1"], jobs / "example1.json"
    ops = []

    def fmt(i):
        return ("text", "machine")[i % 2]

    def char(i, orders):
        return rng.choice(_characters(orders)) if i % 3 == 2 else None

    for i, base in enumerate(_grid(150, 600, 3)):
        ops.append(_series_op("compute star", star_path, star, "compute",
                              _jitter(rng, base, 2, 150, 600), fmt(i),
                              character=char(i, (2, 2))))
    for i, base in enumerate(_grid(128, 512, 33)):
        ops.append(_series_op("compute example1", e1_path, e1, "compute",
                              _jitter(rng, base, 1, 128, 512), fmt(i),
                              character=char(i, (3,))))
    for i, base in enumerate(_grid(1000, 3000, 20)):
        ops.append(_series_op("compute example1 curve", e1_path, e1, "compute",
                              _jitter(rng, base, 5, 1000, 3000), fmt(i),
                              mode="curve", character=char(i, (3,))))
    for name, doc in docs.items():
        plan = doc["extract"]
        top = plan["compute_degree"] // max(
            p.get("denominator", 1) for p in plan["plan"] if not p.get("drop"))
        for degree in range(top + 1):
            ops.append(_series_op(f"extract {name}", jobs / f"{name}.json", doc,
                                  "extract", degree, fmt(degree), name=name))
    return ops


def oracle_ops(rng, jobs: Path) -> list[Op]:
    ops = []
    for degree in range(6, 17):
        ops.append(_check_op("check example1", jobs / "example1.json", "example1", degree))
    for degree in range(3, 7):
        ops.append(_check_op("check example2_oracle", jobs / "example2_oracle.json",
                             "example2_oracle", degree))
    for base in _grid(20, 50, 43):
        ops.append(_check_op("check node_curve", jobs / "node_curve.json", "node_curve",
                             _jitter(rng, base, 1, 20, 50)))
    for base in _grid(40, 100, 42):
        ops.append(_check_op("check single_blowup", jobs / "single_blowup.json",
                             "single_blowup", _jitter(rng, base, 1, 40, 100)))
    return ops


def blowup_proximities(rng, n: int) -> list[tuple]:
    """Random composition of ``n`` point blow-ups.  Entry j lists the
    earlier components the j-th centre lies on: one for a free point of
    a component, two for the intersection point of two components."""
    prox = [()]
    edges = set()
    for new in range(1, n):
        if edges and rng.random() < 0.5:
            a, b = rng.choice(sorted(edges))
            edges.remove((a, b))
            edges |= {(a, new), (b, new)}
            prox.append((a, b))
        else:
            a = rng.randrange(new)
            edges.add((a, new))
            prox.append((a,))
    return prox


def dual_graph(prox):
    """Self-intersections and edges of the final dual graph."""
    n = len(prox)
    self_int = [-1] * n
    edges = set()
    for j, centre in enumerate(prox):
        for a in centre:
            self_int[a] -= 1
            edges.add((a, j))
        if len(centre) == 2:
            edges.discard(tuple(sorted(centre)))
    return self_int, sorted(edges)


def multiplicity_rows(prox) -> list[list[int]]:
    """M = -(E o E)^(-1) from the proximity relation alone.

    With E_i = E*_i - sum over centres j lying on E_i of E*_j, where the
    total transforms E*_j are orthonormal with square -1, the
    intersection matrix is -Q Q^T for the unitriangular Q of that
    relation, so M = Q^(-T) Q^(-1), and Q^(-1) is integral.
    """
    n = len(prox)
    on = [[k for k in range(n) if i in prox[k]] for i in range(n)]
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            inv[i][j] = sum(inv[k][j] for k in on[i] if k <= j)
    return [[sum(inv[k][s] * inv[k][t] for k in range(n)) for t in range(n)]
            for s in range(n)]


def fresh_job(prox, chosen, tag: str) -> dict:
    """A job on the resolution of the blow-up sequence ``prox``: trivial
    group, one stratum per component with chi = 2 - valence, and the
    expected divisorial factors at the ``chosen`` components frozen from
    the replayed multiplicities.  Component ids carry ``tag``."""
    n = len(prox)
    self_int, edges = dual_graph(prox)
    valence = [0] * n
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    rows = multiplicity_rows(prox)

    def cid(i):
        return f"{tag}E{i}"

    return {
        "name": f"fresh-{tag}",
        "ring": {"orders": []},
        "graph": {
            "components": [{"id": cid(i), "self_intersection": k}
                           for i, k in enumerate(self_int)],
            "edges": [[cid(a), cid(b)] for a, b in edges],
            "first_blown_up": cid(0),
        },
        "chosen": [cid(c) for c in chosen],
        "strata": [{"label": f"{cid(i)} open", "carrier": [cid(i)],
                    "chi": 2 - valence[i]} for i in range(n)],
        "orbits": [{"components": [cid(i)], "removed": [valence[i]]}
                   for i in range(n)],
        "expected": {"divisorial": [
            {"exponent": [rows[i][t] for t in chosen], "power": valence[i] - 2}
            for i in range(n) if valence[i] != 2
        ]},
    }


FRESH_SIZES = range(5, 41)
FRESH_KINDS = ("validate", "compute", "check")


@dataclass(frozen=True)
class FreshSlot:
    """One position of the fresh-graphs op list: the command and its
    random resolution, the same in every pass."""

    kind: str
    prox: tuple
    chosen: tuple
    degree: int
    fmt: str


def fresh_slots(seed: int) -> list[FreshSlot]:
    """One slot per command and size from 5 to 40 components."""
    rng = random.Random(f"fresh-graphs/{seed}")
    slots = []
    for j in range(len(FRESH_KINDS) * len(FRESH_SIZES)):
        n = FRESH_SIZES[j % len(FRESH_SIZES)]
        prox = tuple(blowup_proximities(rng, n))
        chosen = tuple(rng.sample(range(n), rng.choice((1, 2))))
        slots.append(FreshSlot(FRESH_KINDS[j // len(FRESH_SIZES)], prox, chosen,
                               rng.randint(8, 24), ("text", "machine")[j % 2]))
    return slots


def fresh_ops(slots, pass_index: int, workdir: Path) -> list[Op]:
    """The slots' jobs under component ids new to this pass, so the
    package sees a graph it has not met before in every op."""
    folder = workdir / f"pass{pass_index}"
    folder.mkdir(exist_ok=True)
    ops = []
    for j, slot in enumerate(slots):
        tag = f"p{pass_index}o{j}"
        doc = fresh_job(slot.prox, slot.chosen, tag)
        path = folder / f"{tag}.json"
        path.write_text(json.dumps(doc))
        if slot.kind == "validate":
            ops.append(Op(("validate", str(path)), f"validate {path}",
                          "validate fresh", None))
        elif slot.kind == "check":
            ops.append(_check_op("check fresh", path, doc["name"], slot.degree))
        else:
            ops.append(_series_op("compute fresh", path, doc, "compute",
                                  slot.degree, slot.fmt))
    return ops


class Workload:
    """The op list of each pass; pass 0 is the untimed warm-up."""

    def __init__(self, name: str, seed: int, root: Path, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.workdir = workdir
        rng = random.Random(f"{name}/{seed}")
        jobs = root / "jobs"
        self._fixed = None
        if name == "dense-series":
            self._fixed = dense_ops(rng, jobs, workdir)
        elif name == "oracle-check":
            self._fixed = oracle_ops(rng, jobs)
        else:
            self._slots = fresh_slots(seed)
            self._warmup = fresh_ops(self._slots, 0, workdir)

    def ops(self, pass_index: int) -> list[Op]:
        if self._fixed is not None:
            return self._fixed
        if pass_index == 0:
            return self._warmup
        return fresh_ops(self._slots, pass_index, self.workdir)

    def done(self, pass_index: int) -> None:
        """Drop the job files of a finished pass; the warm-up pass keeps
        them, it holds the set-up job."""
        folder = self.workdir / f"pass{pass_index}"
        if self._fixed is None and pass_index > 0:
            for path in folder.iterdir():
                path.unlink()
            folder.rmdir()

    def setup_job(self) -> str:
        """The job of the first op of the warm-up pass."""
        return self.ops(0)[0].argv[1]
