"""A standing catalogue of one-line mutants of ``src/eqpoincare``, and a
runner that checks the test suite kills each of them.

    python tests/mutants.py [--timeout SECONDS] [INDEX ...]

copies the repository into a temporary directory per mutant (under
``$TMPDIR``), replaces the entry's ``old`` text by ``new`` in its file,
runs ``python -m pytest -x -q`` there without the catalogue's own test
(which every mutant fails), and prints killed, survived or timed out.
A mutant is killed when pytest exits non-zero.  The unchanged copy runs
first and must pass (else exit code 2); then the mutants run one after
another, and the exit code is 1 when any survives or times out.
pytest does not collect this file; ``tests/test_mutant_catalogue.py``
checks that each ``old`` occurs exactly once in its file, so a refactor
has to update the catalogue.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eqpoincare"

# (file under src/eqpoincare, old, new): each replaces one line's text
MUTANTS = [
    # the loader's schema table, its walk, and the record shapes that skip the walk
    ("jobs.py", "_ID_TYPES = {str, int}", "_ID_TYPES = {str, int, float}"),
    ("jobs.py", "_INT_TYPE = {int}", "_INT_TYPE = {int, bool}"),
    ("jobs.py", '("chi", {int}, None, True, _TYPE),', '("chi", {int}, None, False, _TYPE),'),
    ("jobs.py", '("count", {int}, None, True, _TYPE),',
     '("count", {int, float}, None, True, _TYPE),'),
    ("jobs.py", "if not raw.keys() <= _KEYS[kind]:", "if False:"),
    ("jobs.py", "if item is _ID_TYPES:  # an id list names its first bad id", "if False:"),
    ("jobs.py", "if type(x) not in item[0] or not item[1].issuperset(map(type, x)):",
     "if type(x) not in item[0]:"),
    ("jobs.py", 'if (type(c) is not dict or len(c) != 2 or type(c.get("id")) not in _ID_TYPES',
     'if (type(c) is not dict or type(c.get("id")) not in _ID_TYPES'),
    ("jobs.py", 'if (type(raw) is dict and len(raw) == 2 + ("label" in raw)',
     "if (type(raw) is dict"),
    ("jobs.py", "and any(exponent) and min(exponent) >= 0):", "and any(exponent)):"),
    ("jobs.py", 'and type(raw.get("label")) in _TEXT', "and True"),
    ("jobs.py", "except StrataError as e:  # a Stratum's own check, worded by it",
     "except KeyError as e:"),
    # the loader's edge pairs
    ("jobs.py", "if len(e) != 2:", "if len(e) > 2:"),
    # the graph's edge checks, connectivity walk and intersection matrix
    ("resolution.py", "if i is None or j is None:", "if i is None:"),
    ("resolution.py", "if i == j:", "if i == j and i < 0:"),
    ("resolution.py", "if j in adjacency[i]:", "if j in adjacency[i] and i < 0:"),
    ("resolution.py", "if not all(reach):", "if not any(reach):"),
    ("resolution.py", "                    frontier.append(d)", "                    pass"),
    ("resolution.py", "for j in neighbours:", "for j in neighbours[:1]:"),
    # the orbit checks at load
    ("jobs.py", "if None in valences:", "if None in valences[:1]:"),
    ("jobs.py", "if len(components) > 1:  # G acts on the graph: the members look alike",
     "if len(components) > 2:"),
    ("jobs.py", "if len(set(zip(kinds, valences))) > 1:", "if len(set(kinds)) > 1:"),
    ("jobs.py", "if removed != valences:", "if len(removed) != len(valences):"),
    # the one-pass orbit section: its valence comparison, its id and int types, one member
    ("jobs.py", "and len(r) == 1 and type(r[0]) is int and r[0] == valence(c[0])]",
     "and len(r) == 1 and type(r[0]) is int]"),
    ("jobs.py", "type(r[0]) is int", "type(r[0]) in (int, bool)"),
    ("jobs.py", 'and type(c[0]) in _ID_TYPES and type(r := raw.get("removed")) is list',
     'and type(r := raw.get("removed")) is list'),
    ("jobs.py", 'and type(c := raw.get("components")) is list and len(c) == 1',
     'and type(c := raw.get("components")) is list'),
    # the one-pass check of a list of lists, such as the graph's edges
    ("jobs.py", "and item[1].issuperset(map(type, chain.from_iterable(value)))):",
     "and True):"),
    # the graph's tables, stored in the instance dict as they are built
    ("resolution.py", 'index = table["id_index"] = cls.id_index.func(self)',
     'index = table["id_index"] = {c: i for i, c in enumerate(sorted(ids, key=repr))}'),
    ("resolution.py", 'table["valences"] = cls.valences.func(self)',
     'table["valences"] = dict.fromkeys(ids, 2)'),
    # the monomial oracle's runs and difference lists
    ("oracle.py", "diff[t + (n - r + order - 1) // order] -= 1",
     "diff[t + (n - r) // order] -= 1"),
    ("oracle.py", "t = (a * row_x[0] + r * row_y[0]) // q[0]", "t = 0"),
    ("oracle.py", "q = [order * y for y in row_y]", "q = list(row_y)"),
    ("oracle.py", "key = (line, monomial_character(mm, a, r))",
     "key = (line, monomial_character(mm, a, 0))"),
    ("oracle.py", "            if c:", "            if True:"),
    ("oracle.py", "diff = runs[key] = [0] * ((degree - sum(line)) // sq + 2)",
     "diff = runs[key] = [0] * ((degree - sum(line)) // sq + 1)"),
    # expand's coefficient table
    ("powerseries.py", "if up or c != 1:", "if up or c == 1:"),
    ("powerseries.py", "return [1] * (kmax + 1)", "return [1] * kmax"),
    # one-id carriers in the bookkeeping check
    ("strata.py", "if carrier.count(c) == len(carrier):", "if carrier.count(c) >= 1:"),
    # the command line's route table, as check reads it
    ("cli.py", "for kind in routes if kind in job.expected]", "for kind in routes]"),
    ("cli.py", '(f"{_ENGINE[mode]} vs monomial count", routes[mode],',
     '(f"{_ENGINE[mode]} vs monomial count", routes["divisorial"],'),
    # one factor table per command: the curve route's strata, the characters
    # validation resolves, extract as compute's kind, and the printed report
    ("cli.py", 'curve_poincare(job.model, job.curve.branches, tables["curve"][0], degree, *alpha)',
     'curve_poincare(job.model, job.curve.branches, tables["divisorial"][0], degree, *alpha)'),
    ("cli.py", "if st.chi or on_curve.chi:", "if st.chi:"),
    ("cli.py", 'extract.set_defaults(mode="extract", character=None)',
     'extract.set_defaults(mode="divisorial", character=None)'),
    ("cli.py", "model = job.model._replace(strata=curve)", "model = job.model"),
    ("cli.py", "        print(failure, file=sys.stderr)", "        pass"),
    ("cli.py", 'print("\\n".join(lines))', 'print("\\n".join(lines[1:]))'),
    # the dimension route: its table box, assembly checks and diagonal sum
    ("oracle.py", "if any(x < -1 or x > box for x in v):", "if any(x < -1 for x in v):"),
    ("oracle.py", "items = [(alpha if ring is None else ring.reduce(alpha), table)",
     "items = [(alpha, table)"),
    ("oracle.py", "if table.box < bound + 1:", "if table.box < bound:"),
    ("oracle.py", "diagonal = sum(size ** j for j in range(s))", "diagonal = size ** (s - 1)"),
    ("oracle.py", "if series.coefficient(origin) != expected:",
     "if not series.coefficient(origin):"),
    # the factor table, the plan's output weights and the character ring
    ("engine.py", "rows.append((st, (m, resolve_character(model, st), -st.chi)))",
     "rows.append((st, (m, resolve_character(model, st), st.chi)))"),
    ("engine.py", "w[entry[0]] += mi * (lcm // entry[1])", "w[entry[0]] += mi * lcm"),
    ("charring.py", "return tuple(e % m for e, m in zip(exponents, self.orders))",
     "return tuple(e for e, m in zip(exponents, self.orders))"),
    # check's factor-list comparison, its factor maps and the bookkeeping report
    ("engine.py", "key = (tuple(m), trivial if l is None else ring.reduce(l), c)",
     "key = (tuple(m), trivial if l is None else tuple(l), c)"),
    ("engine.py", "key = (tuple(m), trivial if l is None else ring.reduce(l), c)",
     "key = (tuple(m), trivial if l is None else ring.reduce(l))"),
    ("engine.py", "return {key: power for key, power in total.items() if power}",
     "return total"),
    ("engine.py", "        if c:", "        if True:"),
    ("cli.py", "same, diff = same_factors(kind), None", "same, diff = False, None"),
    ("cli.py", "ok = ok and same", "ok = ok"),
    # one character's part as N / D: the order of u^l, D's coefficient, the
    # part kept, the length and power of N's sums, c^k, and copies of D that meet
    ("engine.py", "n = math.lcm(*(k // math.gcd(x, k) for x, k in zip(l, ring.orders)))",
     "n = math.lcm(*(k // math.gcd(x, k) for x, k in zip(l, ring.orders))) + 1"),
    ("engine.py", "None, power, c ** n))", "None, power, c))"),
    ("engine.py", "if ch == ring.reduce(alpha) and x}", "if not any(ch) and x}"),
    ("engine.py", "min(bound // step, (n - 1) * -power)", "min(bound // step, (n - 2) * -power)"),
    ("engine.py", "enumerate(_binomials(-power, k // n))", "enumerate(_binomials(1, k // n))"),
    ("engine.py", "product.get(key, 0) + coeffs[k] * c ** k * x",
     "product.get(key, 0) + coeffs[k] * x"),
    ("engine.py", "if d._degrees is None or not table.keys().isdisjoint(ws):",
     "if d._degrees is None:"),
    # quotient extraction's one pass over the trivial part: the division by L,
    # the divisibility test, the output bound and the writers' degree buckets
    ("engine.py", "q, d = tuple([a // lcm for a in e]), sum(e)",
     "q, d = tuple([a // 1 for a in e]), sum(e)"),
    ("engine.py", "if sum(q) * lcm != d:  # a remainder, each in [0, L), is left", "if False:"),
    ("engine.py", "return Series._adopt(k, degree, None, table, degrees)",
     "return Series._adopt(k, degree * lcm, None, table, degrees)"),
    ("engine.py", "degrees.setdefault(d // lcm, []).append(q)",
     "degrees.setdefault(d, []).append(q)"),
]


def apply(tree: Path, mutant) -> None:
    name, old, new = mutant
    path = tree / "src" / "eqpoincare" / name
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))


def run(mutant, timeout: float) -> tuple[str, float]:
    """'killed', 'survived' or 'timed out', and the seconds it took; a
    ``mutant`` of None runs the unchanged copy."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".bench_work", ".benchmarks")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=ignore)
        if mutant is not None:
            apply(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore", "tests/test_mutant_catalogue.py"],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        verdict = "killed" if done.returncode != 0 else "survived"
        return verdict, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds one mutant's test run may take (default 120)")
    parser.add_argument("index", type=int, nargs="*",
                        help="catalogue positions to run (default: all)")
    args = parser.parse_args(argv)
    chosen = args.index or range(len(MUTANTS))
    verdict, seconds = run(None, args.timeout)
    shown = {"survived": "passes", "killed": "fails"}.get(verdict, verdict)
    print(f"  - {shown:9s} {seconds:6.1f} s  (no mutant)", flush=True)
    if verdict != "survived":
        print("the unchanged copy fails its tests, so no verdict below would mean anything")
        return 2
    failed = 0
    for k in chosen:
        name, old, new = MUTANTS[k]
        verdict, seconds = run(MUTANTS[k], args.timeout)
        failed += verdict != "killed"
        print(f"{k:3d} {verdict:9s} {seconds:6.1f} s  {name}: {old.strip()!r} -> {new.strip()!r}",
              flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
