"""Frozen outcomes of ``parse_job`` on every one-field mutation of a job.

Every field of the six shipped jobs and of two generated fresh-style
jobs (a random blow-up graph with string ids and the trivial group: one
with one stratum and one orbit per component, one on 40 components whose
unlabelled strata and orbits gather four alike components into one) is
deleted or replaced by ``null``, ``true``, ``1.5``, ``"x"``, ``[]``,
``{}`` or an id the graph does not have.  Each outcome, "accepted" or the exact error text, is one line;
the lines of a job are pinned as a sha256 digest, so a change to any
accept/reject decision or to any message shows here.  An exception
other than ``JobError`` is a bug in the loader and fails the test on
its own, whatever its text.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from eqpoincare.jobs import JobError, parse_job

from blowup import random_blowup_graph

JOBS = Path(__file__).resolve().parent.parent / "jobs"

DIGESTS = {
    "example1": "dc1007aad0f23881860ba1e9eaceaad1e48efe8566267ebbf74c2d3aedf777ad",
    "example2": "8f509c83ab0960e79f547c8cca3ab854116fc67832fc2a76e1068958b3217e21",
    "example2_oracle": "d9b410733fc8dfb6b883a5b97e7b861f620f9e2f1fb778b88862e703d53f99b6",
    "example3": "2223e32547b9a1e836a5ef2c0623f6a7628b1f84eec84d6acf816c2ce603ff1e",
    "node_curve": "f450236da2d96ca869d33bea72db661db2d730a3d32351d7609bdebf022d06a0",
    "single_blowup": "754b6d02d8a237ab79625a76877474c910ce0fabd5ed7bb10c91d5403b126526",
    "fresh": "1d863f73efb61ce823611016cbb1629aa8796c25f81697aa063ddd8d43090ee1",
    "fresh40": "f6857089fcd3597521892b5c4a018ebd2f73600737fb1a310c2b88a8f10c4363",
}

_DELETE = object()


def fresh_doc() -> dict:
    """A job shaped like the benchmark's fresh-graphs jobs, on 8 components."""
    g = random_blowup_graph(random.Random(34), 7)
    name = {cid: f"f{cid}E" for cid in g.ids}
    chosen = [g.ids[0], g.ids[3], g.ids[-1]]
    rows = g.multiplicities
    return {
        "name": "fresh",
        "ring": {"orders": []},
        "graph": {
            "components": [{"id": name[c], "self_intersection": k} for c, k in g.components],
            "edges": [[name[a], name[b]] for a, b in g.edges],
            "first_blown_up": name[g.first_blown_up],
        },
        "chosen": [name[c] for c in chosen],
        "strata": [{"label": f"{name[c]} open", "carrier": [name[c]],
                    "chi": 2 - g.valences[c]} for c in g.ids],
        "orbits": [{"components": [name[c]], "removed": [g.valences[c]]} for c in g.ids],
        "expected": {"divisorial": [
            {"exponent": list(rows.row(c, chosen)), "power": g.valences[c] - 2}
            for c in g.ids if g.valences[c] != 2
        ]},
    }


def fresh40_doc() -> dict:
    """A fresh-style job on 40 components: the first four (-1)-components of
    valence 2 form one orbit, carried by one stratum, and every other
    component is an orbit and a stratum of its own; no stratum is labelled."""
    g = random_blowup_graph(random.Random(40), 39)
    name = {cid: f"g{cid}E" for cid in g.ids}
    chosen = [g.ids[0], g.ids[17], g.ids[-1]]
    rows = g.multiplicities
    alike = [c for c, k in g.components if k == -1 and g.valences[c] == 2][:4]
    single = [c for c in g.ids if c not in alike]
    orbits = [alike] + [[c] for c in single]
    return {
        "name": "fresh40",
        "ring": {"orders": []},
        "graph": {
            "components": [{"id": name[c], "self_intersection": k} for c, k in g.components],
            "edges": [[name[a], name[b]] for a, b in g.edges],
            "first_blown_up": name[g.first_blown_up],
        },
        "chosen": [name[c] for c in chosen],
        "strata": [{"carrier": [name[c] for c in orbit],
                    "chi": sum(2 - g.valences[c] for c in orbit) // len(orbit)}
                   for orbit in orbits],
        "orbits": [{"components": [name[c] for c in orbit],
                    "removed": [g.valences[c] for c in orbit]} for orbit in orbits],
        "expected": {"divisorial": [
            {"exponent": list(rows.row(c, chosen)), "power": g.valences[c] - 2}
            for c in g.ids if g.valences[c] != 2
        ]},
    }


def documents() -> dict:
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(JOBS.glob("*.json"))}
    docs["fresh"] = fresh_doc()
    docs["fresh40"] = fresh40_doc()
    return docs


def field_paths(node, path=()):
    """Every key of every object and every item of every list, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, path + (key,))


def show(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def outcomes(doc) -> tuple[list[str], list[str]]:
    """The outcome line of every mutation, and the exceptions that escaped."""
    text = json.dumps(doc)
    ids = [c["id"] for c in doc["graph"]["components"]]
    unknown = "no-such-component" if any(isinstance(c, str) for c in ids) else 404
    mutations = [("delete", _DELETE), ("null", None), ("true", True), ("1.5", 1.5),
                 ('"x"', "x"), ("[]", []), ("{}", {}), ("unknown id", unknown)]
    lines, escaped = [], []
    for path in field_paths(doc):
        for label, value in mutations:
            mutated = json.loads(text)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value if not isinstance(value, (list, dict)) else type(value)()
            try:
                parse_job(mutated)
                result = "accepted"
            except Exception as e:  # noqa: BLE001 - any other class is the finding
                if not isinstance(e, JobError):
                    escaped.append(f"{show(path)} {label}: {type(e).__name__}: {e}")
                result = f"rejected: {e}"
            lines.append(f"{show(path)}\t{label}\t{result}")
    return lines, escaped


DOCS = documents()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_loader_outcomes_are_frozen(name):
    lines, escaped = outcomes(DOCS[name])
    parse_job(DOCS[name])
    assert escaped == []
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGESTS[name], f"{len(lines)} outcomes"
