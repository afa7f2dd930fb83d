"""Random job documents through every command.

Each example takes one of the documents of :mod:`test_loader_outcomes`
(the shipped jobs and two fresh-style jobs) and changes it in one or more
of these ways: a field wrapped in deeper lists and objects, an integer
field set to a huge integer, the component ids renamed to unicode
strings, an object written with a duplicate key, orbits merged so that
one-member and many-member orbits mix, and an orbit's ``removed`` entry
set to ``true``, ``1.0`` or an unknown id.  The document then goes
through ``validate``, ``explain``, and ``compute`` and ``check`` at
``--degree`` 0 to 3.  Every run must exit 0, 1 or 2 without a traceback,
and every message of an exit-1 run must name where the input is wrong.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqpoincare.cli import main

from test_loader_outcomes import DOCS, field_paths

# An exit-1 message starts with a field of the job (``job.`` for a top-level
# field's type), a command line option, ``graph:``, or names the job or its
# file; a failed validation has its own last line, after the report.
_FIELDS = "name|ring|graph|chosen|strata|orbits|curve|extract|oracle|expected"
_ERROR = re.compile(rf"error: ((job\.)?({_FIELDS})\b|--|job |cannot read job file )")
_VALIDATION = ("validation failed", "check stopped: validation failed")
# Messages that name a stratum or the model, not the field path: a stratum's
# own empty-carrier check and the model's cross-checks (see ROADMAP item 27).
_UNPATHED = re.compile(r"error: (model: |stratum )")


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    at(doc, path[:-1])[path[-1]] = value


def id_slots(doc):
    """(container, key) of every place ``doc`` names a component, where the
    place has the shape the schema gives it."""
    def items(node, key):
        value = node.get(key) if isinstance(node, dict) else None
        return list(enumerate(value)) if isinstance(value, list) else []
    graph = doc.get("graph")
    slots = [(c, "id") for _, c in items(graph, "components") if isinstance(c, dict)]
    slots += [(e, i) for _, e in items(graph, "edges") if isinstance(e, list) for i in range(len(e))]
    slots += [(graph, "first_blown_up")] if isinstance(graph, dict) else []
    slots += [(doc["chosen"], i) for i, _ in items(doc, "chosen")]
    for key, field in (("strata", "carrier"), ("orbits", "components")):
        for _, x in items(doc, key):
            slots += [(x[field], i) for i, _ in items(x, field)]
    slots += [(b, "attach") for _, b in items(doc.get("curve"), "branches") if isinstance(b, dict)]
    oracle = doc.get("oracle")
    slots += [(oracle, k) for k in ("sigma_x", "sigma_y") if isinstance(oracle, dict)]
    return [(node, key) for node, key in slots
            if (key in node if isinstance(node, dict) else True)]


def rename_ids(doc, names):
    """Every component id of ``doc`` replaced through ``names``, in place."""
    for node, key in id_slots(doc):
        value = node[key]
        if isinstance(value, (str, int)) and not isinstance(value, bool) and value in names:
            node[key] = names[value]


def dumps_with_duplicate(doc, path, key, value) -> str:
    """``doc`` as JSON text whose object at ``path`` states ``key`` twice,
    ``value`` first and its own value last, which the reader keeps."""
    marker = "\u0000dup\u0000"
    target = at(doc, path)
    target[marker] = None
    text = json.dumps(doc)
    del target[marker]
    return text.replace(json.dumps(marker) + ": null", f"{json.dumps(key)}: {json.dumps(value)}")


huge = st.integers(min_value=10 ** 18, max_value=10 ** 60).flatmap(
    lambda n: st.sampled_from((n, -n)))
ids = st.text(alphabet=st.characters(min_codepoint=0xa1, max_codepoint=0x2fff,
                                     exclude_categories=("Cs",)), min_size=1, max_size=4)


@st.composite
def documents(draw):
    """The JSON text of a changed job."""
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    changes = draw(st.lists(st.sampled_from(("nest", "huge", "unicode", "orbits", "removed")),
                            min_size=1, max_size=3))
    for change in changes:
        fields = list(field_paths(doc))
        if change == "nest":  # a field's value under a few more lists and objects
            path = draw(st.sampled_from(fields))
            value = at(doc, path)
            for wrap in draw(st.lists(st.booleans(), min_size=1, max_size=40)):
                value = [value] if wrap else {"components": value}
            put(doc, path, value)
        elif change == "huge":  # one or all of the integer fields
            ints = [p for p in fields if type(at(doc, p)) is int]
            if ints:
                for path in ints if draw(st.booleans()) else [draw(st.sampled_from(ints))]:
                    put(doc, path, draw(huge))
        elif change == "unicode":
            graph = doc.get("graph")
            comps = graph.get("components") if isinstance(graph, dict) else None
            if isinstance(comps, list):
                old = [c.get("id") for c in comps if isinstance(c, dict)]
                new = draw(st.lists(ids, min_size=len(old), max_size=len(old), unique=True))
                rename_ids(doc, {a: b for a, b in zip(old, new)
                                 if isinstance(a, (str, int)) and not isinstance(a, bool)})
        elif change == "orbits" and isinstance(doc.get("orbits"), list) and doc["orbits"]:
            # merge runs of orbits, keeping some one-member orbits between them
            orbits, merged = doc["orbits"], []
            i = 0
            while i < len(orbits):
                size = draw(st.integers(1, 4))
                group = orbits[i:i + size]
                if all(isinstance(o, dict) and isinstance(o.get("components"), list)
                       and isinstance(o.get("removed"), list) for o in group):
                    group = [{key: [x for o in group for x in o[key]]
                              for key in ("components", "removed")}]
                merged += group
                i += size
            doc["orbits"] = merged
        elif change == "removed" and isinstance(doc.get("orbits"), list) and doc["orbits"]:
            orbit = draw(st.sampled_from(doc["orbits"]))
            if isinstance(orbit, dict) and isinstance(orbit.get("removed"), list) \
                    and orbit["removed"]:
                k = draw(st.integers(0, len(orbit["removed"]) - 1))
                orbit["removed"][k] = draw(st.sampled_from((True, 1.0, "no-such-component")))
    if draw(st.booleans()):  # some object states a key twice
        objects = [()] + [p for p in field_paths(doc) if isinstance(at(doc, p), dict)]
        path = draw(st.sampled_from(objects))
        keys = list(at(doc, path))
        if keys:
            key = draw(st.sampled_from(keys))
            return dumps_with_duplicate(doc, path, key, draw(st.sampled_from((None, "x", 7, []))))
    return json.dumps(doc)


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(documents())
def test_every_command_fails_cleanly_on_changed_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.json")
        Path(path).write_text(text, encoding="utf-8")
        runs = [["validate", path], ["explain", path]]
        runs += [[command, path, "--degree", str(d)] for command in ("compute", "check")
                 for d in range(4)]
        for argv in runs:
            code, err = run(argv)
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code == 1:
                for line in err.splitlines():
                    assert (_ERROR.match(line) or _UNPATHED.match(line)
                            or line in _VALIDATION), (argv, line)
