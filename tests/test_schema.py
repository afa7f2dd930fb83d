"""The job schema table of ``eqpoincare.jobs``: every key a shipped job
uses is listed, every listed key is used by some shipped job, and a key
the table does not list is an error wherever it appears."""

import copy
import json
from pathlib import Path

import pytest

from eqpoincare import cli
from eqpoincare.jobs import _SCHEMA, JobError, parse_job

JOBS = Path(__file__).resolve().parent.parent / "jobs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(JOBS.glob("*.json"))}


def objects(node, kind="job", path=()):
    """(kind, path) of ``node`` and of every object below it that the
    table's item column reaches, depth first."""
    yield kind, path
    for key, _, item, _, _ in _SCHEMA[kind]:
        value = node.get(key)
        if type(item) is not str or value is None:
            continue
        if isinstance(value, dict):
            yield from objects(value, item, path + (key,))
        else:
            for i, x in enumerate(value):
                yield from objects(x, item, path + (key, i))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def where(path) -> str:
    """The loader's name for the object at ``path``."""
    shown = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return shown[1:] or "job"


OBJECTS = {}  # kind -> (job, path) of each object of that kind in the shipped jobs
for _name, _doc in SHIPPED.items():
    for _kind, _path in objects(_doc):
        OBJECTS.setdefault(_kind, []).append((_name, _path))


def test_every_key_of_a_shipped_job_is_listed_and_every_listed_key_is_used():
    used = set()
    for name, doc in SHIPPED.items():
        for kind, path in objects(doc):
            listed = {field[0] for field in _SCHEMA[kind]}
            node = value_at(doc, path)
            assert node.keys() <= listed, (name, where(path), node.keys() - listed)
            used.update((kind, key) for key in node)
    listed = {(kind, field[0]) for kind, fields in _SCHEMA.items() for field in fields}
    assert listed - used == set()
    assert sorted(OBJECTS) == sorted(_SCHEMA)


@pytest.mark.parametrize("kind", sorted(_SCHEMA))
def test_an_unlisted_key_is_rejected_in_every_kind_of_object(kind):
    """In each object of the kind, so that the records built without a walk
    (components, strata, orbits, expected factors) are covered too."""
    for name, path in OBJECTS[kind]:
        doc = copy.deepcopy(SHIPPED[name])
        value_at(doc, path)["extra"] = 1
        with pytest.raises(JobError) as err:
            parse_job(doc)
        assert str(err.value) == f"{where(path)}.extra: unknown field", name


@pytest.mark.parametrize("argv", [["validate"], ["check", "--degree", "8"]])
@pytest.mark.parametrize("key, typo", [("expected", "expectd"), ("oracle", "oracles"),
                                       ("orbits", "orbit")])
def test_a_misspelled_section_fails_the_command(tmp_path, capsys, argv, key, typo):
    doc = copy.deepcopy(SHIPPED["example1"])
    doc[typo] = doc.pop(key)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: job.{typo}: unknown field\n"
