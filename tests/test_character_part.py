"""One character's part as N / D (``engine.character_part``) against the
part of the whole expansion, in the library and through the command line,
and the command line's one-line answer to inputs too large to run."""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqpoincare import cli, engine
from eqpoincare.charring import CharacterRing
from eqpoincare.engine import character_part, restrict_to_character
from eqpoincare.jobs import load_job
from eqpoincare.powerseries import expand

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def whole_part(records, num_vars, bound, ring, alpha):
    """The part at ``alpha`` of the whole equivariant expansion."""
    return restrict_to_character(expand(records, num_vars, bound, ring), alpha)


@st.composite
def factor_lists(draw):
    """Arguments (records, num_vars, bound, ring) of :func:`expand`, with
    unreduced and missing characters, zero and negative coefficients, and
    sometimes the first record's inverse appended, so that terms cancel."""
    ring = CharacterRing(draw(st.sampled_from([(), (2,), (3,), (2, 2), (2, 4), (6,)])))
    num_vars = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 14))
    exponent = st.tuples(*[st.integers(0, 4)] * num_vars).filter(any)
    character = st.one_of(st.none(), st.tuples(*[st.integers(-7, 7) for _ in ring.orders]))
    record = st.tuples(exponent, character, st.integers(-3, 3),
                       st.sampled_from([0, 1, -1, 2, -2]))
    records = draw(st.lists(record, max_size=5))
    if records and draw(st.booleans()):
        m, l, power, c = records[0]
        records.append((m, l, -power, c))
    return records, num_vars, bound, ring


@settings(max_examples=300, deadline=None)
@given(factor_lists())
def test_character_part_is_the_whole_expansions_part_at_every_character(args):
    records, num_vars, bound, ring = args
    for alpha in ring.characters():
        part = character_part(records, num_vars, bound, ring, alpha)
        assert part.ring is None and part.bound == bound and part.num_vars == num_vars
        assert part._table == whole_part(records, num_vars, bound, ring, alpha)._table
        assert 0 not in part._table.values()
        if part._degrees is not None:
            listed = [e for d, es in part._degrees.items() for e in es if sum(e) == d]
            assert sorted(listed) == sorted(part._table)


def test_character_part_checks_the_records_as_expand_does():
    ring = CharacterRing((3,))
    with pytest.raises(ValueError, match="not a power series"):
        character_part([((0, 0), (1,), -1)], 2, 5, ring, (0,))
    with pytest.raises(ValueError, match="wrong arity"):
        character_part([((1,), (1,), -1)], 2, 5, ring, (0,))


def test_a_part_whose_copies_meet_adds_them():
    # (1 - u t)^(-2) with u^2 = 1: N = (1 + u t)^2 puts 1 and t^2 in the
    # trivial part, and D = (1 - t^2)^(-2) holds t^2 too
    ring = CharacterRing((2,))
    records = [((1,), (1,), -2)]
    for alpha in ring.characters():
        part = character_part(records, 1, 9, ring, alpha)
        assert part._table == whole_part(records, 1, 9, ring, alpha)._table
    assert character_part(records, 1, 9, ring, (0,))._table == {
        (k,): k + 1 for k in range(0, 10, 2)}


def test_a_huge_power_costs_no_more_than_the_degrees_it_reaches():
    # N's sum to the power 10^6 is one polynomial of the degrees under the
    # bound, not 10^6 products
    ring = CharacterRing((3,))
    records = [((1, 2), (1,), -10**6), ((2, 1), (2,), 10**6, -1), ((1, 1), None, -10**6)]
    start = time.perf_counter()
    for alpha in ring.characters():
        part = character_part(records, 2, 24, ring, alpha)
        assert part._table == whole_part(records, 2, 24, ring, alpha)._table
    assert time.perf_counter() - start < 5


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def part_argvs():
    """``extract`` at degrees 0-40 and ``compute --character`` at every
    character, in both modes, at degrees 0, 7 and 40, on every shipped
    job, in both formats."""
    for path in sorted(JOBS.glob("*.json")):
        ring = load_job(path).model.ring
        has_extract = json.loads(path.read_text()).get("extract") is not None
        for fmt in ("text", "machine"):
            for degree in range(41) if has_extract else ():
                yield ("extract", path, "--degree", degree, "--format", fmt)
            for mode in ("divisorial", "curve"):
                for alpha in ring.characters():
                    for degree in (0, 7, 40):
                        yield ("compute", path, "--mode", mode, "--degree", degree,
                               "--character", ",".join(map(str, alpha)), "--format", fmt)


def test_the_command_line_prints_the_bytes_of_the_whole_expansions_part(monkeypatch):
    argvs = list(part_argvs())
    got = [cli_run(argv) for argv in argvs]
    monkeypatch.setattr(engine, "character_part", whole_part)
    assert got == [cli_run(argv) for argv in argvs]
    # jobs without a curve section refuse the curve mode; everything else prints
    assert {code for code, _, _ in got} == {0, 1}
    assert sum(code == 0 for code, _, _ in got) > len(got) // 2


HUGE = 99999999999999999999  # past any index size of the interpreter


@pytest.mark.parametrize("argv", [
    ("compute", "example1"),
    ("compute", "example1", "--character", "1"),
    ("compute", "example1", "--mode", "curve", "--character", "2"),
    ("extract", "example1"),
    ("extract", "example3", "--format", "machine"),
    ("check", "example3"),
    ("check", "example2_oracle"),
])
def test_a_degree_too_large_to_allocate_is_a_one_line_error(argv):
    command, name, *rest = argv
    code, _, err = cli_run([command, JOBS / f"{name}.json", "--degree", HUGE, *rest])
    assert (code, err) == (1, f"error: --degree {HUGE}: out of memory\n")


def test_a_job_nested_past_the_decoder_is_a_one_line_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = cli_run(["validate", path])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: job file {path} is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err
