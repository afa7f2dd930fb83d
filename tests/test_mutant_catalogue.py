from mutants import MUTANTS, PACKAGE


def test_each_mutant_replaces_text_that_occurs_once():
    assert len(MUTANTS) >= 10
    for name, old, new in MUTANTS:
        assert old != new
        assert (PACKAGE / name).read_text().count(old) == 1, (name, old)
        assert "\n" not in old and "\n" not in new, (name, old)
