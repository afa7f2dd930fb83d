"""The reference route of quotient extraction: expand the series, take its
trivial-character part, then substitute the plan into the terms.

:func:`eqpoincare.engine.quotient_extract` applies the plan to the factors
before expanding and divides by one lcm; the tests compare it against
:func:`extract_by_substitution`, which walks the terms of a series expanded
deep enough.  pytest does not collect this file.
"""

from __future__ import annotations

from eqpoincare.engine import restrict_to_character
from eqpoincare.powerseries import DivisibilityError, PlanError, Series, SubstitutionPlan


def substitute_and_rescale(series: Series, plan: SubstitutionPlan) -> Series:
    """Drop and merge variables, dividing exponents by plan denominators.

    The output is truncated at floor(bound / max denominator): a term of
    output total degree D pulls back from kept-variable degree at most
    D * max_denominator.  A plan that drops variables backs that bound only
    for input expanded deep enough in the dropped directions too.
    Exponents of kept variables must divide exactly; anything else would
    silently corrupt the result, so it raises :class:`DivisibilityError`.
    """
    if len(plan.entries) != series.num_vars:
        raise PlanError(
            f"plan covers {len(plan.entries)} variables, series has {series.num_vars}"
        )
    out_bound = series.bound // plan.max_denominator
    t = plan.num_outputs
    zero = 0 if series.ring is None else series.ring.zero()
    out = {}
    for exps, c in series.terms.items():
        key = [0] * t
        for i, entry in enumerate(plan.entries):
            if entry is None:
                continue
            target, den = entry
            if exps[i] % den != 0:
                raise DivisibilityError(
                    f"exponent {exps[i]} of variable {i + 1} in term {exps} "
                    f"is not divisible by {den}"
                )
            key[target] += exps[i] // den
        if sum(key) > out_bound:
            continue
        key = tuple(key)
        out[key] = out.get(key, zero) + c
    return Series(t, out_bound, series.ring, out)


def extract_by_substitution(series: Series, plan: SubstitutionPlan) -> Series:
    """Poincare series of the quotient data: take the trivial-character
    part coefficientwise, then drop and rescale variables by the plan."""
    if series.ring is not None:
        series = restrict_to_character(series, (0,) * series.ring.num_generators)
    return substitute_and_rescale(series, plan)
