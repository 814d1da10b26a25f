"""The budget edge of every fixpoint: reachability, the loop engine's
nested rounds and pre+, the closure and the simulation refinement all run
one budgeted driver, `omega._fixpoint`.

The rows below pin each engine's step numbering, iterate sizes and
reasons at budgets 1 to 3, so an off-by-one in the driver changes a row.
"""

import pytest

from rmckit import fixtures as fx
from rmckit.errors import InputError
from rmckit.gsp import build_augmented_finite, check_emptiness_loop, negated_gsp, state_property
from rmckit.losp import build_augmented_losp, check_losp, local_execution_property, losp_property
from rmckit.simulation import sim_fixpoint
from rmckit.system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    check_reachability_property,
    reachable,
    slice_system,
)
from rmckit.transducer import closure

MAKERS = {
    "ring": fx.token_ring,
    "idle": fx.token_ring_idle_mutant,
    "dup": fx.token_ring_dup_mutant,
}

REACH = "budget exhausted before the reachability fixpoint converged"
SIM = "budget {} exhausted before the simulation fixpoint converged"

# (bundle, slice or None, budget): reachable (converged, steps);
# check_reachability_property (status, steps, reason); check_emptiness_loop
# (status, reach_steps, nested_rounds, reason); closure star and plus
# (converged, steps_used, states); sim_fixpoint (exact, iteration_index, reason)
EDGE = {
    ("ring", 3, 1): (
        (False, 1), (UNKNOWN, 1, REACH), (UNKNOWN, 1, 1, REACH),
        (False, 1, 9), (False, 1, 8), (False, 1, SIM.format(1)),
    ),
    ("ring", 3, 2): (
        (False, 2), (UNKNOWN, 2, REACH), (UNKNOWN, 2, 1, REACH),
        (False, 2, 9), (False, 2, 10), (True, 2, None),
    ),
    ("ring", 3, 3): (
        (True, 3), (HOLDS, 3, None), (HOLDS, 3, 0, None),
        (True, 3, 9), (True, 3, 10), (True, 2, None),
    ),
    ("ring", None, 1): (
        (False, 1), (UNKNOWN, 1, REACH), (UNKNOWN, 1, 1, REACH),
        (False, 1, 11), (False, 1, 11), (False, 1, SIM.format(1)),
    ),
    ("ring", None, 2): (
        (False, 2), (UNKNOWN, 2, REACH), (UNKNOWN, 2, 1, REACH),
        (False, 2, 15), (False, 2, 15), (True, 2, None),
    ),
    ("ring", None, 3): (
        (False, 3), (UNKNOWN, 3, REACH), (UNKNOWN, 3, 1, REACH),
        (False, 3, 19), (False, 3, 19), (True, 2, None),
    ),
    ("idle", 3, 1): (
        (False, 1), (UNKNOWN, 1, REACH), (UNKNOWN, 1, 1, REACH),
        (False, 1, 9), (False, 1, 10), (False, 1, SIM.format(1)),
    ),
    ("idle", 3, 2): (
        (False, 2), (UNKNOWN, 2, REACH), (UNKNOWN, 2, 1, REACH),
        (True, 2, 9), (True, 2, 10), (True, 2, None),
    ),
    ("idle", 3, 3): (
        (True, 3), (HOLDS, 3, None), (HOLDS, 3, 0, None),
        (True, 2, 9), (True, 2, 10), (True, 2, None),
    ),
    ("idle", None, 1): (
        (False, 1), (UNKNOWN, 1, REACH), (UNKNOWN, 1, 1, REACH),
        (False, 1, 11), (False, 1, 10), (False, 1, SIM.format(1)),
    ),
    ("idle", None, 2): (
        (False, 2), (UNKNOWN, 2, REACH), (UNKNOWN, 2, 1, REACH),
        (False, 2, 15), (False, 2, 14), (True, 2, None),
    ),
    ("idle", None, 3): (
        (False, 3), (UNKNOWN, 3, REACH), (UNKNOWN, 3, 1, REACH),
        (False, 3, 19), (False, 3, 18), (True, 2, None),
    ),
    ("dup", 3, 1): (
        (False, 1), (VIOLATED, 1, None), (UNKNOWN, 1, 1, REACH),
        (False, 1, 10), (False, 1, 10), (False, 1, SIM.format(1)),
    ),
    ("dup", 3, 2): (
        (False, 2), (VIOLATED, 1, None), (VIOLATED, 2, 2, None),
        (False, 2, 10), (False, 2, 10), (False, 2, SIM.format(2)),
    ),
    ("dup", 3, 3): (
        (True, 3), (VIOLATED, 1, None), (VIOLATED, 3, 2, None),
        (True, 3, 10), (True, 3, 10), (True, 3, None),
    ),
    ("dup", None, 1): (
        (False, 1), (VIOLATED, 1, None), (UNKNOWN, 1, 1, REACH),
        (False, 1, 13), (False, 1, 13), (False, 1, SIM.format(1)),
    ),
    ("dup", None, 2): (
        (False, 2), (VIOLATED, 1, None), (VIOLATED, 2, 2, None),
        (False, 2, 17), (False, 2, 17), (False, 2, SIM.format(2)),
    ),
    ("dup", None, 3): (
        (False, 3), (VIOLATED, 1, None), (VIOLATED, 3, 2, None),
        (False, 3, 21), (False, 3, 21), (False, 3, SIM.format(3)),
    ),
}


def gsp_parts(m):
    cop = state_property("one_token", fx.cop_one_token())
    neg = negated_gsp(fx.gsp_always_one_token_negated(), 1)
    return build_augmented_finite(m, neg, [cop]), cop


@pytest.mark.parametrize("name,n,budget", list(EDGE))
def test_step_counts_at_the_budget_edge(name, n, budget):
    m = MAKERS[name]()
    if n is not None:
        m = slice_system(m, n)
    aug, cop = gsp_parts(m)
    r = reachable(m, budget)
    v = check_reachability_property(m, fx.bad_two_tokens(), budget)
    e = check_emptiness_loop(aug.msys, budget)
    star, plus = (closure(m.relation, kind, budget) for kind in ("star", "plus"))
    s = sim_fixpoint(aug.msys, [cop], budget)
    got = (
        (r.converged, r.steps),
        (v.status, v.diagnostics["steps"], v.diagnostics.get("reason")),
        (
            e.status,
            e.diagnostics["reach_steps"],
            e.diagnostics["nested_rounds"],
            e.diagnostics.get("reason"),
        ),
        *((c.converged, c.steps_used, c.relation.inner.n_states) for c in (star, plus)),
        (s.exact, s.iteration_index, s.reason),
    )
    assert got == EDGE[name, n, budget]


def budget_zero_runs():
    m = slice_system(fx.token_ring(), 3)
    aug, cop = gsp_parts(m)
    lep = local_execution_property("liveness", fx.lep_liveness(), fx.lep_liveness_negated())
    losp = build_augmented_losp(m, losp_property(fx.losp_all_live_negated(), 1), [lep])
    bad = fx.bad_two_tokens()
    return {
        "reachable": lambda: reachable(m, 0),
        "check_reachability_property": lambda: check_reachability_property(m, bad, 0),
        "check_emptiness_loop": lambda: check_emptiness_loop(aug.msys, 0),
        "check_losp": lambda: check_losp(losp, 0),
        "closure": lambda: closure(m.relation, "star", 0),
        "sim_fixpoint": lambda: sim_fixpoint(aug.msys, [cop], 0),
    }


@pytest.mark.parametrize(
    "entry",
    [
        "reachable",
        "check_reachability_property",
        "check_emptiness_loop",
        "check_losp",
        "closure",
        "sim_fixpoint",
    ],
)
def test_budget_zero_is_an_input_error(entry):
    # the CLI refuses budgets below 1 before any of these runs
    run = budget_zero_runs()[entry]
    with pytest.raises(InputError, match="^budget must be at least 1$"):
        run()
