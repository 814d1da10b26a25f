"""One fixpoint per slice range against one fixpoint per slice.

`verify_parametric` cuts the initial set to a range of lengths and runs a
check once.  The reachability engine and the loop engine give a verdict per
length there, and each must be the one its slice's own run gives, the
per-slice route `check(slice_system(m, n))`: status, witness and every
diagnostic, at budgets large and small.
"""

import random
from collections import Counter

import pytest

from rmckit import fixtures as fx
from rmckit import omega
from rmckit.automata import intersect
from rmckit.gsp import (
    build_augmented_finite,
    check_emptiness_loop,
    cop_alphabet,
    negated_gsp,
    state_property,
)
from rmckit.system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    check_reachability_property,
    slice_system,
    verify_parametric,
)

import oracles


def reach_check(bad, budget):
    return lambda m, lengths: check_reachability_property(m, bad, budget, lengths)


def gsp_check(neg, cops, budget):
    def check(m, lengths):
        return check_emptiness_loop(build_augmented_finite(m, neg, cops).msys, budget, lengths)

    return check


def range_and_slices(m, check, lo, hi):
    """The verdicts of one range run, and those of each slice's own run."""
    ranged, _ = verify_parametric(m, check, lo, hi)
    return ranged, {n: check(slice_system(m, n), None) for n in range(lo, hi + 1)}


def random_case(seed):
    """A random unsliced system, a bad set (two random DFAs intersected, so
    that it often misses every reachable word), cops, a negated GSP
    property whose minimal form is rarely trivial, and a small budget."""
    rng = random.Random(seed)
    m = oracles.random_unsliced_system(rng)
    bad = intersect(*(oracles.random_dfa_complete(rng, m.alphabet) for _ in range(2)))
    k = rng.randint(1, 2)
    cops = [
        state_property(f"c{i}", oracles.random_dfa_complete(rng, m.alphabet)) for i in range(k)
    ]
    neg_aut = oracles.random_layered_weak_dba(rng, cop_alphabet(k), max_blocks=3, max_block=2)
    return m, bad, cops, negated_gsp(neg_aut, k), rng.randint(1, 3)


@pytest.mark.parametrize("engine", ["reach", "gsp"])
def test_range_runs_match_slice_runs_on_random_systems(engine):
    shares = {64: Counter(), "small": Counter()}
    for seed in range(24):
        m, bad, cops, neg, small = random_case(seed)
        for budget, tally in ((64, shares[64]), (small, shares["small"])):
            check = reach_check(bad, budget) if engine == "reach" else gsp_check(neg, cops, budget)
            ranged, sliced = range_and_slices(m, check, 2, 6)
            assert ranged == sliced, (seed, budget)
            tally.update(v.status for v in sliced.values())
    full = shares[64]
    total = sum(full.values())
    assert full[HOLDS] >= 0.3 * total and full[VIOLATED] >= 0.3 * total, full
    assert shares["small"][UNKNOWN] > 0, shares["small"]


BUNDLES = [
    ("ring", fx.token_ring, 24),
    ("idle", fx.token_ring_idle_mutant, 24),
    ("dup", fx.token_ring_dup_mutant, 3),
]


@pytest.mark.parametrize("budget", [64, 4])
@pytest.mark.parametrize("name,make,gsp_hi", BUNDLES)
def test_range_runs_match_slice_runs_on_the_bundles(name, make, gsp_hi, budget):
    m = make()
    ranged, sliced = range_and_slices(m, reach_check(fx.bad_two_tokens(), budget), 2, 24)
    assert ranged == sliced
    cop = state_property("one_token", fx.cop_one_token())
    neg = negated_gsp(fx.gsp_always_one_token_negated(), 1)
    ranged, sliced = range_and_slices(m, gsp_check(neg, [cop], budget), 2, gsp_hi)
    assert ranged == sliced


def test_a_one_length_run_builds_no_change_sets(monkeypatch):
    calls = []
    walk = omega._lengths_of
    monkeypatch.setattr(omega, "_lengths_of", lambda *args: calls.append(args) or walk(*args))
    cop = state_property("one_token", fx.cop_one_token())
    neg = negated_gsp(fx.gsp_always_one_token_negated(), 1)
    for make in (fx.token_ring, fx.token_ring_dup_mutant):
        verify_parametric(make(), reach_check(fx.bad_two_tokens(), 64), 5, 5)
        verify_parametric(make(), gsp_check(neg, [cop], 64), 3, 3)
    assert calls == []
    verify_parametric(fx.token_ring(), reach_check(fx.bad_two_tokens(), 64), 4, 5)
    assert calls


@pytest.mark.parametrize("budget", [64, 4])
def test_ring_range_run_reads_each_slice_counters(budget):
    # as each slice's own run reads them: slice n's reach converges at step
    # n, and no reachable word is accepting, so no nested round runs there
    cop = state_property("one_token", fx.cop_one_token())
    neg = negated_gsp(fx.gsp_always_one_token_negated(), 1)
    reach, _ = verify_parametric(fx.token_ring(), reach_check(fx.bad_two_tokens(), budget), 2, 24)
    loop, _ = verify_parametric(fx.token_ring(), gsp_check(neg, [cop], budget), 2, 24)
    for n in range(2, 25):
        if n <= budget:
            assert reach[n].status == loop[n].status == HOLDS
            assert reach[n].diagnostics == {"steps": n}
            assert loop[n].diagnostics == {"reach_steps": n, "nested_rounds": 0, "converged": True}
        else:
            assert reach[n].status == loop[n].status == UNKNOWN
            assert reach[n].diagnostics["steps"] == budget
            assert loop[n].diagnostics == {
                "reach_steps": budget,
                "nested_rounds": 1,
                "converged": False,
                "reason": "budget exhausted before the reachability fixpoint converged",
            }
