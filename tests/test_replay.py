"""Witness replay rejects tampered lassos, in finite and in omega mode.

Every `violated` verdict is guarded by `replay_lasso` and the construction
replay, so each tampering below must be refused with its reason.  The
relaxed augmentation accepts every word as initial and accepting and every
pair as a step, so its replay gets past `replay_lasso` and reaches the
checks specific to the GSP construction.
"""

import dataclasses

import pytest

from rmckit import (
    VIOLATED,
    build_augmented_finite,
    build_augmented_omega,
    check_emptiness_loop,
    negated_gsp,
    replay_gsp_witness,
    slice_system,
    state_property,
    validate,
)
from rmckit.alphabet import Alphabet
from rmckit.fixtures import (
    build_fa,
    cop_one_token,
    gsp_always_one_token_negated,
    ring_alphabet,
    token_ring_dup_mutant,
)
from rmckit.omega import UltimatelyPeriodicWord
from rmckit.system import (
    BuchiRegularSystem,
    LassoWitness,
    RegularSystem,
    replay_lasso,
)
from rmckit.transducer import OMEGA, Transducer, identity

NT = ring_alphabet()
N, T = NT.index("N"), NT.index("T")


def _neg():
    return negated_gsp(gsp_always_one_token_negated(), 1)


def _finite_case():
    """Dup mutant, slice 3: words T N N, T T N, T T N with the loop on the last."""
    cop = state_property("one_token", cop_one_token())
    sl = slice_system(token_ring_dup_mutant(), 3)
    aug = build_augmented_finite(sl, _neg(), [cop])
    verdict = check_emptiness_loop(aug.msys, 64)
    assert verdict.status == VIOLATED
    assert len(verdict.witness.words) == 3 and verdict.witness.loop_start == 2
    return aug, verdict.witness


def _omega_case():
    """Identity system on N^w with the property "the first letter is T"."""
    cop_t = state_property(
        "starts_t",
        build_fa(
            NT, 3, [0], [1],
            [(0, "T", 1), (0, "N", 2), (1, "T", 1), (1, "N", 1), (2, "T", 2), (2, "N", 2)],
            omega=True,
        ),
        OMEGA,
    )
    init = build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True)
    system = validate(RegularSystem(NT, init, identity(NT, OMEGA), OMEGA))
    aug = build_augmented_omega(system, _neg(), [cop_t])
    verdict = check_emptiness_loop(aug.msys, budget=12)
    assert verdict.status == VIOLATED
    assert len(verdict.witness.words) == 2 and verdict.witness.loop_start == 1
    return aug, verdict.witness


def _relaxed(aug):
    """The augmentation with a system whose every word is initial and accepting
    and whose every word pair is a step."""
    sigma = aug.alphabet
    pairs = Alphabet.product(sigma, sigma)
    cls = type(aug.msys.system.initial)

    def everything(alphabet):
        loops = frozenset((0, s, 0) for s in alphabet.symbols())
        return cls(alphabet, 1, frozenset({0}), frozenset({0}), loops)

    every = everything(sigma)
    m = RegularSystem(sigma, every, Transducer(everything(pairs)), aug.mode)
    return dataclasses.replace(aug, msys=BuchiRegularSystem(m, every))


def _edit(aug, sym, a=None, q=None, mask=None):
    """Augmented letter `sym` with its base letter, label state or mask replaced."""
    a0, q0, m0 = aug.alphabet.parts(sym)
    return aug.alphabet.symbol(
        (a0 if a is None else a, q0 if q is None else q, m0 if mask is None else mask)
    )


def _flip_mask(aug, sym):
    return _edit(aug, sym, mask=aug.alphabet.parts(sym)[-1] ^ 1)


def _edit_word(witness, i, fn):
    words = list(witness.words)
    words[i] = fn(words[i])
    return LassoWitness(tuple(words), witness.loop_start)


def _finite_tamper(aug, witness, kind):
    bot_q, bot_m = aug.neg.automaton.n_states, 1 << aug.neg.n_props

    def last(fn):
        return lambda w: w[:-1] + (fn(w[-1]),)

    if kind == "loop_start":
        return LassoWitness(witness.words, len(witness.words))
    if kind == "non_successor":  # T T N becomes N N N: the token vanishes
        return _edit_word(witness, 1, lambda w: tuple(_edit(aug, s, a=N) for s in w))
    if kind == "flipped_mask":
        return _edit_word(witness, 1, last(lambda s: _flip_mask(aug, s)))
    assert kind == "missing_label"
    return _edit_word(witness, 1, last(lambda s: _edit(aug, s, q=bot_q, mask=bot_m)))


def _omega_tamper(aug, witness, kind):
    def each(w, fn):
        return UltimatelyPeriodicWord(tuple(map(fn, w.prefix)), tuple(map(fn, w.period)))

    if kind == "loop_start":
        return LassoWitness(witness.words, len(witness.words))
    if kind == "non_successor":  # N^w becomes T^w under the identity relation
        return _edit_word(witness, 1, lambda w: each(w, lambda s: _edit(aug, s, a=T)))
    if kind == "flipped_mask":
        return _edit_word(witness, 1, lambda w: each(w, lambda s: _flip_mask(aug, s)))
    assert kind == "non_uniform_label"  # the period's mask differs from the prefix's
    return _edit_word(
        witness,
        1,
        lambda w: UltimatelyPeriodicWord(w.prefix, tuple(_flip_mask(aug, s) for s in w.period)),
    )


LOOP_START = "missing or out-of-range loop start"

# (mode, tampering, reason from the augmented system, reason from the relaxed one)
CASES = [
    ("finite", "loop_start", LOOP_START, LOOP_START),
    ("finite", "non_successor", "step 0 is not in the transition relation",
     "projected step 0 not in the original relation"),
    ("finite", "flipped_mask", "step 1 is not in the transition relation",
     "word 1 claims a cop set differing from the automata verdicts"),
    ("finite", "missing_label", "step 0 is not in the transition relation",
     "word 1 lacks the final-position label"),
    ("omega", "loop_start", LOOP_START, LOOP_START),
    ("omega", "non_successor", "step 0 is not in the transition relation",
     "projected step 0 not in the original relation"),
    ("omega", "flipped_mask", "step 1 is not in the transition relation",
     "word 1 claims a cop set differing from the automata verdicts"),
    ("omega", "non_uniform_label", "step 1 is not in the transition relation",
     "word 1 is not uniformly labelled"),
]


@pytest.fixture(scope="module")
def cases():
    return {"finite": _finite_case(), "omega": _omega_case()}


@pytest.mark.parametrize("mode, kind, reason, relaxed_reason", CASES)
def test_replay_rejects_tampered_witness(cases, mode, kind, reason, relaxed_reason):
    aug, witness = cases[mode]
    assert replay_lasso(aug.msys, witness) == (True, "ok")
    assert replay_gsp_witness(aug, witness) == (True, "ok")
    assert replay_gsp_witness(_relaxed(aug), witness) == (True, "ok")
    tamper = _finite_tamper if mode == "finite" else _omega_tamper
    bad = tamper(aug, witness, kind)
    assert replay_lasso(aug.msys, bad) == (False, reason)
    assert replay_gsp_witness(aug, bad) == (False, reason)
    assert replay_gsp_witness(_relaxed(aug), bad) == (False, relaxed_reason)


@pytest.mark.parametrize(
    "kind, relaxed_reason",
    [
        ("label_before_final", "word 1 carries labels before the final position"),
        ("initial_label", "label chain does not start in an initial negated-property state"),
        ("broken_chain", "label chain breaks the negated-property run at step 0"),
    ],
)
def test_finite_replay_checks_label_placement_and_run(cases, kind, relaxed_reason):
    aug, witness = cases["finite"]
    words = list(witness.words)
    if kind == "label_before_final":
        words[1] = (_edit(aug, words[1][0], q=0, mask=0),) + words[1][1:]
    elif kind == "initial_label":  # T N N labelled with the non-initial state 1
        words[0] = words[0][:-1] + (_edit(aug, words[0][-1], q=1),)
    else:  # the run from state 0 on mask 1 stays in state 0
        words[1] = words[1][:-1] + (_edit(aug, words[1][-1], q=1),)
    bad = LassoWitness(tuple(words), witness.loop_start)
    assert replay_gsp_witness(_relaxed(aug), bad) == (False, relaxed_reason)
