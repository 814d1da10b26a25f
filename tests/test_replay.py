"""Witness replay rejects tampered lassos: GSP in finite and in omega mode,
and LOSP.

Every `violated` verdict is guarded by `replay_lasso` and the construction
replay, so each tampering below must be refused with its reason.  The
relaxed augmentation accepts every word as initial and accepting and every
pair as a step, so its replay gets past `replay_lasso` and reaches the
checks specific to the GSP or LOSP construction.
"""

import dataclasses

import pytest

from rmckit import (
    VIOLATED,
    build_augmented_finite,
    build_augmented_losp,
    build_augmented_omega,
    check_emptiness_loop,
    check_losp,
    local_execution_property,
    losp_property,
    negated_gsp,
    replay_gsp_witness,
    replay_losp_witness,
    slice_system,
    state_property,
    validate,
)
from rmckit.alphabet import Alphabet
from rmckit.fixtures import (
    build_fa,
    cop_one_token,
    gsp_always_one_token_negated,
    lep_liveness,
    lep_liveness_negated,
    losp_all_live_negated,
    ring_alphabet,
    token_ring_dup_mutant,
    token_ring_idle_mutant,
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
    """Identity system on N^w with the property "the first letter is T".

    The tamperings start from a fixed lasso, (N g0 m0)^w then (N g1 m0)^w
    looping on the second word, each written with a prefix so that a period
    can differ from it.  The engine's own witness must replay as well.
    """
    cop_t = state_property(
        "starts_t",
        build_fa(
            NT, 3, [0], [1],
            [(0, "T", 1), (0, "N", 2), (1, "T", 1), (1, "N", 1), (2, "T", 2), (2, "N", 2)],
            omega=True,
        ),
    )
    init = build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True)
    system = validate(RegularSystem(init, identity(NT, OMEGA)))
    aug = build_augmented_omega(system, _neg(), [cop_t])
    verdict = check_emptiness_loop(aug.msys, budget=12)
    assert verdict.status == VIOLATED
    assert replay_gsp_witness(aug, verdict.witness) == (True, "ok")
    g0, g1 = (aug.alphabet.symbol((N, q, 0)) for q in (0, 1))
    words = (UltimatelyPeriodicWord((g0, g0), (g0,)), UltimatelyPeriodicWord((g1,), (g1,)))
    return aug, LassoWitness(words, loop_start=1)


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
    m = RegularSystem(every, Transducer(everything(pairs)))
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


def _losp_case():
    """Idle mutant, slice 2, against "every position is live": six words
    looping on the fifth, the guessed labelling (0, 1).  Position 0 runs the
    complement of liveness (run states 2, 3 and 4, its states 0, 1 and 2
    shifted), position 1 liveness itself (run states 0 and 1)."""
    lep = local_execution_property("liveness", lep_liveness(), lep_liveness_negated())
    sl = slice_system(token_ring_idle_mutant(), 2)
    aug = build_augmented_losp(sl, losp_property(losp_all_live_negated(), 1), [lep])
    verdict = check_losp(aug, budget=32)
    assert verdict.status == VIOLATED
    assert len(verdict.witness.words) == 6 and verdict.witness.loop_start == 4
    assert [aug.decode(s)[1] for s in verdict.witness.words[0]] == [(2,), (0,)]
    return aug, verdict.witness


def _losp_tamper(aug, witness, edits):
    """The witness with the letter at position j of word t given new fields,
    for every ((t, j), fields) of `edits`; the fields are named as
    `LospAugmentation.decode` orders them."""
    names = ("sigma", "runs", "lepf", "rho")
    words = [list(w) for w in witness.words]
    for (t, j), fields in edits:
        d = dict(zip(names, aug.decode(words[t][j])), **fields)
        words[t][j] = aug.alphabet.symbol((d["sigma"], *d["runs"], d["lepf"], d["rho"]))
    return LassoWitness(tuple(map(tuple, words)), witness.loop_start)


# position 0 labelled 1 in every word: the labelling (1, 1), which the
# negated property rejects, with liveness run on its column T N N N N N
# (states 0 0 1 1 1 1) and its progress mask kept consistent
ALL_LIVE_LABELLING = [
    ((0, 0), {"runs": (0,)}),
    ((1, 0), {"runs": (0,), "lepf": 1, "rho": 0}),
] + [((t, 0), {"runs": (1,), "lepf": 1, "rho": 0}) for t in range(2, 6)]

LOSP_CASES = [
    ([((1, 1), {"sigma": N})], "projected step 0 not in the original relation"),
    ([((5, 0), {"runs": (1,)})], "lep label at position 0 changes over time"),
    ([((0, 0), {"lepf": 1})], "first word must carry empty progress and noreset"),
    ([((0, 1), {"rho": 1})], "first word must carry empty progress and noreset"),
    ([((0, 0), {"runs": (3,)})], "lep 0 run does not start in an initial state at position 0"),
    ([((0, 1), {"runs": (1,)})], "lep 0 run does not start in an initial state at position 1"),
    ([((1, 0), {"runs": (3,)})], "lep 0 run breaks at position 0, step 0"),
    ([((2, 1), {"runs": (1,)})], "lep 0 run breaks at position 1, step 1"),
    ([((2, 1), {"rho": 0})], "reset rule violated at position 1, step 1"),
    ([((1, 1), {"lepf": 0})], "progress accumulation violated at position 1, step 0"),
    (ALL_LIVE_LABELLING, "guessed labelling is not in the negated losp language"),
]


@pytest.fixture(scope="module")
def losp_case():
    return _losp_case()


@pytest.mark.parametrize("edits, relaxed_reason", LOSP_CASES)
def test_losp_replay_rejects_tampered_witness(losp_case, edits, relaxed_reason):
    aug, witness = losp_case
    assert replay_losp_witness(aug, witness) == (True, "ok")
    assert replay_losp_witness(_relaxed(aug), witness) == (True, "ok")
    bad = _losp_tamper(aug, witness, edits)
    lasso = replay_lasso(aug.msys, bad)
    assert not lasso[0]
    assert replay_losp_witness(aug, bad) == lasso
    assert replay_losp_witness(_relaxed(aug), bad) == (False, relaxed_reason)
