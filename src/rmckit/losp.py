"""Local-oriented system properties of parametric systems.

A local execution property constrains one position's column of an execution
(one process's run); a local-oriented system property is a regular set of
per-position property subsets.  Verification guesses a violating labelling
on the initial words and runs, at every position, each property's automaton
or its complement, whichever the guessed bit selects: one label component
per property over the disjoint union of both state sets, the half a state
lies in being the guessed bit.  It discharges the resulting generalized Buchi
condition with the nondeterministic simultaneous-reset discipline: a
position may reset only when every required automaton has reported an
accepting visit, and the acceptance condition is the all-positions-reset
set of words.  Labels are attached to letters by `automata.relabel`: the
initial set is `gsp._labelled_initial` with the negated property read on
the masks as its shape, and each move of the system's relation gets every
label pair its input letter allows.  `LospAugmentation` extends the
augmentation record of `gsp`, and `replay_losp_witness` opens with the same
projection prologue, `gsp._projected_ring`, as `replay_gsp_witness`.
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, accepts, complete, explore, relabel, union
from .errors import (
    AlphabetCapExceeded,
    AlphabetMismatch,
    IncompleteLepAutomaton,
    InconsistentComplement,
    InputError,
    MissingComplement,
    ModeMismatch,
    NotDeterministic,
    NotWeakDeterministic,
)
from .gsp import (
    _Augmentation,
    _labelled_initial,
    _mask_alphabet,
    _projected_ring,
    check_emptiness_loop,
)
from .omega import (
    OmegaAutomaton,
    accepts_up_word,
    complement_weak_dba,
    sample_lassos,
)
from .system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    BuchiRegularSystem,
    LassoWitness,
    RegularSystem,
    Verdict,
    _conjoin,
)
from .transducer import FINITE, Transducer

MAX_AUG_ALPHABET = 65536

#: A supplied complement is checked on this many sampled lassos (seed 0).
COMPLEMENT_CHECK_LASSOS = 50

NORESET, RESET = 0, 1


def lep_alphabet(n_props: int) -> Alphabet:
    """Mask alphabet over the declared local execution properties."""
    return _mask_alphabet(n_props, "local execution properties")


@dataclass(frozen=True)
class LocalExecutionProperty:
    """Named omega-regular property of one position's run, with its complement.

    Both automata are complete; the complement is either derived (weak
    deterministic flip) or user-supplied and cross-checked on sampled lassos.
    """

    name: str
    automaton: OmegaAutomaton
    complement_automaton: OmegaAutomaton


complement_lep = complement_weak_dba


def local_execution_property(
    name: str,
    automaton: OmegaAutomaton,
    complement: OmegaAutomaton | None = None,
) -> LocalExecutionProperty:
    for aut in (automaton, complement):
        if aut is not None and not isinstance(aut, OmegaAutomaton):
            raise ModeMismatch(f"local execution property {name!r} needs Buchi automata")
    primary = complete(automaton)
    if complement is None:
        try:
            comp = complement_lep(primary)
        except NotWeakDeterministic as e:
            raise MissingComplement(
                f"property {name!r} is not weak deterministic; "
                "supply its complement automaton explicitly"
            ) from e
    else:
        if complement.alphabet != automaton.alphabet:
            raise AlphabetMismatch("complement automaton is over a different alphabet")
        comp = complete(complement)
        for w in sample_lassos(primary.alphabet, COMPLEMENT_CHECK_LASSOS):
            if accepts_up_word(primary, w) == accepts_up_word(comp, w):
                raise InconsistentComplement(
                    f"complement of {name!r} agrees with the primary on a lasso"
                )
    return LocalExecutionProperty(name, primary, comp)


@dataclass(frozen=True)
class Losp:
    """Deterministic finite-word automaton for the negated property over 2^LEP."""

    negation_automaton: FiniteAutomaton
    n_props: int


def losp_property(negation_automaton: FiniteAutomaton, n_props: int) -> Losp:
    if type(negation_automaton) is not FiniteAutomaton:
        raise ModeMismatch("negated losp must be a finite-word automaton")
    if negation_automaton.alphabet != lep_alphabet(n_props):
        raise AlphabetMismatch("negated losp must be over the 2^LEP mask alphabet")
    if not negation_automaton.is_deterministic:
        raise NotDeterministic("negated losp automaton must be deterministic")
    return Losp(negation_automaton, n_props)


# ---------------------------------------------------------------------------
# augmented system


@dataclass(frozen=True)
class LospAugmentation(_Augmentation):
    losp: Losp
    leps: tuple[LocalExecutionProperty, ...]

    def decode(self, sym: int) -> tuple[int, tuple[int, ...], int, int]:
        """(sigma, run states, lepF mask, rho); the run state of property i
        is a state of `_runs(leps)[i]`."""
        bw = len(self.original.alphabet.components)
        parts = self.alphabet.parts(sym)
        return self.original.alphabet.symbol(parts[:bw]), parts[bw:-2], parts[-2], parts[-1]


def _runs(leps: Sequence[LocalExecutionProperty]) -> list[FiniteAutomaton]:
    """Per property, the disjoint union of its automaton and its complement:
    the automaton's states first, then the complement's, shifted."""
    return [union(lep.automaton, lep.complement_automaton) for lep in leps]


def _guess(leps: Sequence[LocalExecutionProperty], qs: Sequence[int]) -> int:
    """The lep mask that run states select: bit i is set when property i's
    run is one of its automaton's, clear when it is one of its complement's."""
    return sum(1 << i for i, lep in enumerate(leps) if qs[i] < lep.automaton.n_states)


def build_augmented_losp(
    m: RegularSystem,
    lo: Losp,
    leps: Sequence[LocalExecutionProperty],
) -> LospAugmentation:
    """Reset-labelled augmentation realizing the generalized Buchi condition."""
    if m.mode != FINITE:
        raise ModeMismatch("losp verification needs a finite-mode (parametric) system")
    if lo.n_props != len(leps):
        raise AlphabetMismatch("losp arity does not match the lep list")
    k = len(leps)
    for lep in leps:
        for a, which in ((lep.automaton, "property"), (lep.complement_automaton, "complement")):
            if a.alphabet != m.alphabet:
                raise AlphabetMismatch(
                    f"{which} automaton of {lep.name!r} is over a different alphabet"
                )
            if not a.is_complete:
                raise IncompleteLepAutomaton(
                    f"{which} automaton of {lep.name!r} must be complete"
                )

    runs = _runs(leps)
    n_masks = 1 << k
    full = n_masks - 1
    comps: list[Alphabet] = [m.alphabet]
    comps += [
        Alphabet.base(
            tuple(f"l{i}_{s}" for s in range(lep.automaton.n_states))
            + tuple(f"n{i}_{s}" for s in range(lep.complement_automaton.n_states))
        )
        for i, lep in enumerate(leps)
    ]
    comps += [
        Alphabet.base(tuple(f"f{i}" for i in range(n_masks))),
        Alphabet.base(("noreset", "reset")),
    ]
    sigma_a = Alphabet.product(*comps)
    if sigma_a.size > MAX_AUG_ALPHABET:
        raise AlphabetCapExceeded(
            f"augmented alphabet would have {sigma_a.size} symbols "
            f"(cap {MAX_AUG_ALPHABET}): |Sigma|={m.alphabet.size}, "
            f"|Q_lep|={[lep.automaton.n_states for lep in leps]}, "
            f"|Q_neg|={[lep.complement_automaton.n_states for lep in leps]}, "
            f"2^k={n_masks}"
        )

    def letter(a: int, qs: Sequence[int], lepf: int, rho: int) -> int:
        sym = a
        for run, q in zip(runs, qs):
            sym = sym * run.n_states + q
        return (sym * n_masks + lepf) * 2 + rho

    pair_size = sigma_a.size
    base_size = m.alphabet.size
    radix = pair_size // base_size  # letter(a, ...) == a * radix + letter(0, ...)
    qs_space = list(itertools.product(*(range(run.n_states) for run in runs)))

    def label_pairs(a1: int) -> list[tuple[int, int]]:
        """(input, output) labels, as letters of base letter 0, of a step on
        input letter a1: every run steps on a1 within its half, and progress
        accumulates until the full mask, which may reset."""
        pairs = []
        for qs1 in qs_space:
            qs2_choices = list(itertools.product(*(
                run.adjacency[q].get(a1, ()) for run, q in zip(runs, qs1)
            )))
            gained = sum(1 << i for i, run in enumerate(runs) if qs1[i] in run.accepting)
            for lepf1 in range(n_masks):
                if lepf1 == full:
                    outcomes = [(0, RESET), (lepf1, NORESET)]
                else:
                    outcomes = [(lepf1 | gained, NORESET)]
                for rho1 in (NORESET, RESET):
                    l1 = letter(0, qs1, lepf1, rho1)
                    pairs += [
                        (l1, letter(0, qs2, lepf2, rho2))
                        for qs2 in qs2_choices
                        for lepf2, rho2 in outcomes
                    ]
        return pairs

    tables = [label_pairs(a) for a in range(base_size)]

    def labelled(pair_sym: int) -> list[int]:
        a1, a2 = divmod(pair_sym, base_size)
        o1, o2 = a1 * radix, a2 * radix
        return [(o1 + l1) * pair_size + o2 + l2 for l1, l2 in tables[a1]]

    t_aug = Transducer(relabel(m.relation.inner, Alphabet.product(sigma_a, sigma_a), labelled))

    init = _losp_initial(m.initial, lo, leps, runs, letter, sigma_a)
    acc = _losp_acceptance(sigma_a)
    return LospAugmentation(BuchiRegularSystem(RegularSystem(init, t_aug), acc), m, lo, tuple(leps))


def _losp_initial(initial, lo: Losp, leps, runs, letter, sigma_a) -> FiniteAutomaton:
    """Initial words carry, at each position, initial run states whose
    halves guess a violating labelling, an empty progress mask and noreset:
    the labelled initial set whose shape is the negated property read on
    the guessed masks."""
    starts: dict[int, list[tuple[int, ...]]] = {}
    for qs in itertools.product(*(sorted(run.initial) for run in runs)):
        starts.setdefault(_guess(leps, qs), []).append(qs)
    violating = relabel(
        lo.negation_automaton,
        sigma_a,
        lambda mask: [
            letter(a, qs, 0, NORESET)
            for a in range(initial.alphabet.size)
            for qs in starts.get(mask, ())
        ],
    )
    return _labelled_initial(initial, sigma_a, violating)


def _losp_acceptance(sigma_a: Alphabet) -> FiniteAutomaton:
    """Words whose every position carries the reset flag.  The flag is the
    last letter component and has two values, so the reset letters are the
    odd ones."""
    resets = range(RESET, sigma_a.size, 2)
    return explore(
        FiniteAutomaton, sigma_a, [0], lambda q: ((s, 0) for s in resets), lambda q: True
    )


def check_losp(aug: LospAugmentation, budget: int = 64) -> Verdict:
    return check_emptiness_loop(aug.msys, budget)


# ---------------------------------------------------------------------------
# witness replay


def replay_losp_witness(aug: LospAugmentation, witness: LassoWitness) -> tuple[bool, str]:
    """Fidelity replay: projection is an execution of the original system,
    labels are position-stable, the per-position runs start initial and are
    genuine, and the reset discipline (progress accumulation, simultaneous
    reset) is respected."""
    ring, _sigma, fault = _projected_ring(aug, witness)
    if fault is not None:
        return False, fault
    decoded = [[aug.decode(sym) for sym in w] for w in ring]
    runs = _runs(aug.leps)
    full = (1 << len(runs)) - 1
    for j in range(len(ring[0])):
        if len({_guess(aug.leps, dw[j][1]) for dw in decoded}) != 1:
            return False, f"lep label at position {j} changes over time"
    first = decoded[0]
    if any(lepf != 0 or rho != NORESET for _a, _qs, lepf, rho in first):
        return False, "first word must carry empty progress and noreset"
    for j, (_a, qs, _lepf, _rho) in enumerate(first):
        for i, run in enumerate(runs):
            if qs[i] not in run.initial:
                return False, f"lep {i} run does not start in an initial state at position {j}"
    for t in range(len(ring) - 1):
        for j, (a1, qs1, lepf1, _rho1) in enumerate(decoded[t]):
            _, qs2, lepf2, rho2 = decoded[t + 1][j]
            for i, run in enumerate(runs):
                if qs2[i] not in run.adjacency.get(qs1[i], {}).get(a1, ()):
                    return False, f"lep {i} run breaks at position {j}, step {t}"
            if lepf1 == full:
                if not ((lepf2 == 0 and rho2 == RESET) or (lepf2 == lepf1 and rho2 == NORESET)):
                    return False, f"reset rule violated at position {j}, step {t}"
            else:
                gained = sum(1 << i for i, run in enumerate(runs) if qs1[i] in run.accepting)
                if lepf2 != (lepf1 | gained) or rho2 != NORESET:
                    return False, f"progress accumulation violated at position {j}, step {t}"
    # the guessed labelling must be a violating sequence
    if not accepts(aug.losp.negation_automaton, tuple(_guess(aug.leps, d[1]) for d in first)):
        return False, "guessed labelling is not in the negated losp language"
    return True, "ok"


# ---------------------------------------------------------------------------
# flag extension and Boolean combinations


def extend_with_flags(m: RegularSystem, flags: Sequence[str]) -> RegularSystem:
    """Free Boolean per-process variables: alphabet goes to Sigma x {0,1}^k.

    Every transition of the initial automaton and the relation is duplicated
    over all flag valuations, so the flags are unconstrained.
    """
    if m.mode != FINITE:
        raise ModeMismatch("flag extension applies to finite-mode systems")
    if not flags:
        return m
    for f in flags:
        if not f or not all(c.isalnum() or c == "_" for c in f):
            raise InputError(f"bad flag name {f!r}")
    flag_comps = [Alphabet.base((f"{f}0", f"{f}1")) for f in flags]
    new_base = Alphabet.product(m.alphabet, *flag_comps)
    if new_base.size > MAX_AUG_ALPHABET:
        raise AlphabetCapExceeded("flag extension exceeds the alphabet cap")
    n_vals = 1 << len(flags)
    base_size, new_size = m.alphabet.size, new_base.size
    new_init = relabel(m.initial, new_base, lambda a: range(a * n_vals, (a + 1) * n_vals))

    def lifted(sym: int) -> list[int]:
        a1, a2 = divmod(sym, base_size)
        return [
            (a1 * n_vals + v1) * new_size + a2 * n_vals + v2
            for v1 in range(n_vals) for v2 in range(n_vals)
        ]

    new_rel = Transducer(relabel(m.relation.inner, Alphabet.product(new_base, new_base), lifted))
    return RegularSystem(new_init, new_rel)


def combine_verdicts(expr: str, verdicts: dict[str, Verdict]) -> Verdict:
    """Three-valued evaluation of and/or combinations of named checks.

    `&` binds tighter than `|`, parentheses group, and a literal is a run of
    letters, digits and `_`. A violated result carries the witness of a
    literal that decides it: a violated operand of a violated `&`, or a side
    of a violated `|`. Negation is intentionally absent: a system may
    satisfy neither a property nor its negation, so negated literals must be
    re-run as negated properties, not derived by flipping verdicts.
    """
    bad = re.search(r"[^\w\s&|()]", expr)
    if bad and bad.group() == "!":
        raise InputError(
            "negation is not supported in combinations; verify the negated property instead"
        )
    if bad:
        raise InputError(f"bad character {bad.group()!r} in combination")
    # literals reach Python's parser as the names _0, _1, ..., so `2a` and
    # `if` stay literals
    literals, ids = re.findall(r"\w+", expr), itertools.count()
    source = " ".join(re.sub(r"\w+", lambda _: f"_{next(ids)}", expr).split())

    def value(node) -> tuple[str, str | None]:
        """(status, the literal of its first violated operand, if violated)."""
        if isinstance(node, ast.Name):
            literal = literals[int(node.id[1:])]
            if literal not in verdicts:
                raise InputError(f"unresolved literal {literal!r} in combination")
            return verdicts[literal].status, literal
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr))):
            raise InputError("a combination may only join literals with & and |")
        x, y = value(node.left), value(node.right)
        if isinstance(node.op, ast.BitAnd):
            status = _conjoin((x[0], y[0]))
        else:  # `|` is the dual of `&`: swap holds and violated around it
            status = _DUAL[_conjoin((_DUAL[x[0]], _DUAL[y[0]]))]
        if status != VIOLATED:
            return status, None
        return status, (x if x[0] == VIOLATED else y)[1]

    try:
        status, literal = value(ast.parse(source, mode="eval").body)
    except SyntaxError as e:
        raise InputError(f"malformed combination: {e.msg}")
    except RecursionError:
        raise InputError("combination nests too deeply to evaluate")
    if status == VIOLATED:
        witness = verdicts[literal].witness
        if witness is None:
            return Verdict(VIOLATED, None, {})
        return Verdict(VIOLATED, witness, {"literal": literal})
    if status == HOLDS:
        return Verdict.holds()
    return Verdict.unknown("combination not decided by component verdicts")


_DUAL = {HOLDS: VIOLATED, VIOLATED: HOLDS, UNKNOWN: UNKNOWN}
