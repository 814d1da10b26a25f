"""Local-oriented system properties of parametric systems.

A local execution property constrains one position's column of an execution
(one process's run); a local-oriented system property is a regular set of
per-position property subsets.  Verification guesses a violating labelling
on the initial words, runs every property automaton and its complement in
parallel at every position, and discharges the resulting generalized Buchi
condition with the nondeterministic simultaneous-reset discipline: a
position may reset only when every required automaton has reported an
accepting visit, and the acceptance condition is the all-positions-reset
set of words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, accepts, complete, explore
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
from .gsp import check_emptiness_loop
from .omega import (
    OmegaAutomaton,
    UltimatelyPeriodicWord,
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
    replay_lasso,
)
from .transducer import FINITE, Transducer, accepts_pair

MAX_AUG_ALPHABET = 65536

NORESET, RESET = 0, 1


def lep_alphabet(n_props: int) -> Alphabet:
    """Mask alphabet over the declared property list (bit i = property i)."""
    if n_props > 8:
        raise AlphabetCapExceeded("at most 8 local execution properties supported")
    return Alphabet.base(tuple(f"m{i}" for i in range(1 << n_props)))


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
    check_lassos: int = 50,
    seed: int = 0,
) -> LocalExecutionProperty:
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
        for w in sample_lassos(primary.alphabet, check_lassos, seed=seed):
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


@dataclass(frozen=True)
class LocalProjection:
    """One position's column of an execution: the run of a single process."""

    position: int
    word: UltimatelyPeriodicWord


def local_projection(witness: LassoWitness, j: int) -> LocalProjection:
    """Column j of a lasso witness, as an ultimately periodic word.

    Words must share one length (structure preservation guarantees this for
    system witnesses); the projection of augmented witnesses should be taken
    after mapping the words through the augmentation's sigma_word.
    """
    words = witness.words
    if witness.loop_start is None:
        raise InputError("local projections need a lasso, not a path witness")
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise InputError("witness words do not share a common length")
    (n,) = lengths
    if not (0 <= j < n):
        raise InputError(f"position {j} out of range for words of length {n}")
    prefix = tuple(w[j] for w in words[: witness.loop_start])
    period = tuple(w[j] for w in words[witness.loop_start:])
    return LocalProjection(j, UltimatelyPeriodicWord(prefix, period))


def losp_property(negation_automaton: FiniteAutomaton, n_props: int) -> Losp:
    if negation_automaton.alphabet != lep_alphabet(n_props):
        raise AlphabetMismatch("negated losp must be over the 2^LEP mask alphabet")
    if not negation_automaton.is_deterministic:
        raise NotDeterministic("negated losp automaton must be deterministic")
    return Losp(negation_automaton, n_props)


# ---------------------------------------------------------------------------
# augmented system


@dataclass(frozen=True)
class LospAugmentation:
    msys: BuchiRegularSystem
    original: RegularSystem
    losp: Losp
    leps: tuple[LocalExecutionProperty, ...]

    @property
    def alphabet(self) -> Alphabet:
        return self.msys.system.alphabet

    def decode(self, sym: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int, int, int]:
        """(sigma, lep states, complement states, lep mask, lepF mask, rho)."""
        k = len(self.leps)
        bw = len(self.original.alphabet.components)
        parts = self.alphabet.parts(sym)
        sigma = self.original.alphabet.symbol(parts[:bw])
        qs = parts[bw : bw + k]
        qn = parts[bw + k : bw + 2 * k]
        return sigma, qs, qn, parts[-3], parts[-2], parts[-1]

    def sigma_word(self, word: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.decode(s)[0] for s in word)


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

    n_masks = 1 << k
    full = n_masks - 1
    comps: list[Alphabet] = [m.alphabet]
    comps += [
        Alphabet.base(tuple(f"l{i}_{s}" for s in range(lep.automaton.n_states)))
        for i, lep in enumerate(leps)
    ]
    comps += [
        Alphabet.base(tuple(f"n{i}_{s}" for s in range(lep.complement_automaton.n_states)))
        for i, lep in enumerate(leps)
    ]
    comps += [
        Alphabet.base(tuple(f"m{i}" for i in range(n_masks))),
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

    def letter(a: int, qs: Sequence[int], qn: Sequence[int], lep: int, lepf: int, rho: int) -> int:
        sym = a
        for i in range(k):
            sym = sym * leps[i].automaton.n_states + qs[i]
        for i in range(k):
            sym = sym * leps[i].complement_automaton.n_states + qn[i]
        return ((sym * n_masks + lep) * n_masks + lepf) * 2 + rho

    pair_size = sigma_a.size
    base_size = m.alphabet.size
    rel = m.relation.inner
    qs_space = list(itertools.product(*(range(lep.automaton.n_states) for lep in leps)))
    qn_space = list(
        itertools.product(*(range(lep.complement_automaton.n_states) for lep in leps))
    )
    lep_acc = [frozenset(lep.automaton.accepting) for lep in leps]
    nlep_acc = [frozenset(lep.complement_automaton.accepting) for lep in leps]

    transitions: set[tuple[int, int, int]] = set()
    for q_r, row in rel.adjacency.items():
        for pair_sym, dsts in row.items():
            a1, a2 = divmod(pair_sym, base_size)
            # per-automaton successor sets on the input letter
            qs_next = [
                {q: lep.automaton.adjacency.get(q, {}).get(a1, ()) for q in range(lep.automaton.n_states)}
                for lep in leps
            ]
            qn_next = [
                {
                    q: lep.complement_automaton.adjacency.get(q, {}).get(a1, ())
                    for q in range(lep.complement_automaton.n_states)
                }
                for lep in leps
            ]
            for qs1 in qs_space:
                for qn1 in qn_space:
                    qs2_choices = list(itertools.product(*(qs_next[i][qs1[i]] for i in range(k))))
                    qn2_choices = list(itertools.product(*(qn_next[i][qn1[i]] for i in range(k))))
                    if not qs2_choices or not qn2_choices:
                        continue
                    for lep1 in range(n_masks):
                        gained = 0
                        for i in range(k):
                            tracked_accepting = (
                                qs1[i] in lep_acc[i]
                                if lep1 >> i & 1
                                else qn1[i] in nlep_acc[i]
                            )
                            if tracked_accepting:
                                gained |= 1 << i
                        for lepf1 in range(n_masks):
                            if lepf1 == full:
                                outcomes = [(0, RESET), (lepf1, NORESET)]
                            else:
                                outcomes = [(lepf1 | gained, NORESET)]
                            for rho1 in (NORESET, RESET):
                                l1 = letter(a1, qs1, qn1, lep1, lepf1, rho1)
                                for qs2 in qs2_choices:
                                    for qn2 in qn2_choices:
                                        for lepf2, rho2 in outcomes:
                                            l2 = letter(a2, qs2, qn2, lep1, lepf2, rho2)
                                            for q_r2 in dsts:
                                                transitions.add(
                                                    (q_r, l1 * pair_size + l2, q_r2)
                                                )

    t_aug = Transducer(
        FiniteAutomaton(
            Alphabet.product(sigma_a, sigma_a),
            rel.n_states,
            rel.initial,
            rel.accepting,
            frozenset(transitions),
        )
    )

    init = _losp_initial(m.initial, lo, leps, letter, sigma_a)
    acc = _losp_acceptance(sigma_a)
    aug_system = RegularSystem(sigma_a, init, t_aug, FINITE)
    return LospAugmentation(
        BuchiRegularSystem(aug_system, acc), m, lo, tuple(leps)
    )


def _losp_initial(initial, lo: Losp, leps, letter, sigma_a) -> FiniteAutomaton:
    """Initial words carry initial automaton states, a guessed violating
    labelling, an empty progress mask and noreset everywhere."""
    neg = lo.negation_automaton
    q0s = tuple(next(iter(lep.automaton.initial)) for lep in leps)
    q0n = tuple(next(iter(lep.complement_automaton.initial)) for lep in leps)
    n_masks = 1 << lo.n_props

    # node: (initial-set state, negation automaton state)
    def moves(node):
        srow = initial.adjacency.get(node[0], {})
        urow = neg.adjacency.get(node[1], {})
        for a, sdsts in srow.items():
            for lep_mask in range(n_masks):
                udsts = urow.get(lep_mask, ())
                sym = letter(a, q0s, q0n, lep_mask, 0, NORESET)
                for s2 in sdsts:
                    for u2 in udsts:
                        yield sym, (s2, u2)

    return explore(
        FiniteAutomaton,
        sigma_a,
        sorted(itertools.product(initial.initial, neg.initial)),
        moves,
        lambda node: node[0] in initial.accepting and node[1] in neg.accepting,
    )


def _losp_acceptance(sigma_a: Alphabet) -> FiniteAutomaton:
    """Words whose every position carries the reset flag."""
    reset_letters = [s for s in sigma_a.symbols() if sigma_a.parts(s)[-1] == RESET]
    return FiniteAutomaton(
        sigma_a,
        1,
        frozenset({0}),
        frozenset({0}),
        frozenset((0, s, 0) for s in reset_letters),
    )


def check_losp(aug: LospAugmentation, budget: int = 64) -> Verdict:
    return check_emptiness_loop(aug.msys, budget)


# ---------------------------------------------------------------------------
# witness replay


def replay_losp_witness(aug: LospAugmentation, witness: LassoWitness) -> tuple[bool, str]:
    """Fidelity replay: projection is an execution of the original system,
    labels are position-stable, the per-position automaton runs are genuine,
    and the reset discipline (progress accumulation, simultaneous reset) is
    respected."""
    ok, why = replay_lasso(aug.msys, witness)
    if not ok:
        return False, why
    m = aug.original
    words = list(witness.words)
    ring = words + [words[witness.loop_start]]
    decoded = [[aug.decode(sym) for sym in w] for w in ring]
    sigma = [tuple(d[0] for d in dw) for dw in decoded]
    if not accepts(m.initial, sigma[0]):
        return False, "projected first word is not initial in the original system"
    for t in range(len(ring) - 1):
        if not accepts_pair(m.relation, sigma[t], sigma[t + 1]):
            return False, f"projected step {t} not in the original relation"
    n_positions = len(ring[0])
    k = len(aug.leps)
    full = (1 << k) - 1
    for j in range(n_positions):
        stable = {dw[j][3] for dw in decoded}
        if len(stable) != 1:
            return False, f"lep label at position {j} changes over time"
    first = decoded[0]
    if any(d[4] != 0 or d[5] != NORESET for d in first):
        return False, "first word must carry empty progress and noreset"
    for t in range(len(ring) - 1):
        for j in range(n_positions):
            a1 = decoded[t][j][0]
            _, qs1, qn1, lep1, lepf1, _rho1 = decoded[t][j]
            _, qs2, qn2, _lep2, lepf2, rho2 = decoded[t + 1][j]
            for i in range(k):
                aut = aug.leps[i].automaton
                if qs2[i] not in aut.adjacency.get(qs1[i], {}).get(a1, ()):
                    return False, f"lep {i} run breaks at position {j}, step {t}"
                naut = aug.leps[i].complement_automaton
                if qn2[i] not in naut.adjacency.get(qn1[i], {}).get(a1, ()):
                    return False, f"lep {i} complement run breaks at position {j}, step {t}"
            if lepf1 == full:
                if not ((lepf2 == 0 and rho2 == RESET) or (lepf2 == lepf1 and rho2 == NORESET)):
                    return False, f"reset rule violated at position {j}, step {t}"
            else:
                gained = 0
                for i in range(k):
                    hit = (
                        qs1[i] in aug.leps[i].automaton.accepting
                        if lep1 >> i & 1
                        else qn1[i] in aug.leps[i].complement_automaton.accepting
                    )
                    if hit:
                        gained |= 1 << i
                if lepf2 != (lepf1 | gained) or rho2 != NORESET:
                    return False, f"progress accumulation violated at position {j}, step {t}"
    # the guessed labelling must be a violating sequence
    lep_word = tuple(d[3] for d in decoded[0])
    if not accepts(aug.losp.negation_automaton, lep_word):
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
    n_flags = len(flags)
    n_vals = 1 << n_flags

    def lift(a: int, val: int) -> int:
        return a * n_vals + val

    init_tr = frozenset(
        (src, lift(sym, val), dst)
        for src, sym, dst in m.initial.transitions
        for val in range(n_vals)
    )
    new_init = FiniteAutomaton(
        new_base, m.initial.n_states, m.initial.initial, m.initial.accepting, init_tr
    )
    base_size = m.alphabet.size
    new_pair = Alphabet.product(new_base, new_base)
    rel = m.relation.inner
    rel_tr = set()
    for src, sym, dst in rel.transitions:
        a1, a2 = divmod(sym, base_size)
        for v1 in range(n_vals):
            for v2 in range(n_vals):
                rel_tr.add((src, lift(a1, v1) * new_base.size + lift(a2, v2), dst))
    new_rel = Transducer(
        FiniteAutomaton(new_pair, rel.n_states, rel.initial, rel.accepting, frozenset(rel_tr))
    )
    return RegularSystem(new_base, new_init, new_rel, FINITE)


def combine_verdicts(expr: str, verdicts: dict[str, Verdict]) -> Verdict:
    """Three-valued evaluation of and/or combinations of named checks.

    A violated result carries the witness of a literal that decides it: a
    violated operand of a violated `&`, or a side of a violated `|`.
    Negation is intentionally absent: a system may satisfy neither a
    property nor its negation, so negated literals must be re-run as negated
    properties, not derived by flipping verdicts.
    """
    tokens = _tokenize(expr)
    (status, literal), rest = _parse_or(tokens, verdicts)
    if rest:
        raise InputError(f"trailing tokens in combination: {rest!r}")
    if status == VIOLATED:
        witness = verdicts[literal].witness
        if witness is None:
            return Verdict(VIOLATED, None, {})
        return Verdict(VIOLATED, witness, {"literal": literal})
    if status == HOLDS:
        return Verdict.holds()
    return Verdict.unknown("combination not decided by component verdicts")


def _tokenize(expr: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(expr):
        c = expr[i]
        if c.isspace():
            i += 1
        elif c in "&|()":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            tokens.append(expr[i:j])
            i = j
        elif c == "!":
            raise InputError(
                "negation is not supported in combinations; verify the negated property instead"
            )
        else:
            raise InputError(f"bad character {c!r} in combination")
    return tokens


def _decided(status: str, x: tuple, y: tuple) -> tuple[str, str | None]:
    """Parser value (status, literal) of `x op y`: a violated value keeps the
    literal of its first violated operand, which decides it."""
    if status != VIOLATED:
        return status, None
    return status, (x if x[0] == VIOLATED else y)[1]


def _parse_or(tokens, verdicts):
    value, tokens = _parse_and(tokens, verdicts)
    while tokens and tokens[0] == "|":
        rhs, tokens = _parse_and(tokens[1:], verdicts)
        value = _decided(_or3(value[0], rhs[0]), value, rhs)
    return value, tokens


def _parse_and(tokens, verdicts):
    value, tokens = _parse_atom(tokens, verdicts)
    while tokens and tokens[0] == "&":
        rhs, tokens = _parse_atom(tokens[1:], verdicts)
        value = _decided(_conjoin((value[0], rhs[0])), value, rhs)
    return value, tokens


def _parse_atom(tokens, verdicts):
    if not tokens:
        raise InputError("unexpected end of combination")
    tok = tokens[0]
    if tok == "(":
        value, rest = _parse_or(tokens[1:], verdicts)
        if not rest or rest[0] != ")":
            raise InputError("unbalanced parenthesis in combination")
        return value, rest[1:]
    if tok in ("&", "|", ")"):
        raise InputError(f"unexpected token {tok!r} in combination")
    if tok not in verdicts:
        raise InputError(f"unresolved literal {tok!r} in combination")
    return (verdicts[tok].status, tok), tokens[1:]


def _or3(x: str, y: str) -> str:
    if HOLDS in (x, y):
        return HOLDS
    if x == VIOLATED and y == VIOLATED:
        return VIOLATED
    return UNKNOWN
