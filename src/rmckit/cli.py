"""Command-line verification pipelines.

Exit codes: 0 the property holds (on every requested slice), 1 violated
(a replayed witness is printed), 2 unknown (budget or approximation), 3
input error, a usage error among them.  `--budget` is a positive integer.
`--slice LO..HI` needs 1 <= LO <= HI; slices are checked one after another
and reported in slice order.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import fixtures
from .errors import InputError, RmckitError
from .fileformat import LoadedSystem, load_system, parse_aut
from .gsp import (
    GspAugmentation,
    NegatedGsp,
    build_augmented_finite,
    build_augmented_omega,
    check_emptiness_loop,
    negated_gsp,
    replay_gsp_witness,
)
from .losp import build_augmented_losp, check_losp, losp_property, replay_losp_witness
from .omega import OmegaAutomaton, _member, _segments
from .simulation import check_emptiness_sim, sim_fixpoint
from .system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    RegularSystem,
    Verdict,
    _conjoin,
    check_reachability_property,
    slice_system,
)
from .transducer import OMEGA, accepts_pair, closure

SCHEMA = 1
_EXIT = {HOLDS: 0, VIOLATED: 1, UNKNOWN: 2}
# verdict diagnostics copied into report rows, in print order
_DIAGNOSTIC_KEYS = (
    "steps", "reach_steps", "nested_rounds", "closure_steps", "reason", "sim_exact", "converged",
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (RmckitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 3, not argparse's 2, which here
    means unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be a positive integer, not {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmckit",
        description="regular model checking of linear temporal properties",
    )
    sub = parser.add_subparsers(required=True)

    def common(p, engine=False):
        p.add_argument("--system", required=True, help="system file (.sys)")
        p.add_argument(
            "--property",
            default=None,
            help="property name declared in the system file, or an automaton file",
        )
        p.add_argument(
            "--slice",
            default="2..8",
            help="slice range LO..HI, a single length, or `none` (default 2..8)",
        )
        p.add_argument("--budget", type=_budget, default=64, help="fixpoint budget (default 64)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if engine:
            p.add_argument("--engine", choices=("loop", "sim"), default="loop")

    p = sub.add_parser("check-reach", help="reachability property (bad-state avoidance)")
    common(p)
    p.set_defaults(handler=cmd_check_reach)

    p = sub.add_parser("check-gsp", help="global system property")
    common(p, engine=True)
    p.set_defaults(handler=cmd_check_gsp)

    p = sub.add_parser("check-losp", help="local-oriented system property")
    common(p)
    p.set_defaults(handler=cmd_check_losp)

    p = sub.add_parser("closure", help="iterative closure of the system relation")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", choices=("star", "plus"), default="star")
    p.add_argument("--slice", default="none")
    p.add_argument("--budget", type=_budget, default=64)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("sim", help="greatest-simulation fixpoint of the augmented system")
    common(p)
    p.set_defaults(handler=cmd_sim)

    p = sub.add_parser("gen-example", help="write a worked example bundle")
    p.add_argument("name", choices=fixtures.EXAMPLE_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_gen_example)
    return parser


def _parse_slice(text: str) -> tuple[int, int] | None:
    """`none`, a length N or a range LO..HI with 1 <= LO <= HI."""
    if text == "none":
        return None
    lo, sep, hi = text.partition("..")
    try:
        span = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InputError(f"bad slice range {text!r}")
    if not 1 <= span[0] <= span[1]:
        raise InputError(f"bad slice range {text!r}: need 1 <= LO <= HI")
    return span


def _slice_rows(text: str, base: RegularSystem, row, unsliced_error: str | None = None):
    """Rows `row(n, system)` for each slice of `--slice`, in slice order, or
    the one row `row(None, base)` for `none` unless `unsliced_error` forbids it."""
    span = _parse_slice(text)
    if span is None:
        if unsliced_error is not None:
            raise InputError(unsliced_error)
        return [row(None, base)]
    return [row(n, slice_system(base, n)) for n in range(span[0], span[1] + 1)]


def _property_block(loaded: LoadedSystem, kinds: tuple[str, ...], arg: str | None):
    if arg is not None and Path(arg).exists():
        return None  # caller parses the file
    for kind in kinds:
        try:
            return loaded.property_named(kind, arg)
        except InputError:
            continue
    raise InputError(
        f"no declared property of kind {kinds} " + (f"named {arg!r}" if arg else "")
    )


# ---------------------------------------------------------------------------
# reporting


def _label(row: dict) -> str:
    return "unsliced" if row["slice"] is None else f"slice {row['slice']}"


def _verdict_line(row: dict) -> None:
    extra = []
    for key in _DIAGNOSTIC_KEYS:
        if key != "converged" and row.get(key) is not None:
            extra.append(f"{key}={row[key]}")
    suffix = f" ({', '.join(extra)})" if extra else ""
    print(f"{_label(row)}: {row['status']}{suffix} [{row['time_ms']} ms]")
    if row.get("witness"):
        w = row["witness"]
        if w.get("loop_start") is not None:
            print(f"  lasso, loop starts at index {w['loop_start']}:")
        else:
            print("  path witness:")
        for i, word in enumerate(w["words"]):
            print(f"    {i}: {' '.join(word)}")


def _report(args, command: str, rows: list[dict], line=_verdict_line) -> int:
    """Print the rows as JSON or as text and return the exit code of their
    conjunction.

    `line` prints one row as text; the default prints a verdict and its witness.
    """
    overall = _conjoin(row["status"] for row in rows)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": command,
            "system": args.system,
            "slices": rows,
            "overall": overall,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for row in rows:
            line(row)
        print(f"overall: {overall}")
    return _EXIT[overall]


def _row(n: int | None, verdict: Verdict, elapsed: float, words=None) -> dict:
    row = {
        "slice": n,
        "status": verdict.status,
        "time_ms": round(elapsed * 1000, 1),
    }
    for key in _DIAGNOSTIC_KEYS:
        if key in verdict.diagnostics:
            row[key] = verdict.diagnostics[key]
    if verdict.witness is not None:
        row["witness"] = {
            "loop_start": verdict.witness.loop_start,
            "words": words,
        }
    return row


def _timed(fn, *fn_args):
    start = time.perf_counter()
    out = fn(*fn_args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# commands


def cmd_check_reach(args) -> int:
    loaded = load_system(args.system)
    block = _property_block(loaded, ("reach-bad",), args.property)
    bad = parse_aut(Path(args.property).read_text()) if block is None else block.automaton
    base = loaded.system

    def run(m: RegularSystem) -> Verdict:
        verdict = check_reachability_property(m, bad, args.budget)
        if verdict.status == VIOLATED:
            _assert_path_witness(m, bad, verdict)
        return verdict

    def row(n: int | None, m: RegularSystem) -> dict:
        verdict, dt = _timed(run, m)
        return _row(n, verdict, dt, _witness_words(verdict, base.alphabet))

    return _report(args, "check-reach", _slice_rows(args.slice, base, row))


def _assert_path_witness(m: RegularSystem, bad, verdict: Verdict) -> None:
    """Re-validate a path witness before it is printed."""
    words = verdict.witness.words
    ok = (
        bool(words)
        and _member(m.initial, words[0])
        and _member(bad, words[-1])
        and all(accepts_pair(m.relation, a, b) for a, b in zip(words, words[1:]))
    )
    if not ok:
        raise InputError("reachability witness failed replay (bug)")


def _witness_words(verdict: Verdict, alphabet, project=None):
    """Witness words as letter names, after `project` maps each to the system's
    words; the period of an omega-word follows a `|`."""
    if verdict.witness is None:
        return None
    out = []
    for w in verdict.witness.words:
        names = []
        for i, part in enumerate(_segments(w if project is None else project(w))):
            if i:
                names.append("|")
            names.extend(alphabet.name(s) for s in part)
        out.append(names)
    return out


def cmd_check_gsp(args) -> int:
    loaded = load_system(args.system)
    neg = _gsp_property(loaded, args)
    base = loaded.system
    cops = loaded.cops
    build = build_augmented_omega if base.mode == OMEGA else build_augmented_finite

    def run(m: RegularSystem) -> tuple[Verdict, GspAugmentation]:
        aug = build(m, neg, cops)
        if args.engine == "sim":
            sim = sim_fixpoint(aug.msys, cops, args.budget)
            if not sim.exact:
                # an unconverged iterate is not a simulation, so no check runs
                return Verdict.unknown(
                    f"budget {args.budget} exhausted before the simulation fixpoint converged",
                    sim_exact=False,
                ), aug
            verdict = check_emptiness_sim(aug.msys, sim, args.budget)
        else:
            verdict = check_emptiness_loop(aug.msys, args.budget)
        if verdict.status == VIOLATED:
            ok, why = replay_gsp_witness(aug, verdict.witness)
            if not ok:
                raise InputError(f"witness failed replay: {why}")
        return verdict, aug

    def row(n: int | None, m: RegularSystem) -> dict:
        (verdict, aug), dt = _timed(run, m)
        return _row(n, verdict, dt, _witness_words(verdict, base.alphabet, aug.sigma_word))

    # omega-mode systems are not sliced (their words are infinite), but a
    # malformed --slice is rejected all the same
    _parse_slice(args.slice)
    spec = "none" if base.mode == OMEGA else args.slice
    return _report(args, "check-gsp", _slice_rows(spec, base, row))


def _gsp_property(loaded: LoadedSystem, args) -> NegatedGsp:
    block = _property_block(loaded, ("gsp-negated", "gsp"), args.property)
    if block is None:
        aut = parse_aut(Path(args.property).read_text())
        if not isinstance(aut, OmegaAutomaton):
            raise InputError("gsp property file must hold a Buchi automaton")
        return negated_gsp(aut, len(loaded.cops))
    return block.automaton  # `gsp` blocks were negated at load time


def cmd_check_losp(args) -> int:
    loaded = load_system(args.system)
    block = _property_block(loaded, ("losp-negated",), args.property)
    if block is None:
        aut = parse_aut(Path(args.property).read_text())
        lo_prop = losp_property(aut, len(loaded.leps))
    else:
        lo_prop = block.automaton
    base = loaded.system

    def run(m: RegularSystem):
        aug = build_augmented_losp(m, lo_prop, loaded.leps)
        verdict = check_losp(aug, args.budget)
        if verdict.status == VIOLATED:
            ok, why = replay_losp_witness(aug, verdict.witness)
            if not ok:
                raise InputError(f"witness failed replay: {why}")
        return verdict, aug

    def row(n: int, m: RegularSystem) -> dict:
        (verdict, aug), dt = _timed(run, m)
        return _row(n, verdict, dt, _witness_words(verdict, base.alphabet, aug.sigma_word))

    needs = "check-losp needs a slice range (parametric verification)"
    return _report(args, "check-losp", _slice_rows(args.slice, base, row, needs))


def cmd_closure(args) -> int:
    loaded = load_system(args.system)

    def row(n: int | None, m: RegularSystem) -> dict:
        result, dt = _timed(closure, m.relation, args.kind, args.budget)
        return {
            "slice": n,
            "status": HOLDS if result.converged else UNKNOWN,
            "converged": result.converged,
            "steps": result.steps_used,
            "states": result.relation.inner.n_states,
            "time_ms": round(dt * 1000, 1),
        }

    return _report(args, "closure", _slice_rows(args.slice, loaded.system, row), _closure_line)


def _closure_line(row: dict) -> None:
    print(
        f"{_label(row)}: converged={row['converged']} steps={row['steps']} "
        f"states={row['states']} [{row['time_ms']} ms]"
    )


def cmd_sim(args) -> int:
    loaded = load_system(args.system)
    neg = _gsp_property(loaded, args)

    def run(m: RegularSystem):
        aug = build_augmented_finite(m, neg, loaded.cops)
        return sim_fixpoint(aug.msys, loaded.cops, args.budget)

    def row(n: int, m: RegularSystem) -> dict:
        sim, dt = _timed(run, m)
        return {
            "slice": n,
            "status": HOLDS if sim.exact else UNKNOWN,
            "exact": sim.exact,
            "iterations": sim.iteration_index,
            "states": sim.relation.inner.n_states,
            "time_ms": round(dt * 1000, 1),
        }

    needs = "sim needs a slice range (finite-index detection is per slice)"
    rows = _slice_rows(args.slice, loaded.system, row, needs)
    return _report(args, "sim", rows, _sim_line)


def _sim_line(row: dict) -> None:
    print(
        f"{_label(row)}: exact={row['exact']} iterations={row['iterations']} "
        f"states={row['states']} [{row['time_ms']} ms]"
    )


def cmd_gen_example(args) -> int:
    files = fixtures.gen_example(args.name, args.out)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
