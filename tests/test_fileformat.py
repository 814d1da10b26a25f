"""Text formats: round trips, strictness, location-reported errors."""

import pytest

from rmckit import ParseError, parse_aut, serialize_aut
from rmckit.fixtures import (
    bad_two_tokens,
    cop_one_token,
    gsp_always_one_token_negated,
    lep_liveness,
    ring_initial,
    ring_relation,
)

ALL_FIXTURES = [
    ring_initial(),
    ring_relation(),
    cop_one_token(),
    gsp_always_one_token_negated(),
    bad_two_tokens(),
    lep_liveness(),
]


@pytest.mark.parametrize("value", ALL_FIXTURES, ids=lambda v: type(v).__name__ + str(id(v) % 97))
def test_round_trip_structural_identity(value):
    text = serialize_aut(value)
    again = parse_aut(text)
    assert again == value
    assert serialize_aut(again) == text


def test_serialize_is_canonical_fixpoint():
    text = serialize_aut(ring_relation())
    assert serialize_aut(parse_aut(text)) == text
    assert text.endswith("\n") and "\r" not in text


def test_parse_error_reports_line():
    bad = "kind: dfa\nalphabet: N T\nstates: 2\ninitial: 0\naccepting: 1\ntrans:\n0 T 5\n"
    with pytest.raises(ParseError) as err:
        parse_aut(bad)
    assert "line 7" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_aut("kind: dfa\ncolour: blue\n")
    assert "colour" in str(err.value)


def test_transducer_symbol_needs_slash():
    bad = (
        "kind: transducer\nalphabet: N T\nstates: 1\ninitial: 0\naccepting: 0\n"
        "trans:\n0 N 0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_aut(bad)
    assert "in/out" in str(err.value)


def test_plain_automaton_rejects_pair_symbol():
    bad = "kind: nfa\nalphabet: N T\nstates: 1\ninitial: 0\naccepting: 0\ntrans:\n0 N/T 0\n"
    with pytest.raises(ParseError):
        parse_aut(bad)


def test_kind_flags_verified_not_trusted():
    nondet = (
        "kind: dfa\nalphabet: N T\nstates: 2\ninitial: 0 1\naccepting: 1\ntrans:\n"
    )
    with pytest.raises(ParseError):
        parse_aut(nondet)
    not_weak = (
        "kind: weak-dba\nalphabet: N T\nstates: 2\ninitial: 0\naccepting: 1\ntrans:\n"
        "0 N 0\n0 T 1\n1 N 0\n1 T 1\n"
    )
    with pytest.raises(ParseError):
        parse_aut(not_weak)


def test_comments_and_blank_lines_ignored():
    text = (
        "# header\nkind: dfa  # inline\n\nalphabet: N T\nstates: 2\n"
        "initial: 0\naccepting: 1\ntrans:\n0 T 1  # move\n"
    )
    aut = parse_aut(text)
    assert aut.n_states == 2 and aut.is_deterministic


def test_bad_symbol_name_rejected():
    with pytest.raises(ParseError):
        parse_aut("kind: dfa\nalphabet: N T$\nstates: 1\ninitial: 0\naccepting:\ntrans:\n")


def test_omega_transducer_round_trip():
    from rmckit.fixtures import ring_alphabet
    from rmckit.transducer import OMEGA, identity

    t = identity(ring_alphabet(), OMEGA)
    text = serialize_aut(t)
    assert "kind: omega-transducer" in text
    assert parse_aut(text) == t


def test_load_omega_system(tmp_path):
    from rmckit import load_system, serialize_aut
    from rmckit.fixtures import build_fa, ring_alphabet
    from rmckit.transducer import OMEGA, identity

    init = build_fa(ring_alphabet(), 1, [0], [0], [(0, "N", 0)], omega=True)
    (tmp_path / "init.aut").write_text(serialize_aut(init))
    (tmp_path / "rel.aut").write_text(serialize_aut(identity(ring_alphabet(), OMEGA)))
    (tmp_path / "sys.sys").write_text(
        "alphabet: N T\nmode: omega\ninitial: init.aut\nrelation: rel.aut\n"
    )
    loaded = load_system(tmp_path / "sys.sys")
    assert loaded.system.mode == "omega"
    assert loaded.system.initial.is_weak


@pytest.mark.parametrize(
    "mode, prop, error",
    [
        ("omega", "omega_bad.aut", None),
        ("finite", "finite_bad.aut", None),
        ("omega", "finite_bad.aut", "must be an omega-word automaton"),
        ("finite", "omega_bad.aut", "must be a finite-word automaton"),
        ("omega", "rel.aut", "must be an omega-word automaton"),
        ("finite", "rel.aut", "must be a finite-word automaton"),
    ],
)
def test_reach_bad_property_follows_the_system_mode(tmp_path, mode, prop, error):
    from rmckit import load_system
    from rmckit.fixtures import build_fa, ring_alphabet
    from rmckit.transducer import identity

    nt = ring_alphabet()
    omega = mode == "omega"
    files = {
        "init.aut": build_fa(nt, 1, [0], [0], [(0, "N", 0)], omega=omega),
        "rel.aut": identity(nt, mode),
        # the words with a T, as a weak DBA and as a finite-word DFA
        "omega_bad.aut": build_fa(
            nt, 2, [0], [1], [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)], omega=True
        ),
        "finite_bad.aut": build_fa(
            nt, 2, [0], [1], [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)]
        ),
    }
    for name, value in files.items():
        (tmp_path / name).write_text(serialize_aut(value))
    (tmp_path / "sys.sys").write_text(
        f"alphabet: N T\nmode: {mode}\ninitial: init.aut\nrelation: rel.aut\n"
        f"property: reach-bad has_t {prop}\n"
    )
    if error is None:
        loaded = load_system(tmp_path / "sys.sys")
        assert loaded.property_named("reach-bad", "has_t").automaton == files[prop]
    else:
        with pytest.raises(ParseError, match=f"property 'has_t': bad set {error}"):
            load_system(tmp_path / "sys.sys")


@pytest.mark.parametrize(
    "mode, entry, error",
    [
        ("omega", "cop: has_t finite_bad.aut", "state property 'has_t' must read omega words"),
        ("finite", "cop: has_t omega_bad.aut", "state property 'has_t' must read finite words"),
        # a Buchi cop with no weak DBA is refused for its kind before its weakness
        ("finite", "cop: has_t not_weak.aut", "state property 'has_t' must read finite words"),
        ("omega", "cop: has_t not_weak.aut", "omega state property 'has_t' must be weak"),
        # a weak Buchi cop whose language has no weak DBA, refused for its
        # kind before it is determinized
        ("finite", "cop: has_t ev_always_n.aut", "state property 'has_t' must read finite words"),
        ("finite", "cop: has_t rel.aut", "state property 'has_t' needs a finite-word or Buchi automaton"),
        ("finite", "lep: has_t finite_bad.aut", "local execution property 'has_t' needs Buchi automata"),
    ],
)
def test_cop_and_lep_entries_report_their_line(tmp_path, mode, entry, error):
    from rmckit import load_system
    from rmckit.fixtures import build_fa, ring_alphabet
    from rmckit.transducer import identity

    nt = ring_alphabet()
    omega = mode == "omega"
    has_t = [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)]
    files = {
        "init.aut": build_fa(nt, 1, [0], [0], [(0, "N", 0)], omega=omega),
        "rel.aut": identity(nt, mode),
        "omega_bad.aut": build_fa(nt, 2, [0], [1], has_t, omega=True),
        "finite_bad.aut": build_fa(nt, 2, [0], [1], has_t),
        # infinitely many T, read by a nondeterministic automaton
        "not_weak.aut": build_fa(nt, 2, [0], [1], has_t + [(1, "N", 0)], omega=True),
        # eventually always N: weak, but with no weak DBA
        "ev_always_n.aut": build_fa(
            nt, 2, [0], [1], [(0, "N", 0), (0, "T", 0), (0, "N", 1), (1, "N", 1)], omega=True
        ),
    }
    for name, value in files.items():
        (tmp_path / name).write_text(serialize_aut(value))
    (tmp_path / "sys.sys").write_text(
        f"alphabet: N T\nmode: {mode}\ninitial: init.aut\nrelation: rel.aut\n{entry}\n"
    )
    with pytest.raises(ParseError) as info:
        load_system(tmp_path / "sys.sys")
    key = entry.split(":")[0]
    assert str(info.value) == f"{key} 'has_t': {error} (line 5)"
    assert info.value.line == 5


def test_token_ring_cop_naming_a_lep_file_fails_at_load(tmp_path):
    from rmckit import load_system
    from rmckit.fixtures import gen_example

    gen_example("token-ring", tmp_path)
    system = tmp_path / "system.sys"
    lines = system.read_text().splitlines()
    lineno = lines.index("cop: one_token cop_one_token.aut") + 1
    lines[lineno - 1] = "cop: one_token lep_liveness.aut"
    system.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_system(system)
    assert str(info.value) == (
        f"cop 'one_token': state property 'one_token' must read finite words (line {lineno})"
    )
    assert info.value.line == lineno


@pytest.mark.parametrize("kind", ["reach-bad", "gsp-negated"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_a_property_name_declared_twice_is_refused(tmp_path, kind, where):
    # two blocks named two_tokens, whatever their kinds and their order
    from rmckit import load_system
    from rmckit.fixtures import gen_example

    gen_example("token-ring", tmp_path)
    system = tmp_path / "system.sys"
    lines = system.read_text().splitlines()
    at = lines.index("property: reach-bad two_tokens bad_two_tokens.aut")
    extra = f"property: {kind} two_tokens " + (
        "initial.aut" if kind == "reach-bad" else "gsp_always_one_neg.aut"
    )
    lines.insert(at if where == "before" else at + 1, extra)
    system.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_system(system)
    assert str(info.value) == (
        f"property 'two_tokens' already declared on line {at + 1} (line {at + 2})"
    )
    assert info.value.line == at + 2


def test_the_example_bundles_load_with_their_cops_as_recorded(tmp_path):
    # the cop automata are the complete minimal DFAs they have always been
    from rmckit import load_system
    from rmckit.fixtures import EXAMPLE_NAMES, gen_example

    one_token = (
        "kind: dfa\nalphabet: N T\nstates: 3\ninitial: 0\naccepting: 1\ntrans:\n"
        "0 N 0\n0 T 1\n1 N 1\n1 T 2\n2 N 2\n2 T 2\n"
    )
    for name in EXAMPLE_NAMES:
        gen_example(name, tmp_path / name)
        loaded = load_system(tmp_path / name / "system.sys")
        cops = {cop.name: serialize_aut(cop.automaton) for cop in loaded.cops}
        assert cops == {"one_token": one_token}, name


def test_load_system_reports_missing_files(tmp_path):
    from rmckit import InputError, load_system

    missing = tmp_path / "none.sys"
    with pytest.raises(InputError, match="not found") as info:
        load_system(missing)
    assert str(info.value) == f"system file {str(missing)!r} not found"
    assert not isinstance(info.value, ParseError)
    (tmp_path / "sys.sys").write_text("alphabet: N T\n# the initial set\ninitial: init.aut\n")
    with pytest.raises(ParseError) as info:
        load_system(tmp_path / "sys.sys")
    assert str(info.value) == "referenced file 'init.aut' not found (line 3)"
    assert info.value.line == 3


def test_load_system_reads_each_file_once(tmp_path):
    from pathlib import Path
    from unittest import mock

    from rmckit import load_system
    from rmckit.fixtures import gen_example

    gen_example("token-ring", tmp_path)
    system = tmp_path / "system.sys"
    referenced = {word for word in system.read_text().split() if word.endswith(".aut")}
    assert len(referenced) == 8
    reads = []
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    # no file is looked up before it is read
    with mock.patch.object(Path, "read_text", counted), \
            mock.patch.object(Path, "exists", side_effect=AssertionError("exists() called")):
        load_system(system)
    assert sorted(reads) == sorted({"system.sys"} | referenced)


def test_gsp_property_block_is_negated_on_load(tmp_path):
    from rmckit import load_system
    from rmckit.fixtures import build_fa, gen_example
    from rmckit.gsp import cop_alphabet
    from rmckit.omega import UltimatelyPeriodicWord, accepts_up_word

    # `always cop0` as a weak DBA; the shipped bundle declares its negation
    always = build_fa(
        cop_alphabet(1), 2, [0], [0],
        [(0, "m1", 0), (0, "m0", 1), (1, "m0", 1), (1, "m1", 1)],
        omega=True,
    )
    gen_example("token-ring", tmp_path)
    (tmp_path / "always_one.aut").write_text(serialize_aut(always))
    system = tmp_path / "system.sys"
    system.write_text(system.read_text() + "property: gsp always_one always_one.aut\n")
    loaded = load_system(system)
    negated = loaded.property_named("gsp", "always_one").automaton
    shipped = loaded.property_named("gsp-negated", "always_one_token").automaton
    assert negated.n_props == 1
    m0, m1 = (cop_alphabet(1).index(name) for name in ("m0", "m1"))
    for prefix, period in [((), (m1,)), ((m1, m1), (m1,)), ((), (m0,)), ((m1,), (m1, m0))]:
        word = UltimatelyPeriodicWord(prefix, period)
        assert accepts_up_word(always, word) == (m0 not in prefix + period)
        assert accepts_up_word(negated.automaton, word) == (m0 in prefix + period)
        assert accepts_up_word(shipped.automaton, word) == (m0 in prefix + period)
