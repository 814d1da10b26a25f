"""CLI transcripts on the token-dup-mutant bundle against recorded ones.

Each command runs at `--slice 2..3` in text and in JSON form; the recorded
transcripts live in `tests/golden/` and hold the exit code followed by the
standard output, with times masked.  The commands that accept `--slice none`
also run unsliced at `--budget 4`, recorded as `<name>-unsliced.<fmt>`; the
sim engine is left out there, as it takes seconds on the unsliced system.
The system file is passed relative to the bundle directory, so the JSON
reports do not depend on where the bundle was written.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from rmckit.cli import main
from rmckit.fixtures import gen_example

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "check-reach": ["check-reach"],
    "check-gsp-loop": ["check-gsp", "--engine", "loop"],
    "check-gsp-sim": ["check-gsp", "--engine", "sim"],
    "check-losp": ["check-losp"],
    "closure": ["closure"],
    "sim": ["sim"],
}
FORMATS = {"txt": [], "json": ["--format", "json"]}
UNSLICED = ("check-reach", "check-gsp-loop", "closure")

_TIMES = re.compile(r'(\[|"time_ms": )[0-9.]+')


def transcript(name: str, fmt: str, span: tuple[str, ...] = ("--slice", "2..3")) -> str:
    """Exit code and masked output of one recorded command, run in the cwd."""
    argv = COMMANDS[name] + ["--system", "system.sys", *span] + FORMATS[fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n" + _TIMES.sub(r"\1<t>", out.getvalue())


@pytest.fixture(scope="module")
def dup_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("dup")
    gen_example("token-dup-mutant", out)
    return out


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_transcript(dup_bundle, monkeypatch, name, fmt):
    monkeypatch.chdir(dup_bundle)
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    assert transcript(name, fmt) == expected


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", UNSLICED)
def test_unsliced_cli_output_matches_golden_transcript(dup_bundle, monkeypatch, name, fmt):
    monkeypatch.chdir(dup_bundle)
    expected = (GOLDEN / f"{name}-unsliced.{fmt}").read_text()
    assert transcript(name, fmt, ("--slice", "none", "--budget", "4")) == expected
