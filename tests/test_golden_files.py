"""No stale golden: every file in `tests/golden/` is read by a test, and
every key of a JSON golden is a case of the module that reads it, so a
dropped or renamed case cannot leave its recorded value behind."""

import json
from pathlib import Path

import test_cli_golden
import test_explore_golden
import test_weak_min_golden

GOLDEN = Path(__file__).parent / "golden"
KEYED = (test_explore_golden, test_weak_min_golden)


def test_json_golden_keys_are_exactly_the_cases():
    for module in KEYED:
        assert set(json.loads(module.GOLDEN.read_text())) == set(module.CASES), module.__name__


def test_every_golden_file_is_read_by_a_test():
    cli = test_cli_golden
    read = {module.GOLDEN.name for module in KEYED}
    read |= {f"{name}.{fmt}" for name in cli.COMMANDS for fmt in cli.FORMATS}
    read |= {f"{name}-unsliced.{fmt}" for name in cli.UNSLICED for fmt in cli.FORMATS}
    assert {path.name for path in GOLDEN.iterdir()} == read
