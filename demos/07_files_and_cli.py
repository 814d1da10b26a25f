"""File formats and the command-line pipelines.

Bundles are plain diffable text; the CLI wires parsing, slicing, the
verification engines and witness replay together, with exit codes
0 = holds, 1 = violated, 2 = unknown, 3 = input error.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from rmckit import load_system, parse_aut, serialize_aut
from rmckit.fixtures import gen_example, ring_relation

with tempfile.TemporaryDirectory(prefix="rmckit-demo-") as tmp:
    out = Path(tmp)
    files = gen_example("token-ring", out)
    print("generated bundle:")
    for f in files:
        print("  ", f.name)

    print("\nrelation.aut (canonical text form):")
    print((out / "relation.aut").read_text())

    # parse/serialize round-trips are exact
    text = serialize_aut(ring_relation())
    assert serialize_aut(parse_aut(text)) == text
    print("round trip: parse(serialize(x)) == x")

    loaded = load_system(out / "system.sys")
    print("\nloaded system:", loaded.system.alphabet.components[0],
          "| cops:", [c.name for c in loaded.cops],
          "| leps:", [l.name for l in loaded.leps],
          "| properties:", [(p.kind, p.name) for p in loaded.properties])

    for args in (
        ["check-reach", "--system", str(out / "system.sys"), "--slice", "2..5"],
        ["check-gsp", "--system", str(out / "system.sys"), "--slice", "2..3"],
        ["closure", "--system", str(out / "system.sys"), "--budget", "8"],
    ):
        print("\n$ rmckit", " ".join(args))
        proc = subprocess.run(
            [sys.executable, "-m", "rmckit.cli", *args], capture_output=True, text=True
        )
        print(proc.stdout.rstrip())
        print("exit code:", proc.returncode)
