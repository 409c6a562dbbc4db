"""The package needs nothing outside the standard library: with numpy made
unimportable, it imports, reproduces the bundled session reports byte for
byte and passes the engine-vs-oracle agreement checks."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import hashlib, json, pathlib, sys
sys.modules["numpy"] = None            # any import of numpy now raises ImportError
root = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
from aggraded import session
from aggraded.randomized import run_agreement_suite
digests = {}
for name in ("semigroup", "squares", "fibre"):
    ses = session.parse_session((root / "sessions" / f"{name}.session").read_text())
    text = session.render_report(session.execute(ses)[0])
    digests[name] = hashlib.sha256(text.encode()).hexdigest()
checked = run_agreement_suite(20).checked
print(json.dumps({"digests": digests, "checked": checked}))
"""


def test_package_runs_without_numpy():
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["sessions"]
    assert got["digests"] == {name: goldens[name] for name in ("semigroup", "squares", "fibre")}
    assert got["checked"] == 20
