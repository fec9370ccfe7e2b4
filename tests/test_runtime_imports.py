"""The runtime import set: numpy is the only third-party runtime dependency.

networkx and scipy serve only as test oracles (``tests/oracles.py``), so no
library, CLI or daemon path may import them.  Checked in a fresh
interpreter, because the test process has imported both already.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
import repro
import repro.cli
import repro.serve.daemon
from repro.model.io import load
from repro.verify import certify, differential_optimum
instance = load("tests/data/corpus/mcnaughton3.json")
certify(instance, 2)
assert differential_optimum(instance).ok
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")))
"""


def test_library_cli_and_daemon_import_no_oracle_dependency():
    path = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
