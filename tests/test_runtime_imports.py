"""The runtime import set: the standard library only.

numpy, networkx and scipy serve only the tests (``tests/oracles.py``,
``tests/test_stats.py``), so no library, CLI or daemon path may import a
module outside ``sys.stdlib_module_names`` and ``repro``.  Checked in a
fresh interpreter, because the test process has imported all three
already; what the interpreter loaded before the script ran (``site`` may
preload packages through ``.pth`` files) is not counted.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
preloaded = set(sys.modules)
import contextlib
import io
import json
import repro
import repro.cli
import repro.serve.daemon
from repro.model.io import load
from repro.verify import certify, differential_optimum
corpus = "tests/data/corpus/mcnaughton3.json"
instance = load(corpus)
certify(instance, 2)
assert differential_optimum(instance).ok
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert repro.cli.main(["profile", corpus, "--json"]) == 0
assert json.loads(out.getvalue())["lower_bound"] == 2
# __mp_main__ is multiprocessing's alias of the main module.
allowed = {*sys.stdlib_module_names, "repro", "__mp_main__"}
print(sorted(m for m in set(sys.modules) - preloaded
             if m.split(".")[0] not in allowed))
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
