"""The package needs numpy only at run time: the test-only libraries must
not be imported by the library or the CLI."""

import json
import os
import subprocess
import sys

import hnp

TEST_ONLY = ("hypothesis", "networkx", "scipy", "pytest")


def test_runtime_imports_numpy_only():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnp.__file__)))
    code = (
        "import json, sys\n"
        "import hnp, hnp.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    top_level = set(json.loads(out))
    assert "numpy" in top_level
    assert not top_level & set(TEST_ONLY)
