import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("autrep", "autrep.cli", "autrep.dynamics", "autrep.density",
           "autrep.nonmixing", "autrep.whitehead", "autrep._engine")


def test_import_loads_no_scipy():
    """scipy is imported on first use only (the KS test and the SU(2) meet);
    a fresh interpreter that imports every autrep module has no scipy module."""
    code = ("import json, sys\n"
            + "".join(f"import {m}\n" for m in MODULES)
            + "print(json.dumps(sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == []
