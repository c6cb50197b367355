import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
K_FILES = ("tests/test_dynamics.py", "tests/test_nonmixing.py")


def workflow_steps():
    """The text of each step of tier1.yml, split at its '- ' list items."""
    return re.split(r"\n(?=      - )", WORKFLOW.read_text())


def defined_names(path):
    """Names of every class and function defined in a test module."""
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def assert_k_names_defined(step, files):
    # pytest -k matches substrings, so a renamed test drops out of a step
    # without an error; every name in its expression must still be defined
    assert all(f in step for f in files)
    expr = re.findall(r'-k\s+"([^"]*)"', step)
    assert len(expr) == 1
    names = [t for t in re.split(r"[\s()]+", expr[0]) if t and t not in ("or", "and", "not")]
    assert names
    known = set().union(*(defined_names(f) for f in files))
    assert [n for n in names if n not in known] == []


def test_non_avx512_step_selects_existing_tests():
    steps = [s for s in workflow_steps() if "NPY_DISABLE_CPU_FEATURES" in s]
    assert len(steps) == 1
    assert_k_names_defined(steps[0], K_FILES)


def test_one_cpu_step_selects_existing_tests():
    steps = [s for s in workflow_steps() if "taskset -c 0" in s]
    assert len(steps) == 1
    assert_k_names_defined(steps[0], ("tests/test_dynamics.py",))
