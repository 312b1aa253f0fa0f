"""Lints over the ``maxtherm`` sources.

Every name a module imports is used in that module, and every public
function, class and method is reached from elsewhere in the package: a
name that only tests or nothing call is either made a check, moved into
the tests as an oracle, or deleted.  Every parameter of a function is
read in its body, so that no argument is silently ignored.  No top-level
name is bound (assigned, or defined by ``def`` or ``class``) in two
modules, so that a constant such as a tolerance has one definition.
Every call to ``check_maxplus_probability`` keeps its result: the check
returns the table with its near-zero values made exactly 0, and a caller
that keeps its own table keeps a column max that is not 0.  No function
tests finiteness with ``isfinite`` or ``isnan`` but the few in
``FINITENESS_TESTS``: a real argument or table that must be finite goes
through ``shift.check_real``.  No ``np.array`` or ``np.asarray`` call
passes ``dtype=float``, which parses text and reads bools as 0 and 1: a
number or float table from a caller is read by ``semiring.check_numbers``.

No linter is a dependency, so this parses the sources with ``ast``.  The
package ``__init__`` is exempt from the import rule, since its imports are
the re-exports; re-exporting a name is not a reference to it.

scipy is imported only where the transport LP runs: a fresh process that
runs a subcommand and writes its report has not loaded ``scipy.optimize``
or ``scipy.sparse``.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from maxtherm.shift import CylinderMeasure, ShiftSpace
from maxtherm.transport import w1_lp_oracle

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maxtherm"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
SOURCES = [name for name in TREES if name != "__init__.py"]


def unused_imports(tree: ast.AST) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level def or class, and of
    each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def references(node: ast.AST) -> Counter:
    """How often each name is loaded as ``name`` or ``obj.name`` in ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def unreached(trees: dict) -> list:
    """``module:name`` of each public definition that no code outside its
    own body references.

    Methods match by attribute name alone, so a method is missed when any
    attribute of the same name is loaded anywhere: an unused
    ``uniform`` classmethod counts as reached through ``rng.uniform``.
    """
    total = sum((references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] <= references(node)[name]:
                out.append(f"{module}:{qualname}")
    return out


def top_level_bindings(tree: ast.Module) -> set:
    """Names a module binds at top level by assignment, ``def`` or
    ``class``.  Imports are not counted: importing a name reuses the one
    definition."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def bound_twice(trees: dict) -> list:
    """Each top-level name that two or more modules bind."""
    counts = Counter(name for tree in trees.values() for name in top_level_bindings(tree))
    return sorted(name for name, count in counts.items() if count > 1)


def unread_parameters(tree: ast.AST) -> list:
    """``function:parameter`` of each parameter of a def, other than
    ``self`` and ``cls``, that its body never loads.  Lambdas are exempt:
    a constant function ignores its argument by design."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            sub.id for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        out += [f"{node.name}:{p}" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def discarded_maxplus_checks(tree: ast.AST) -> list:
    """Line of each ``check_maxplus_probability`` call made as a bare
    statement, so that its checked table is dropped."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and "check_maxplus_probability" in references(node.value.func)
    ]


# the functions that may call isfinite or isnan: the one real check, the
# linear probability check, pressure's support test, a candidate counter
# that checks nothing, the NaN test of a threshold b that may be +-inf, and
# the CLI's flag type, which gives argparse its usage message
FINITENESS_TESTS = {
    "shift.py": {"check_real", "check_probability_rows"},
    "semiring.py": {"pressure"},
    "simplex.py": {"_spread_candidates"},
    "dynamics.py": {"log_event_probability"},
    "cli.py": {"_finite_float"},
}


def finiteness_tests(tree: ast.AST) -> list:
    """``function:line`` of each ``isfinite`` or ``isnan`` call, named by
    the innermost function holding it (``<module>`` outside any)."""
    out = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            called = isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1]
            if called in ("isfinite", "isnan"):
                out.append(f"{owner}:{child.lineno}")
            visit(child, owner)

    visit(tree, "<module>")
    return out


FLOAT_DTYPES = {"float", "np.float64"}


def float_conversions(tree: ast.AST) -> list:
    """Line of each ``np.array`` or ``np.asarray`` call whose dtype, by
    keyword or as the second argument, is float."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("np.array", "np.asarray")):
            continue
        dtypes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(ast.unparse(dtype) in FLOAT_DTYPES for dtype in dtypes):
            out.append(node.lineno)
    return out


def test_the_sources_are_found():
    assert {"ifs.py", "semiring.py", "transport.py"} <= set(SOURCES)


@pytest.mark.parametrize("name", SOURCES)
def test_module_uses_every_name_it_imports(name):
    assert unused_imports(TREES[name]) == []


def test_an_unused_import_is_reported():
    source = "import os\nfrom typing import List, Tuple\n\nx: Tuple[int] = os.sep\n"
    assert unused_imports(ast.parse(source)) == ["List"]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_parameter_is_read(name):
    assert unread_parameters(TREES[name]) == []


def test_an_unread_parameter_is_reported():
    source = (
        "def f(a, b=1, *args, c, **kw):\n"
        "    def g(self, d):\n"
        "        return d\n"
        "    return a + c + g(None, kw)\n"
        "class K:\n"
        "    @classmethod\n"
        "    def make(cls, seed):\n"
        "        return lambda x: 0\n"
    )
    assert unread_parameters(ast.parse(source)) == ["f:b", "f:args", "make:seed"]


def test_every_public_name_is_reached_from_the_package():
    assert unreached(TREES) == []


def test_an_unreached_name_is_reported():
    source = (
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "class Box:\n"
        "    def read(self): pass\n"
        "    def write(self): self.read()\n"
        "class _Hidden:\n"
        "    def error(self): pass\n"
        "used()\n"
        "Box\n"
    )
    other = "from a import recursive\n"
    trees = {"a.py": ast.parse(source), "b.py": ast.parse(other)}
    assert unreached(trees) == ["a.py:recursive", "a.py:Box.write"]


def test_no_top_level_name_is_bound_in_two_modules():
    assert bound_twice(TREES) == []


def test_a_name_bound_in_two_modules_is_reported():
    a = "from b import shared\nTOL = 1e-12\nx, (y, z) = 1, (2, 3)\ndef f(): pass\n"
    b = "TOL: float = 1e-9\nclass f: pass\ny = 0\nshared = 1\n"
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert bound_twice(trees) == ["TOL", "f", "y"]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_checked_maxplus_table_is_used(name):
    assert discarded_maxplus_checks(TREES[name]) == []


def test_a_discarded_maxplus_check_is_reported():
    source = (
        "from . import semiring\n"
        "from .semiring import check_maxplus_probability\n"
        "def f(h):\n"
        "    check_maxplus_probability(h)\n"
        "    q = check_maxplus_probability(h)\n"
        "    semiring.check_maxplus_probability(q)\n"
        "    return check_maxplus_probability(q)\n"
    )
    assert discarded_maxplus_checks(ast.parse(source)) == [4, 6]


@pytest.mark.parametrize("name", sorted(TREES))
def test_finiteness_is_tested_only_where_allowed(name):
    allowed = FINITENESS_TESTS.get(name, set())
    found = finiteness_tests(TREES[name])
    assert [site for site in found if site.split(":")[0] not in allowed] == []
    # an allowance that is no longer used is taken out of the list
    assert allowed <= {site.split(":")[0] for site in found}


def test_a_finiteness_test_is_reported():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from math import isnan\n"
        "ok = np.isfinite(1.0)\n"
        "def f(x):\n"
        "    def g(y):\n"
        "        return np.isnan(y).any()\n"
        "    return math.isfinite(x) and isnan(g(x)) and np.isinf(x)\n"
    )
    assert finiteness_tests(ast.parse(source)) == ["<module>:4", "g:7", "f:8", "f:8"]


@pytest.mark.parametrize("name", sorted(TREES))
def test_numbers_are_read_only_by_check_numbers(name):
    assert float_conversions(TREES[name]) == []


def test_a_float_conversion_is_reported():
    source = (
        "import numpy as np\n"
        "a = np.asarray(x, dtype=float)\n"
        "def f(x):\n"
        "    b = np.array(x, float, ndmin=2)\n"
        "    c = np.array(x, dtype=np.float64)\n"
        "    d = np.asarray(x, dtype=np.int64)\n"
        "    e = np.zeros(3, dtype=float)\n"
        "    return np.array([a, b], copy=True)\n"
    )
    assert float_conversions(ast.parse(source)) == [2, 4, 5]


FRESH_PROCESS = """
import json, sys
import numpy as np
import maxtherm.cli

out = {"cli": maxtherm.cli.main(["ifs", "--length", "4", "--out", sys.argv[1]])}
out["scipy_loaded"] = sorted({"scipy.optimize", "scipy.sparse"} & set(sys.modules))

from maxtherm import transport
from maxtherm.shift import CylinderMeasure, ShiftSpace

space = ShiftSpace(2, 0.3)
mu = CylinderMeasure(space, 3, np.arange(1.0, 9.0) / 36.0)
nu = CylinderMeasure(space, 3, np.arange(8.0, 0.0, -1.0) / 36.0)

def report(r):
    return [r.w1[0].hex(), r.duality_gap[0].hex(), r.lp_solves,
            [v.hex() for v in r.potential[0].tolist()]]

calls = []
def recorder(*args, **kwargs):
    from scipy.optimize import linprog
    calls.append(kwargs["method"])
    return linprog(*args, **kwargs)

transport.linprog = recorder
out["patched"] = report(transport.w1_lp_oracle(space, mu.masses[None], nu.masses[None]))
out["patched_calls"] = calls
del transport.linprog
out["unpatched"] = report(transport.w1_lp_oracle(space, mu.masses[None], nu.masses[None]))
import scipy.optimize
out["is_scipy"] = transport.linprog is scipy.optimize.linprog
print(json.dumps(out))
"""


def test_scipy_loads_on_the_first_lp_call_and_a_patch_is_called(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", FRESH_PROCESS, str(tmp_path / "r.json")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    out = json.loads(run.stdout.splitlines()[-1])
    space = ShiftSpace(2, 0.3)
    mu = CylinderMeasure(space, 3, np.arange(1.0, 9.0) / 36.0)
    nu = CylinderMeasure(space, 3, np.arange(8.0, 0.0, -1.0) / 36.0)
    r = w1_lp_oracle(space, mu.masses[None], nu.masses[None])
    here = [r.w1[0].hex(), r.duality_gap[0].hex(), r.lp_solves,
            [v.hex() for v in r.potential[0].tolist()]]
    assert out["cli"] == 0
    assert out["scipy_loaded"] == []
    assert out["patched_calls"] == ["highs-ds"]
    assert out["is_scipy"]
    assert out["patched"] == out["unpatched"] == here
