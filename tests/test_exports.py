import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import paleyfq
from util import run_child

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_exported_name_resolves():
    # a name left in __all__ after its object was removed fails here, not
    # at a user's `from paleyfq import *`
    missing = [name for name in paleyfq.__all__ if getattr(paleyfq, name, None) is None]
    assert missing == []
    assert len(set(paleyfq.__all__)) == len(paleyfq.__all__)


R7 = paleyfq.make_ring(paleyfq.RingSpec.field(7))
BELOW_2 = (0, 1, -2)


@pytest.mark.parametrize("call", [
    lambda: paleyfq.cohen_bound(13, 0),
    lambda: paleyfq.greedy_difference_free(R7, 3, 0),
    lambda: paleyfq.greedy_difference_free(R7, -1, 2),
    lambda: paleyfq.capacity_bounds(R7, 3, 0),
    lambda: paleyfq.bounds_report(23, 3, 6, budget_s=-1),
    lambda: paleyfq.pigeonhole_upper(0, 5, 2),
    lambda: paleyfq.pigeonhole_upper(6, 5, 2),
    lambda: paleyfq.pigeonhole_upper(2, -3, 2),
    lambda: paleyfq.pigeonhole_upper(2, 0, 2),
    lambda: paleyfq.greedy_lower_bound(3, 5, 0),
    lambda: paleyfq.greedy_lower_bound(3, 5, 1),
    lambda: paleyfq.greedy_lower_bound(6, 5, 2),
    lambda: paleyfq.greedy_lower_bound(3, 0, 2),
    lambda: paleyfq.polys.enumeration_size(R7, -1),
    lambda: list(paleyfq.enumerate_polynomials(R7, -1)),
    *(lambda k=k: paleyfq.is_kth_power(R7, 3, k) for k in BELOW_2),
    *(lambda k=k: paleyfq.non_kth_power(R7, k) for k in BELOW_2),
], ids=["cohen-k0", "greedy-k0", "greedy-n-1", "capacity-max_n0", "bounds-budget-1",
        "pigeonhole-q0", "pigeonhole-q6", "pigeonhole-n-3", "pigeonhole-n0",
        "greedy_lower-k0", "greedy_lower-k1", "greedy_lower-q6", "greedy_lower-n0",
        "enumeration_size-n-1", "enumerate-n-1",
        *(f"is_kth_power-k{k}" for k in BELOW_2),
        *(f"non_kth_power-k{k}" for k in BELOW_2)])
def test_public_entry_points_refuse_invalid_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_pigeonhole_refuses_q1_before_any_work():
    # q = 1 looped forever dividing k by q; a regression times the child out
    code = """
from paleyfq import greedy_lower_bound, pigeonhole_upper
for bound in (pigeonhole_upper, greedy_lower_bound):
    try:
        bound(1, 5, 2)
    except ValueError:
        print(bound.__name__)
"""
    proc = run_child(code, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pigeonhole_upper", "greedy_lower_bound"]


def test_readme_library_quick_start_runs(capsys):
    # the two Python blocks under "Library quick start", run in order in
    # one namespace, print and build what their comments say
    text = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    text = text.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), scope)
    size, theta = capsys.readouterr().out.split()
    assert size == "10" and theta.startswith("3.3176672")
    assert scope["A"].size == 24010
    assert paleyfq.verify_no_F_difference(scope["A"])


def load_perfbench(name):
    """A perfbench module, loaded from its file without running anything."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    """The object a dotted name reaches: the longest importable module
    prefix, then attributes; None where a link is missing."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


BOUNDARIES = {f"{mod}.{attr}": resolve(f"{mod}.{attr}")
              for mod, attr, _ in load_perfbench("spans").BOUNDARIES}
FIRES = sorted({name for slots in load_perfbench("workloads").WORKLOADS.values()
                for slot in slots for name in slot.fires})


def test_perfbench_boundaries_resolve():
    # the trace wraps these; a renamed or moved one fails here rather than
    # only under perfbench/run.py --trace 1
    missing = [name for name, obj in BOUNDARIES.items() if not callable(obj)]
    assert missing == []


@pytest.mark.parametrize("name", FIRES)
def test_perfbench_fires_names_bind_a_boundary(name):
    # the trace installs a wrapper on every binding of a boundary object,
    # so each name a slot must see fire has to be one
    assert any(resolve(name) is obj for obj in BOUNDARIES.values())


def test_readme_cap_names_resolve():
    # a cap removed from the code but still named in the README fails
    # here, and so does a cap in the code that the README never names;
    # `solver.SOLVER_VERTEX_CAP` names its module, a bare name may live in
    # any paleyfq module
    cap = r"[A-Z][A-Z0-9_]*_CAP"
    names = set(re.findall(rf"`((?:\w+\.)*{cap})`", (ROOT / "README.md").read_text()))
    modules = [importlib.import_module(f"paleyfq.{m.name}")
               for m in pkgutil.iter_modules(paleyfq.__path__)]

    def found(name):
        if "." in name:
            return resolve(f"paleyfq.{name}") is not None
        return any(hasattr(m, name) for m in modules)

    assert names
    assert sorted(n for n in names if not found(n)) == []
    defined = {name for m in modules for name in vars(m) if re.fullmatch(cap, name)}
    named = {n.rsplit(".", 1)[-1] for n in names}
    assert sorted(defined - named) == []


def test_readme_names_every_solver_stats_key():
    # a counter max_independent_set writes into stats must be documented
    # in the README, backticked, like the caps above
    from paleyfq.graphs import build_paley, strong_power
    from paleyfq.rings import RingSpec, make_ring
    from paleyfq.solver import max_independent_set

    stats = {}
    max_independent_set(strong_power(build_paley(make_ring(RingSpec.field(5)), 2), 2),
                        stats=stats)
    readme = (ROOT / "README.md").read_text()
    assert stats
    assert sorted(k for k in stats if f"`{k}`" not in readme) == []


def test_test_oracles_import_no_private_paleyfq_name():
    # the reference oracles in tests/util.py check the library, so they
    # must not share its internals: a `_`-prefixed import fails here
    tree = ast.parse((ROOT / "tests" / "util.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paleyfq")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "paleyfq").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # a name left imported after the code that used it moved away fails
    # here; a name counts as used where it is read, or listed in __all__
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    assert sorted(imported - used) == []


def test_no_assert_statement_in_src():
    # python -O strips assert statements, so an invariant checked by one
    # would go unchecked there; src raises InvariantViolation instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "paleyfq").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_third_party_test_import_is_declared():
    # a module imported under tests/, at module level or inside a
    # function, that is neither stdlib, the package itself nor a tests/
    # module must be a dependency or in the test extra of pyproject.toml,
    # so that installing '.[test]' is enough to run the suite
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    tests = sorted((ROOT / "tests").glob("*.py"))
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {project["name"]} | {path.stem for path in tests}
    assert sorted(imported - set(sys.stdlib_module_names) - local - declared) == []
