"""Public-API integrity: every exported name must resolve, be real,
and be reached by something other than the tests."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Trees whose code counts as a product path for the reach scan.
PRODUCT_TREES = ("src", "benchmarks", "perfbench", "examples")

#: Public top-level names kept although no product path reaches them.
UNREACHED_ALLOWLIST = {
    "decrypt_price": "test oracle: the tests read encrypted tokens back with it",
    "count_url_params": "library API for URLs from outside the simulator",
    "read_observations_csv": "library API that validates an outside CSV",
    "read_weblog_chunks": "bounded-memory reader for logs too large to hold",
    "enable_profiling": "in-process twin of REPRO_OBS_PROFILE, documented in DESIGN.md",
    "PAPER_FP_RATE": "paper §5.4 figure; its siblings are read by benchmarks",
    "PAPER_RECALL": "paper §5.4 figure; its siblings are read by benchmarks",
}

PACKAGES = (
    "repro",
    "repro.util",
    "repro.stats",
    "repro.ml",
    "repro.rtb",
    "repro.trace",
    "repro.analyzer",
    "repro.core",
)


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicApi:
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} is exported but missing"

    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_exports_documented(self, package):
        """Every exported class/function carries a docstring."""
        import typing

        module = importlib.import_module(package)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if typing.get_origin(obj) is not None:  # type aliases
                continue
            if callable(obj) and not isinstance(obj, (int, float, str, tuple, dict)):
                if not (getattr(obj, "__doc__", None) or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"undocumented exports in {package}: {undocumented}"


def test_package_version():
    import repro

    assert repro.__version__ == "1.0.0"


@pytest.mark.tier1
def test_runtime_imports_leave_scipy_out():
    """The runtime needs only numpy: importing the package, the CLI and the
    service must load no scipy module (``scipy.stats`` alone is ~70 MB RSS).
    Run in a fresh interpreter, since this test process may have loaded
    scipy for its oracles."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, repro, repro.cli, repro.serve\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(src: Path) -> dict[str, str]:
    """``{name: "file:line"}`` for every public top-level def, class and
    module-level assignment, and every public method of a top-level
    class (keyed ``Class.method``)."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src.parent)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        found[target.id] = f"{where}:{node.lineno}"
                continue
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                        found[f"{node.name}.{member.name}"] = f"{where}:{member.lineno}"
    return found


def _all_entries(tree: ast.Module) -> set[int]:
    """Ids of the nodes inside a module-level ``__all__`` assignment."""
    skipped = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skipped.update(id(inner) for inner in ast.walk(node))
    return skipped


def _references(roots) -> Counter:
    """Name uses across ``roots``, not counting definitions, package
    ``__init__`` imports and ``__all__`` entries.  A string counts as a
    use of the name or dotted path it spells: ``"merge"`` (``getattr``
    by name) uses ``merge``, ``"Dsp.respond"`` (as the perfbench shims
    patch by name) uses ``Dsp.respond``, and a span name such as
    ``"analyzer.merge"`` uses only ``analyzer.merge``."""
    uses: Counter = Counter()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            is_init = path.name == "__init__.py"
            tree = ast.parse(path.read_text())
            skipped = _all_entries(tree)
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif is_init:
                    continue
                elif isinstance(node, ast.alias):
                    uses[node.name.rsplit(".", 1)[-1]] += 1
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if all(part.isidentifier() for part in node.value.split(".")):
                        uses[node.value] += 1
    return uses


def _reached(name: str, uses: Counter) -> bool:
    """A definition is reached when its key is used (a dotted string
    names ``Class.method`` in full) or, for a method, its bare name."""
    return bool(uses[name] or uses[name.rsplit(".", 1)[-1]])


@pytest.mark.tier1
def test_every_public_name_is_reached_outside_tests():
    """Code that only tests call is a second way to do a job; delete it,
    move it to ``tests/`` as a double or oracle, or allowlist it with a
    reason."""
    definitions = _public_definitions(REPO / "src" / "repro")
    uses = _references(REPO / tree for tree in PRODUCT_TREES)
    unreached = sorted(
        f"{where}: {name}"
        for name, where in definitions.items()
        if not _reached(name, uses) and name not in UNREACHED_ALLOWLIST
    )
    assert not unreached, "reached only from tests/:\n" + "\n".join(unreached)
    stale = sorted(
        name for name in UNREACHED_ALLOWLIST
        if name not in definitions or _reached(name, uses)
    )
    assert not stale, f"allowlisted names now gone or reached: {stale}"


@pytest.mark.tier1
def test_reach_rules_on_a_synthetic_tree(tmp_path):
    """The guard's own rules: a dotted string reaches only the dotted
    target it spells, a plain string reaches its name, and a module
    constant read only from tests is reported."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "LIMIT = 3\n\n\nclass C:\n    def merge(self):\n        pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import LIMIT\n\nassert LIMIT == 3\n"
    )
    definitions = _public_definitions(tmp_path / "src" / "pkg")
    assert set(definitions) == {"LIMIT", "C", "C.merge"}

    product = tmp_path / "product"
    product.mkdir()

    def reached_by(caller: str) -> set[str]:
        (product / "caller.py").write_text(f"from pkg.mod import C\n{caller}\n")
        uses = _references([tmp_path / "src", product])
        return {name for name in definitions if _reached(name, uses)}

    assert "C.merge" not in reached_by('span("pkg.merge")')
    assert "C.merge" in reached_by('patch("C.merge")')
    assert "C.merge" in reached_by('getattr(C(), "merge")')
    assert "LIMIT" not in reached_by("C()")
