"""Public-API integrity: every exported name must resolve and be real."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
