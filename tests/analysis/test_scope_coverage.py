"""Concurrency code stays inside the DEADLINE/LOCK scope.

The DEADLINE family checks exactly the modules that
``scopes.is_concurrency_module`` names. A module that starts using
sockets, threads or processes — a worker loop moved to a new file, say —
would silently fall out of that coverage; this guard fails instead,
until the scope list names the module.
"""

import ast
from pathlib import Path

from repro.analysis.scopes import is_concurrency_module

SRC = Path(__file__).resolve().parents[2] / "src"

#: Top-level modules whose import marks a module as concurrency code.
CONCURRENCY_IMPORTS = {"socket", "threading", "multiprocessing"}


def concurrency_imports(path: Path) -> set[str]:
    """The :data:`CONCURRENCY_IMPORTS` a module imports, at any depth
    (function-local imports included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found |= {name.split(".")[0] for name in names} & CONCURRENCY_IMPORTS
    return found


def concurrency_users() -> dict[str, set[str]]:
    users = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        mods = concurrency_imports(path)
        if mods:
            users[path.relative_to(SRC).as_posix()] = mods
    return users


def test_every_concurrency_module_is_in_scope():
    out_of_scope = {
        module: sorted(mods)
        for module, mods in concurrency_users().items()
        if not is_concurrency_module(module)
    }
    assert out_of_scope == {}, (
        "modules using sockets/threads/processes must be listed in "
        f"repro.analysis.scopes._CONCURRENCY: {out_of_scope}"
    )


def test_guard_finds_the_known_concurrency_modules():
    # Guards the guard: an import scan that found nothing would pass the
    # scope check vacuously.
    assert {
        "repro/distributed/backends/mp.py",
        "repro/distributed/backends/tcp.py",
        "repro/distributed/health.py",
        "repro/serve/service.py",
    } <= set(concurrency_users())
