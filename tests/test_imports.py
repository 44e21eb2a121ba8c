"""Imports: no unused names, layered modules, no scipy behind any command,
no numpy.random at start-up.

The toolchain ships no linter, so this walks each module's syntax tree: a
name bound by an import must appear as a name somewhere in the module. The
package ``__init__.py`` re-exports nothing, so it is walked like the rest,
and every name is imported from the module that defines it. Importing a
module loads only the layers it builds on (``LAYERS``), from the RNG
streams up to the harness and the command line. The package depends on
numpy alone; scipy's import would be most of a command's start-up time,
and numpy.random's is about 10 ms of it, so the RNG streams import it on
their first draw.
"""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_unused_and_used_imports():
    source = "import os\nimport numpy.linalg\nfrom json import dumps as d, loads\nloads(numpy.linalg)\n"
    assert unused_imports(source) == ["d", "os"]


def _unused_imports_under(*tops) -> dict:
    """Each module under the ``tops`` folders of the repository with the
    names it imports and never uses."""
    found = {}
    for top in tops:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        unused = unused_imports(fh.read())
                    if unused:
                        found[os.path.relpath(path, ROOT)] = unused
    return found


def test_no_unused_imports_in_src_or_tests():
    assert _unused_imports_under("src", "tests") == {}


def test_no_unused_imports_in_demos():
    # perfbench/ is left out: run.py imports trflab.cli only to load it.
    assert _unused_imports_under("demos") == {}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


_SAMPLER = {"core", "denoiser", "schedule", "sampler"}
_ALL = _SAMPLER | {"trf", "worlds", "train", "metrics", "harness", "cli"}

#: The trflab modules that ``import trflab.<key>`` loads, the package aside.
LAYERS = {
    "core": {"core"},
    "schedule": {"schedule"},
    "denoiser": {"core", "denoiser"},
    "worlds": {"core", "denoiser", "worlds"},
    "train": {"core", "denoiser", "train"},
    "metrics": {"core", "metrics"},
    "sampler": _SAMPLER,
    "trf": _SAMPLER | {"trf"},
    "harness": _ALL - {"cli"},
    "cli": _ALL,
}


def test_each_module_loads_only_the_layers_beneath_it():
    script = ("import importlib, sys\n"
              "importlib.import_module('trflab.' + sys.argv[1])\n"
              "print(*(m.removeprefix('trflab.') for m in sys.modules if m.startswith('trflab.')))\n")
    loaded = {}
    for name in LAYERS:
        proc = subprocess.run([sys.executable, "-c", script, name], env=_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(proc.stdout.split())
    assert loaded == LAYERS


def test_importing_the_cli_imports_no_numpy_random():
    script = "import sys, trflab.cli\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_a_trf_command_imports_no_scipy(tmp_path):
    config = tmp_path / "gp.json"
    config.write_text(json.dumps({
        "world": {"kind": "gp", "a": 0.5, "q": 0.3, "dim": 1, "n_frames": 4},
        "schedule": {"n_steps": 5}, "conditions": {"start": [1.0], "end": [0.5]},
    }))
    script = (
        "import sys, trflab.cli\n"
        f"rc = trflab.cli.main(['trf', '--config', {str(config)!r}, '--out', {str(tmp_path / 'run')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
