"""The scalar parity oracles live apart from the production modules.

Production code has one path per class: nothing under ``repro.core``,
``repro.engine`` or ``repro.serving`` takes a mode switch, and none of
the production packages (nor the CLI, outside its ``--scalar`` and
``--reference`` branches) imports :mod:`repro.reference`.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import repro

PRODUCTION_PACKAGES = ("repro.core", "repro.engine", "repro.serving")


def test_production_imports_never_load_the_oracles():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro, repro.core, repro.engine, repro.serving, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.reference')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


def _production_modules():
    for package_name in PRODUCTION_PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.walk_packages(
            package.__path__, prefix=f"{package_name}."
        ):
            yield importlib.import_module(info.name)


def _public_callables():
    """Every public function, class and class method defined in the
    production packages, keyed by qualified name."""
    found = {}
    for module in _production_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != (
                module.__name__
            ):
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{name}"] = obj
            elif inspect.isclass(obj):
                found[f"{module.__name__}.{name}"] = obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")
                    ):
                        found[f"{module.__name__}.{name}.{attr}"] = member
    return found


def test_no_public_callable_takes_vectorized():
    found = _public_callables()
    # The seven signatures that used to carry the option are in scope.
    for name in (
        "repro.engine.executor.ShardedExecutor.__init__",
        "repro.serving.server.LookupServer.__init__",
        "repro.serving.mp.MultiProcessServer.__init__",
        "repro.engine.harness.run_experiment",
        "repro.engine.harness.compare_strategies",
        "repro.core.fast.RecShardFastSharder.__init__",
        "repro.core.multitier.MultiTierSharder.__init__",
    ):
        assert name in found
    offenders = []
    for name, obj in sorted(found.items()):
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "vectorized" in params:
            offenders.append(name)
    assert offenders == []
