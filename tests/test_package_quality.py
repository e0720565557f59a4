"""Package-level quality gates: documentation and API hygiene."""

import importlib
import pkgutil

import pytest

import repro


def _walk_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


MODULES = _walk_modules()


def test_every_module_importable_and_documented():
    undocumented = []
    for name in MODULES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            undocumented.append(name)
    assert not undocumented, "modules without docstrings: %s" % undocumented


def test_all_exports_resolve():
    for name in MODULES:
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", ()):
            assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)


def test_public_classes_documented():
    undocumented = []
    for name in MODULES:
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", ()):
            obj = getattr(module, symbol)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append("%s.%s" % (name, symbol))
    assert not undocumented, undocumented


def test_public_callables_documented_in_obs_and_evaluation():
    """Every public callable the observability and evaluation layers
    export must carry a docstring — these are the surfaces docs/
    observability.md teaches from."""
    import inspect

    undocumented = []
    for name in MODULES:
        if not (
            name.startswith("repro.obs") or name.startswith("repro.evaluation")
        ):
            continue
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            exported = [n for n in dir(module) if not n.startswith("_")]
        for symbol in exported:
            obj = getattr(module, symbol)
            if not callable(obj):
                continue
            if getattr(obj, "__module__", None) not in (None, name):
                continue  # re-export; documented at its home
            if not (getattr(obj, "__doc__", "") or "").strip():
                undocumented.append("%s.%s" % (name, symbol))
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if not callable(member) and not isinstance(
                        member, property
                    ):
                        continue
                    doc = getattr(member, "__doc__", "")
                    if not (doc or "").strip():
                        undocumented.append(
                            "%s.%s.%s" % (name, symbol, attr)
                        )
    assert not undocumented, (
        "public callables without docstrings: %s" % undocumented
    )


def test_key_entry_points_documented():
    """The entry points the docs walk through must stay documented."""
    from repro.evaluation.parallel import supervised_map
    from repro.fuzz.campaign import fuzz_campaign
    from repro.partition.strategies import run_allocation
    from repro.sim import make_simulator

    for obj in (make_simulator, supervised_map, fuzz_campaign, run_allocation):
        assert (obj.__doc__ or "").strip(), obj


def test_version_string():
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_no_module_shadows_stdlib():
    stdlib = {"types", "enum", "math", "statistics", "encodings"}
    leaf_names = {name.rsplit(".", 1)[-1] for name in MODULES}
    # `types` and `statistics` exist as leaves but under the repro
    # namespace only; they must not be importable bare from src layout.
    import types as stdlib_types

    assert not stdlib_types.__file__.startswith("src")


def test_quickstart_doctest_runs():
    import doctest

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0


def test_profile_step_lives_in_the_runner():
    """``needs_profile`` is read only where the Pr step is decided: its
    definition, :func:`repro.evaluation.runner.compile_workload` (with
    ``evaluate_workload``'s reuse of its baseline run) and the fuzz
    oracle, which checks the compiler independently.  A new hand copy
    of the profile step anywhere else fails here."""
    import os

    root = os.path.dirname(repro.__file__)
    readers = set()
    for directory, _subdirs, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                if "needs_profile" in handle.read():
                    readers.add(os.path.relpath(path, root).replace(os.sep, "/"))
    assert readers == {
        "partition/strategies.py",
        "evaluation/runner.py",
        "fuzz/oracle.py",
    }
