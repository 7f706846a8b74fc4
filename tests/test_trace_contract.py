"""The benchmark's layer trace wraps package functions by name.

``bench/layertrace.py`` lists the functions it traces; a change that
deletes or renames one of them breaks ``bench/run.py --trace 1``.  This
test installs the trace and removes it again, so such a change fails
here as well.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_originals(layertrace):
    """(module name, attribute path, function) of every traced entry; a
    missing name raises here."""
    out = []
    for _, module, path, _, _ in layertrace.TRACED:
        mod = importlib.import_module(f"{layertrace.PACKAGE}.{module}")
        out.append((module, path, layertrace._resolve(mod, path)))
    return out


def test_install_wraps_every_traced_name_and_uninstall_restores():
    layertrace = load_layertrace()
    originals = traced_originals(layertrace)
    tracer = layertrace.LayerTrace()
    try:
        tracer.install()
        patched = list(tracer._undo)
        for module, path, fn in originals:
            mod = importlib.import_module(f"{layertrace.PACKAGE}.{module}")
            wrapper = layertrace._resolve(mod, path)
            assert getattr(wrapper, "__wrapped__", None) is fn, f"{module}.{path}"
    finally:
        tracer.uninstall()
    assert patched
    for holder, key, original in patched:
        assert vars(holder)[key] is original, f"{holder.__name__}.{key}"
    assert traced_originals(layertrace) == originals


#: Functions that a module imported by name, so that its own calls go
#: through that module's binding.
BY_NAME = {
    "homology": ["cover_indices", "cover_matrix", "pullback_matrix", "snf_diagonal",
                 "kernel_basis", "mat_mul"],
    "cli": ["folner_ratio", "first_return_castle", "almost_finite_certificate"],
    "towers": ["folner_ratio"],
}


def test_install_wraps_by_name_imports():
    layertrace = load_layertrace()
    modules = {m: importlib.import_module(f"{layertrace.PACKAGE}.{m}") for m in BY_NAME}
    before = {(m, name): getattr(modules[m], name) for m, names in BY_NAME.items()
              for name in names}
    tracer = layertrace.LayerTrace()
    try:
        tracer.install()
        for (m, name), fn in before.items():
            assert getattr(getattr(modules[m], name), "__wrapped__", None) is fn, f"{m}.{name}"
    finally:
        tracer.uninstall()
    for (m, name), fn in before.items():
        assert getattr(modules[m], name) is fn, f"{m}.{name}"
