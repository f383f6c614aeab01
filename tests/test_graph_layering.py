"""The graph layer sits below the engines.

:mod:`repro.graphs` owns the CSR format (:mod:`repro.graphs.csr`), so no
module under ``src/repro/graphs/`` may import an engine, the batch runner
or the result types -- not at the top, not inside a function.  The
engines import ``GraphArrays`` from the graph layer, and the historical
``repro.sim.fast_engine.GraphArrays`` name must stay the same class.

One layer up, the vectorized engines build only ``ArrayRunResult``: the
legacy ``RunResult``/``NodeStats`` view is made at the dispatch edge
(``run_planned_trial`` calls ``.to_run_result()``), so neither engine
module imports those types.
"""

import ast
from pathlib import Path

import repro

#: Modules of the engine layer the graph layer must never import.
ENGINE_MODULES = (
    "fast_engine", "fast_phased", "phase_loop", "batch", "array_result",
)

REPRO_DIR = Path(repro.__file__).parent
GRAPHS_DIR = REPRO_DIR / "graphs"
SIM_DIR = REPRO_DIR / "sim"


def _imported_modules(path):
    """Every module an ``import``/``from ... import`` in ``path`` names,
    as a dotted path relative to the ``repro`` package, plus the imported
    names of ``from`` imports (``from ..sim import batch``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = ["repro", *path.parent.relative_to(REPRO_DIR).parts]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append(module)
            found.extend(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_graph_layer_imports_no_engine_module():
    offenders = []
    for path in sorted(GRAPHS_DIR.glob("*.py")):
        for module in _imported_modules(path):
            parts = module.split(".")
            if "sim" in parts and any(m in parts for m in ENGINE_MODULES):
                offenders.append(f"{path.name}: {module}")
    assert not offenders, offenders


def test_relative_imports_resolve_against_the_package():
    """The parser resolves ``..sim.fast_engine`` as the engine module, so
    the check above cannot pass by misreading a relative import."""
    here = _imported_modules(GRAPHS_DIR / "arrays.py")
    assert "repro.sim.rng" in here and "repro.graphs.csr" in here


def test_engine_name_is_the_graph_layer_class():
    import repro.graphs.csr
    import repro.sim.fast_engine

    assert repro.sim.fast_engine.GraphArrays is repro.graphs.csr.GraphArrays
    assert repro.graphs.csr.GraphArrays.__module__ == "repro.graphs.csr"


def test_engines_import_no_legacy_result_type():
    """A second result build in an engine would need these types back."""
    offenders = [
        f"{name}: {module}"
        for name in ("fast_engine.py", "fast_phased.py", "phase_loop.py")
        for module in _imported_modules(SIM_DIR / name)
        if module.rsplit(".", 1)[-1] in ("RunResult", "NodeStats")
    ]
    assert not offenders, offenders


def test_engines_share_the_phase_loop_without_a_cycle():
    """Both engines import the phase loop; it imports neither engine, and
    the sleeping engine does not import the phased one."""
    def imports(name, other):
        return any(
            other in module.split(".")
            for module in _imported_modules(SIM_DIR / f"{name}.py")
        )

    assert imports("fast_engine", "phase_loop")
    assert imports("fast_phased", "phase_loop")
    assert not imports("phase_loop", "fast_engine")
    assert not imports("phase_loop", "fast_phased")
    assert not imports("fast_engine", "fast_phased")
