"""Every package name that the benchmark harness reads still exists.

`perfbench/run.py` wraps package functions by dotted name, and
`perfbench/workloads.py` imports from the package; a name deleted or
renamed here makes every benchmark run fail or read 0. Both files are
parsed, not imported, so the harness is neither run nor edited. Each
`Target("sesame.<module>", "<path>", ...)` must resolve, and so must
every `from sesame.<module> import <name>` and every attribute read off
a module imported as `from sesame import <module>`.

`perfbench/workloads.py` also repeats the trace generator's phase split,
to count ticks and Markov steps; it is loaded from its source, writing
no bytecode, and checked against the generator.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import sesame.scenarios as scn
from sesame import tracesim

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS = (BENCH / "run.py", BENCH / "workloads.py")

# deleted from the package with its stage; the tracer reports it absent
EXPECTED_ABSENT = {"sesame.tracesim:observe_predictors"}


def _constant_bindings(tree: ast.AST) -> dict[int, list[str]]:
    """For each comprehension over a tuple of strings, the strings its
    loop name takes, keyed by the id of each use of that name."""
    out = {}
    for comp in ast.walk(tree):
        if not isinstance(comp, (ast.ListComp, ast.GeneratorExp)):
            continue
        for gen in comp.generators:
            if (isinstance(gen.target, ast.Name)
                    and isinstance(gen.iter, ast.Tuple)
                    and all(isinstance(e, ast.Constant)
                            for e in gen.iter.elts)):
                values = [e.value for e in gen.iter.elts]
                for use in ast.walk(comp.elt):
                    if isinstance(use, ast.Name) and use.id == gen.target.id:
                        out[id(use)] = values
    return out


def harness_references() -> set[str]:
    """"module:attribute.path" of every package name the harness reads."""
    refs = set()
    for path in HARNESS:
        tree = ast.parse(path.read_text(), str(path))
        bound = _constant_bindings(tree)
        modules = {}                 # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "sesame"):
                for alias in node.names:
                    refs.add(f"{node.module}:{alias.name}")
                    if node.module == "sesame":
                        modules[alias.asname or alias.name] = (
                            f"sesame.{alias.name}")
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "Target"):
                module, attr = node.args[:2]
                if not module.value.startswith("sesame"):
                    continue
                attrs = (bound[id(attr)] if isinstance(attr, ast.Name)
                         else [attr.value])
                refs |= {f"{module.value}:{a}" for a in attrs}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs.add(f"{modules[node.value.id]}:{node.attr}")
    return refs


def resolves(ref: str) -> bool:
    module, _, path = ref.partition(":")
    obj = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
                continue
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_harness_reads_only_names_the_package_has():
    refs = harness_references()
    # the parse found the tracer's table and the workloads' imports
    assert {"sesame.constructor:EnergyModel.predict_rows",
            "sesame.experiments:run_scenario",
            "sesame.battery:rms_relative_error",
            "sesame.scenarios:builtin"} <= refs
    missing = sorted(ref for ref in refs if not resolves(ref))
    assert missing == sorted(EXPECTED_ABSENT)


def test_workloads_count_the_ticks_and_draws_of_gen_trace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    draws = []
    for walk in ("_two_state_runs", "_exit_walk_runs"):
        original = getattr(tracesim, walk)
        monkeypatch.setattr(tracesim, walk, lambda cum, u, initial, f=original:
                            (draws.append(len(u)), f(cum, u, initial))[1])
    for name in sorted(scn.BUILTIN_SCENARIOS):
        sc = scn.builtin(name)
        draws.clear()
        trace = tracesim.gen_trace(sc.system, sc.workload, sc.duration_s,
                                   sc.tick_s, sc.seed)
        assert workloads.n_ticks(sc) == len(trace), name
        assert workloads.markov_steps(sc) == sum(draws), name
