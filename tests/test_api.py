"""The public API is pinned: adding or removing a public name is a
deliberate change that edits this list."""

import ast
import types
from pathlib import Path

import costly_secretary
from costly_secretary import asymptotics, equilibrium, oracle, simulator

PUBLIC = [
    "__version__",
    "AggregateStats",
    "AsymptoticReport",
    "ExactEvaluation",
    "GameConfig",
    "PolicySpec",
    "ScanReport",
    "StageRule",
    "StrategyProfile",
    "ValueTables",
    "VerificationError",
    "closed_form_success",
    "compute_threshold",
    "compute_threshold_sequence",
    "convergence_report",
    "estimate",
    "exact_evaluation",
    "exact_state_value",
    "exact_success_probability",
    "expected_stopping_time",
    "limit_constant",
    "optimality_scan",
    "policy_success_probability",
    "record_survival_product",
    "solve_values",
    "threshold_bounds",
]


def test_package_all_is_pinned():
    assert costly_secretary.__all__ == PUBLIC


def test_nothing_public_outside_all():
    # every public class or function a module defines is in its __all__, and
    # the package exports nothing else, so a name off the list above cannot
    # be imported from the package or its modules
    for module in (asymptotics, equilibrium, oracle, simulator):
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert defined == set(module.__all__), module.__name__
    exported = {
        name
        for name, obj in vars(costly_secretary).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == set(PUBLIC) - {"__version__"}


def test_no_module_imports_private_names_of_simulator_or_oracle():
    # the plan types, their reader and the evaluators meet through public
    # names only
    for path in sorted(Path(costly_secretary.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.rsplit(".", 1)[-1] in ("simulator", "oracle"):
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    assert not private, (path.name, node.module, private)


def test_no_module_imports_a_name_it_never_reads():
    # every name an import binds is read somewhere in its module; star
    # imports and the package's re-exports in __init__.py are exempt
    for path in sorted(Path(costly_secretary.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names if a.name != "*")
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert bound <= read, (path.name, sorted(bound - read))
