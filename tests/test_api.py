"""The public API is pinned: adding or removing a public name is a
deliberate change that edits this list."""

import types

import costly_secretary
from costly_secretary import asymptotics, equilibrium, oracle, simulator

PUBLIC = [
    "__version__",
    "AggregateStats",
    "AsymptoticReport",
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
    "equilibrium_accept_probs",
    "estimate",
    "exact_expected_tau",
    "exact_state_value",
    "exact_success_probability",
    "expected_stopping_time",
    "full_learning_audit",
    "full_learning_counterexample",
    "gamma",
    "gauss_product_check",
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
