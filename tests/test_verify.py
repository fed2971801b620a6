import pytest

from fusionlab.matrices import MalformedInputError
from fusionlab.verify import SUITE_NAMES, run_suites


def test_suite_inventory():
    assert SUITE_NAMES == (
        "unitarity",
        "haar_moments",
        "channel_invariants",
        "probability_bounds",
        "norm_identity",
        "phase_invariance",
        "determinant_identities",
        "classification_coherence",
        "threshold_bounds",
        "optimizer_determinism",
        "bosonic_equivalence",
        "graph_oracle",
    )


def test_all_suites_pass_small():
    results = run_suites(trials=40, seed=0)
    assert [r.name for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.ok, f"{r.name}: {r.note}"
        assert r.passed > 0
        assert r.failed == 0


def test_deterministic_counts():
    a = run_suites(trials=25, seed=3, names=["channel_invariants", "norm_identity"])
    b = run_suites(trials=25, seed=3, names=["channel_invariants", "norm_identity"])
    assert [(r.name, r.passed, r.failed) for r in a] == [
        (r.name, r.passed, r.failed) for r in b
    ]


def test_fault_injection_trips_only_its_suite():
    results = run_suites(trials=30, seed=0, inject_fault="sign")
    by_name = {r.name: r for r in results}
    assert not by_name["channel_invariants"].ok
    assert by_name["channel_invariants"].note  # the note names the failing check
    for name, r in by_name.items():
        if name != "channel_invariants":
            assert r.ok, f"{name} must not be affected by the injected fault"


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError, match="fault kind"):
        run_suites(trials=10, inject_fault="invariant", names=["channel_invariants"])


def test_names_filter():
    results = run_suites(trials=10, seed=1, names=["unitarity"])
    assert len(results) == 1
    assert results[0].name == "unitarity"
    assert results[0].ok


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(trials=10, names=["unitarity", "nonsense"])


def test_trials_validation():
    with pytest.raises(ValueError):
        run_suites(trials=0)
    # checked before any suite runs, and named in the error
    for field, value in [("trials", 1.5), ("trials", "5"), ("seed", 1.5), ("seed", -1)]:
        with pytest.raises(MalformedInputError, match=field):
            run_suites(**{field: value}, names=["unitarity"])
