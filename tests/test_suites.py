import pytest

from projgeo.errors import ZeroVector
from projgeo.suites import run_suite

REGISTRY = [
    "projective.scalar_invariance",
    "projective.functoriality",
    "projective.inverse_law",
    "projective.atlas_cover",
    "projective.missing_locus",
    "projective.transitivity",
    "grassmann.graph_roundtrip",
    "grassmann.group_action",
    "grassmann.transitivity",
    "grassmann.complement_involution",
    "grassmann.annihilator_involution",
    "grassmann.projective_consistency",
    "hopf-manifold.canonical_window",
    "hopf-manifold.class_equality",
    "hopf-manifold.projection_factorizes",
    "hopf-manifold.equivariance",
    "hopf-manifold.trace_invariance",
    "fibration.real_double_cover",
    "fibration.circle_fiber",
    "fibration.disjointness",
    "fibration.sphere_chart",
    "fibration.mobius_agreement",
    "fibration.linking_unit",
]


def test_registry_order_and_trial_counts():
    results = run_suite("all", 5, 0)
    assert [r.name for r in results] == REGISTRY
    assert [r.total for r in results] == [5] * 22 + [3]  # linking_unit runs at most 3
    assert all(r.passed == r.total for r in results)
    assert run_suite("fibration", 2, 0)[-1] == ("fibration.linking_unit", 2, 2)


def test_error_in_a_trial_keeps_its_type_and_names_the_trial():
    # at scale 1e8 the norm spread v * a**k, k in -6..6, puts some norms below eps
    with pytest.raises(ZeroVector, match=r"^hopf-manifold\.canonical_window, trial 0: "):
        run_suite("hopf-manifold", 1, 0, lam=1e8)
