import numpy as np
import pytest

from projgeo.errors import ZeroVector
from projgeo.numerics import Tolerance
from projgeo.suites import SUITES, _clear_powers, run_suite

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


def test_error_in_a_trial_keeps_its_type_and_names_the_trial(monkeypatch):
    def trial(rng, i, tol, lam):
        raise ZeroVector("cannot project the zero vector")

    monkeypatch.setitem(SUITES, "hopf-manifold", [("canonical_window", trial)])
    with pytest.raises(ZeroVector, match=r"^hopf-manifold\.canonical_window, trial 0: "):
        run_suite("hopf-manifold", 1, 0)


@pytest.mark.parametrize("lam,eps", [(1e8, 1e-9), (1e8j, 1e-9), (2.0, 1e-3), (3.0, 1e-4)])
def test_hopf_manifold_draws_stay_clear_of_eps(lam, eps):
    # each of these once drew a scaled vector below eps and raised ZeroVector
    results = run_suite("hopf-manifold", 100, 0, Tolerance(eps_abs=eps), lam)
    assert [r.total for r in results] == [100] * 5


def test_clear_powers_keeps_the_default_range():
    v = np.full(3, 1e-3 / np.sqrt(3.0))  # the smallest norm rand_nonzero_vector returns
    assert _clear_powers(v, 2.0, Tolerance(), -6, 13) == (-6, 6)
    assert _clear_powers(v, 2.0, Tolerance(), -5, 11) == (-5, 5)
    lo, hi = _clear_powers(v, 1e8, Tolerance(), -6, 13)
    assert np.linalg.norm(v) * 1e8 ** lo > 2e-9 and (lo, hi) == (0, 12)
