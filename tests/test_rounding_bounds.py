"""Property and mutation tests of the early exits that prune round_best.

condition_number and operator_norm skip the eigensolve where the Rayleigh
quotients at round_best's probe vectors, moved by a margin eta, exceed the
value to beat.  At half that margin, passing the exact value as the one to
beat must still get the eigensolve, for singular and near-singular draws
too.  Widening eta only adds eigensolves, so it changes no output; and at
n = 92 the probes must settle most trials without one.
"""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from approxhad import linalg, rounding  # noqa: E402
from approxhad.flatten import flat_orthogonal  # noqa: E402
from approxhad.linalg import SignMatrix, condition_number, operator_norm  # noqa: E402
from approxhad.rounding import RoundingPlan, round_best, round_once  # noqa: E402


@functools.cache
def plan_at(n, seed=0):
    return RoundingPlan(target=flat_orthogonal(n)[0], trials=64, master_seed=seed)


def assert_bounds_hold(plan, signs, monkeypatch):
    """Neither early exit, at half the margin, skips a trial whose exact
    value equals the value to beat."""
    monkeypatch.setattr(linalg, "ETA_PER_N2_LMAX", linalg.ETA_PER_N2_LMAX / 2)
    _, _, v_e, v_max, w_min = rounding._probes(plan, signs.astype(np.int8))
    for t, x in enumerate(signs):
        report = condition_number(SignMatrix(x))
        err = operator_norm(x - plan.scaled)
        assert condition_number(SignMatrix(x), (v_max[t], w_min[t]), above=report.kappa) == report, \
            (plan.n, t, report)
        assert operator_norm(x - plan.scaled, v_e[t], above=err) == err, (plan.n, t, err)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(n=st.sampled_from([1, 2, 3, 7, 12, 22]), data=st.data())
def test_bounds_hold_for_any_sign_matrix(n, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    x = np.where(np.array(bits).reshape(n, n), 1, -1)
    if n > 1 and data.draw(st.booleans()):  # an exactly singular X
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        x[j] = x[i] * data.draw(st.sampled_from([1, -1]))
    with pytest.MonkeyPatch.context() as mp:
        assert_bounds_hold(plan_at(n), x[None], mp)


@pytest.mark.parametrize("n", [46, 92])
def test_bounds_hold_for_drawn_trials(n, monkeypatch):
    # seed 0 at n = 92 draws trials with lambda_min(X^T X) near 0; a copied
    # row makes one of them exactly singular
    plan = plan_at(n)
    signs = np.stack([SignMatrix(round_once(plan, t)).entries for t in range(plan.trials)])
    singular = signs[0].copy()
    singular[1] = -singular[0]
    assert math.isinf(condition_number(SignMatrix(singular)).kappa)
    assert_bounds_hold(plan, np.concatenate([signs, singular[None]]), monkeypatch)


@pytest.mark.parametrize("n, seed", [(22, 0), (46, 5), (92, 2**64 - 1)])
def test_wider_margin_changes_no_output(n, seed, monkeypatch):
    plan = plan_at(n, seed)
    expected = round_best(plan)
    monkeypatch.setattr(linalg, "ETA_PER_N2_LMAX", 2 * linalg.ETA_PER_N2_LMAX)
    result = round_best(plan)
    assert result.best_trial == expected.best_trial
    assert result.report == expected.report
    assert np.array_equal(result.matrix.entries, expected.matrix.entries)
    assert result.empirical_error_norm.hex() == expected.empirical_error_norm.hex()


@pytest.mark.parametrize("n, most", [(92, 15), (16, 1), (70, 6), (116, 14)])
def test_most_trials_skip_the_eigensolve(n, most, monkeypatch):
    # at n = 16 (k = 0) all 64 draws are one matrix: it is evaluated once.
    # The caps at n = 70 and 116 are twice the larger of the two counts
    # measured when they were set (3 and 7), so a probe that stops pruning
    # fails.
    solves = {"condition_number": 0, "operator_norm": 0}
    inside = []

    def counted(name):
        original = getattr(rounding, name)

        def call(*args, **kwargs):
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        return call

    def solving(original):
        def solve(a):
            solves[inside[-1]] += 1
            return original(a)
        return solve

    for name in solves:
        monkeypatch.setattr(rounding, name, counted(name))
    # the one eigensolve kernel of condition_number and operator_norm
    monkeypatch.setattr(linalg, "gram_eigvalsh", solving(linalg.gram_eigvalsh))
    round_best(plan_at(n))
    assert 1 <= solves["condition_number"] <= most, solves
    assert 1 <= solves["operator_norm"] <= most, solves


def test_only_a_singular_trial_keeps_its_start_block():
    # one exactly singular draw among eight: its squared Gram has no LU, and
    # the others must still be moved by the solve
    plan = RoundingPlan(target=flat_orthogonal(3)[0], trials=64, master_seed=1)
    draws = [SignMatrix(round_once(plan, t)) for t in range(plan.trials)]
    singular = [x.entries for x in draws if math.isinf(condition_number(x).kappa)]
    regular = [x.entries for x in draws if math.isfinite(condition_number(x).kappa)]
    signs = np.stack(regular[:3] + singular[:1] + regular[3:7]).astype(np.int8)
    v_e = rounding._probes(plan, signs)[2]
    b = np.empty((len(signs), 3, 2))
    b[..., 0] = v_e
    b[..., 1] = np.cos(2.0 * np.arange(1, 4))
    w = rounding._solve(rounding._squared_gram(signs), b)
    kept = [np.array_equal(w[t], b[t]) for t in range(len(signs))]
    assert kept == [t == 3 for t in range(len(signs))]
