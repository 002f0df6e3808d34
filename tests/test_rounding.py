import math
from fractions import Fraction

import numpy as np
import pytest

from approxhad import linalg, rounding
from approxhad.constructions import paley_i
from approxhad.flatten import OrthMatrix, flat_orthogonal
from approxhad.linalg import SignMatrix, condition_number, operator_norm
from approxhad.rounding import (
    BernsteinCertificate,
    RoundingPlan,
    _kappa_from_error,
    round_best,
    round_once,
)


class TestBernsteinBound:
    def test_hadamard_order_16(self):
        cert = BernsteinCertificate(16, 0.25)
        # variance term vanishes exactly at Hadamard flatness
        assert cert.e_n == pytest.approx((2 / 3) * math.log(32))
        assert cert.e_n == pytest.approx(2.31049, abs=1e-5)

    def test_infinite_when_error_dominates(self):
        cert = BernsteinCertificate(4, 0.9)
        assert cert.u * cert.e_n >= 1
        assert math.isinf(cert.kappa_bound)
        assert math.isinf(cert.kappa_bound_doubled)

    def test_n96_hadamard_flatness(self):
        # 1/u^2 only hits 96 up to float noise, so allow ~1e-6 on e_n
        cert = BernsteinCertificate(96, 1 / math.sqrt(96))
        assert cert.e_n == pytest.approx((2 / 3) * math.log(192), abs=1e-5)
        assert cert.e_n == pytest.approx(3.50500, abs=1e-4)
        assert cert.u * cert.e_n == pytest.approx(0.3577, abs=1e-4)
        assert cert.kappa_bound == pytest.approx(2.114, abs=2e-3)

    def test_clamps_v_at_zero(self):
        cert = BernsteinCertificate(9, 0.2)  # 1/u^2 = 25 > 9
        assert cert.e_n == pytest.approx((2 / 3) * math.log(18))

    def test_bounds_follow_from_n_and_u(self):
        # a certificate once stored e_n and both kappa bounds beside n and u
        with pytest.raises(TypeError):
            BernsteinCertificate(n=16, u=0.25, e_n=0.0, kappa_bound=1.0, kappa_bound_doubled=1.0)
        cert = BernsteinCertificate(n=16, u=0.25)
        assert cert.kappa_bound == _kappa_from_error(0.25, cert.e_n)
        assert cert.kappa_bound_doubled == _kappa_from_error(0.25, 2 * cert.e_n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_refuses_an_order_below_1(self, n):
        with pytest.raises(ValueError, match="^order must be >= 1$"):
            BernsteinCertificate(n, 0.5)

    def test_monotone_in_u(self):
        n = 64
        us = np.linspace(1 / math.sqrt(n), 0.3, 40)
        bounds = [BernsteinCertificate(n, float(u)).kappa_bound for u in us]
        finite = [b for b in bounds if math.isfinite(b)]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(finite, finite[1:]))


class TestWeylSandwich:
    def test_single_flip_sandwich(self):
        H = paley_i(11)
        flipped = H.entries.copy()
        flipped[3, 7] = -flipped[3, 7]
        X = SignMatrix(flipped)
        M = H.entries / math.sqrt(12)
        u = float(np.abs(M).max())
        err = operator_norm(X.entries - M / u)
        rep = condition_number(X)
        # Weyl: every singular value of X lies within ||X - M/u||_op of 1/u
        assert 1.0 / u - err - 1e-9 <= rep.sigma_min
        assert rep.sigma_max <= 1.0 / u + err + 1e-9
        assert rep.kappa <= _kappa_from_error(u, err) + 1e-9


class TestRoundOnce:
    def test_deterministic_entries_pass_through(self):
        orth, _ = flat_orthogonal(4)  # scaled Hadamard: +-u entries
        plan = RoundingPlan(target=orth, trials=1, master_seed=123)
        X = SignMatrix(round_once(plan, 0))
        assert np.array_equal(X.entries, np.sign(orth.entries).astype(np.int64))

    def test_deterministic_given_seed_and_trial(self):
        orth, _ = flat_orthogonal(11)
        plan = RoundingPlan(target=orth, trials=4, master_seed=7)
        a = SignMatrix(round_once(plan, 2))
        b = SignMatrix(round_once(plan, 2))
        assert np.array_equal(a.entries, b.entries)
        c = SignMatrix(round_once(plan, 3))
        assert not np.array_equal(a.entries, c.entries)

    def test_zero_entry_mean(self):
        # a zero scaled entry rounds to +-1 with empirical mean near 0
        orth = OrthMatrix.from_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        plan = RoundingPlan(target=orth, trials=1, master_seed=0)
        vals = [SignMatrix(round_once(plan, t)).entries[0, 0] for t in range(4000)]
        assert abs(np.mean(vals)) < 0.05

    def test_unbiasedness_8x8(self):
        orth, _ = flat_orthogonal(8)
        # make a target with genuinely interior probabilities
        orth11, _ = flat_orthogonal(11)
        sub = orth11.entries[:8, :8]
        q, r = np.linalg.qr(sub)
        target = OrthMatrix.from_array(q)
        plan = RoundingPlan(target=target, trials=1, master_seed=99)
        scaled = plan.scaled
        T = 10**4
        acc = np.zeros((8, 8))
        for t in range(T):
            acc += SignMatrix(round_once(plan, t)).entries
        mean = acc / T
        assert np.abs(mean - scaled).max() <= 4 / math.sqrt(T)


def edge_probabilities():
    """0, 1, the two probabilities next to them, 1/2, and the float
    neighbours on both sides of k 2^-53 for small and large k."""
    ps = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0]
    for k in (1, 2, 3, 5, 2**26 + 1, 2**52 - 1, 2**52, 2**52 + 1, 3**33, 2**53 - 1):
        x = k * 2.0**-53
        ps += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 2.0))]
    return [p for p in ps if p <= 1.0]


class TestThresholdDraw:
    """round_once compares a draw's top 53 bits k with the integer threshold
    T = ceil(p 2^53), which must decide exactly as the uniform k 2^-53 < p."""

    def test_thresholds_are_exact_ceilings(self):
        plan = RoundingPlan(target=flat_orthogonal(46)[0], trials=1, master_seed=0)
        want = [math.ceil(Fraction(p) * 2**53) for p in plan.plus_probability.ravel().tolist()]
        assert plan.thresholds.dtype == np.uint64
        assert plan.thresholds.ravel().tolist() == want

    def test_edge_draws_match_the_float_test(self, monkeypatch):
        probs, raws = [], []
        for p in edge_probabilities():
            t = math.ceil(Fraction(p) * 2**53)
            for top in sorted({max(t - 1, 0), min(t, 2**53 - 1)}):
                for low in (0, 2**11 - 1):
                    probs.append(p)
                    raws.append(top << 11 | low)
        n = math.isqrt(len(raws) - 1) + 1
        raws += [0] * (n * n - len(raws))
        probs += [0.5] * (n * n - len(probs))
        raw = np.array(raws, dtype=np.uint64)

        class CraftedPhilox:
            def __init__(self, key):
                pass

            def random_raw(self, k):
                return raw[:k].copy()

        plan = RoundingPlan(target=flat_orthogonal(n)[0], trials=1, master_seed=0)
        plan.__dict__["plus_probability"] = np.array(probs).reshape(n, n)
        monkeypatch.setattr(np.random, "Philox", CraftedPhilox)
        uniforms = (raw >> np.uint64(11)) * 2.0**-53
        want = np.where(uniforms < np.array(probs), 1, -1).reshape(n, n)
        assert np.array_equal(SignMatrix(round_once(plan, 0)).entries, want)
        assert {1, -1} <= set(want.ravel().tolist())  # the draws reach both outcomes


class TestExactProducts:
    """_probes forms (X^T X)^2 in float32 while n^3 <= 2^24 and in float64
    above; either way it must equal the int64 product, so the LU that
    follows sees the matrix it saw before the float32 products."""

    @pytest.mark.parametrize("n", [256, 257])
    def test_squared_gram_matches_int64(self, n):
        rng = np.random.default_rng(n)
        x = np.ones((3, n, n), dtype=np.int8)
        x[1:] = np.where(rng.random((2, n, n)) < 0.5, 1, -1)
        g = np.einsum("tki,tkj->tij", x.astype(np.int64), x.astype(np.int64))
        want = np.einsum("tik,tkj->tij", g, g)
        got = rounding._squared_gram(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert got[0, 0, 0] == n**3  # all +1: every entry is n^3, 2^24 at n = 256


class TestPowerNormalization:
    """_power normalizes after every 4th step; its bound keeps every column
    finite in float32 up to n = 10^4."""

    @pytest.mark.parametrize("n, steps, signs", [
        (256, rounding._E_STEPS, False),
        (256, rounding._E_STEPS, True),
        (10 ** 4, 8, False),
    ])
    def test_columns_stay_finite_and_unit(self, n, steps, signs):
        # all +2 is rank one with ||E||_op = ||E||_F = 2n, the growth the bound
        # allows; as a stride-0 view, n = 10^4 takes no n x n memory
        if signs:
            e = np.where(np.random.default_rng(n).random((1, n, n)) < 0.5, 2, -2)
            e = e.astype(np.float32)
        else:
            e = np.broadcast_to(np.float32(2), (1, n, n))
        v = rounding._power(e, np.ones((1, n, 1), np.float32), steps)
        assert np.isfinite(v).all()
        assert rounding._sq_norms(v)[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_zero_matrix_gives_nan(self):
        plan = RoundingPlan(target=flat_orthogonal(16)[0], trials=1, master_seed=0)  # k = 0
        e = (round_once(plan, 0) - plan.scaled.astype(np.float32))[None]
        assert not e.any()
        with np.errstate(invalid="ignore"):
            v = rounding._power(e, np.ones((1, 16, 1), np.float32), rounding._E_STEPS)
        assert np.isnan(v).all()


class TestRoundBest:
    def test_hadamard_target_always_exact(self):
        orth, _ = flat_orthogonal(16)
        plan = RoundingPlan(target=orth, trials=5, master_seed=1)
        result = round_best(plan)
        assert result.report.kappa == pytest.approx(1.0, abs=1e-12)
        assert result.best_trial == 0  # all trials identical; tie-break
        assert result.empirical_error_norm == pytest.approx(0.0, abs=1e-12)

    def test_needs_a_trial(self):
        plan = RoundingPlan(target=OrthMatrix.from_array(np.eye(2)), trials=0, master_seed=0)
        with pytest.raises(ValueError, match="need at least one trial"):
            round_best(plan)

    def test_n3_flat_permutation(self):
        orth, _ = flat_orthogonal(3)
        plan = RoundingPlan(target=orth, trials=64, master_seed=0)
        result = round_best(plan)
        assert math.isfinite(result.report.kappa)
        assert result.report.kappa >= 2.0 - 1e-9  # kappa(3) = 2 is optimal

    def test_weyl_sandwich_every_trial(self):
        orth, _ = flat_orthogonal(12)
        plan = RoundingPlan(target=orth, trials=16, master_seed=5)
        u = orth.max_abs_entry
        scaled = plan.scaled
        for t in range(plan.trials):
            X = SignMatrix(round_once(plan, t))
            err = operator_norm(X.entries - scaled)
            sv = np.linalg.svd(X.entries.astype(float), compute_uv=False)
            assert sv[-1] >= 1 / u - err - 1e-9
            assert sv[0] <= 1 / u + err + 1e-9

    def test_deterministic_across_workers(self):
        orth, _ = flat_orthogonal(20)
        plan = RoundingPlan(target=orth, trials=12, master_seed=3)
        r1 = round_best(plan, workers=1)
        r8 = round_best(plan, workers=8)
        assert np.array_equal(r1.matrix.entries, r8.matrix.entries)
        assert r1.best_trial == r8.best_trial
        assert r1.empirical_error_norm == r8.empirical_error_norm

    def test_only_the_winner_becomes_a_sign_matrix(self, monkeypatch):
        # the draws stay int8 arrays; one SignMatrix, of the winning trial, is built
        made = []

        def counted(entries):
            made.append(1)
            return SignMatrix(entries)

        monkeypatch.setattr(rounding, "SignMatrix", counted)
        result = round_best(RoundingPlan(target=flat_orthogonal(46)[0], trials=64, master_seed=0))
        assert len(made) == 1
        assert isinstance(result.matrix, SignMatrix)

    def test_certificate_attached(self):
        orth, cert = flat_orthogonal(92)
        plan = RoundingPlan(target=orth, trials=8, master_seed=0)
        result = round_best(plan)
        b = result.certificate
        assert b.n == 92
        assert b.u == orth.max_abs_entry
        # desk-scale: the kappa bound is infinite here, but the Markov event
        # ||E|| <= 2 e_n holds with huge margin
        assert result.empirical_error_norm <= 2 * b.e_n
        assert result.report.kappa <= b.kappa_bound_doubled


def every_trial(plan):
    """The reference: exact kappa, ||E|| and matrix of every trial."""
    rows = []
    for t in range(plan.trials):
        X = SignMatrix(round_once(plan, t))
        rows.append((condition_number(X), operator_norm(X.entries - plan.scaled), X))
    return rows


def brute_force(rows):
    """The reference reduction over rows: the least (kappa, t), and the least ||E||."""
    best = min(range(len(rows)), key=lambda t: (rows[t][0].kappa, t))
    return best, rows[best][0], rows[best][2], min(err for _, err, _ in rows)


REFERENCE_ORDERS = (3, 12, 16, 22, 46, 70, 92, 116, 126, 127)
REFERENCE_SEEDS = (0, 5, 2**64 - 1)


def assert_matches_reference(result, reference):
    best, report, matrix, err = reference
    assert result.best_trial == best
    assert result.report == report
    assert result.matrix.entries.tobytes() == matrix.entries.tobytes()
    assert result.empirical_error_norm.hex() == err.hex()


class TestPrunedReduction:
    """round_best evaluates few trials exactly; its result must be the one
    that evaluating every trial gives, bit for bit."""

    @pytest.mark.parametrize("i", range(len(REFERENCE_ORDERS)))
    def test_matches_every_trial_evaluated(self, i):
        # each order gets one seed and one worker count for its 64-trial
        # run, so every seed and worker count meets small and large orders
        n, seed, workers = REFERENCE_ORDERS[i], REFERENCE_SEEDS[i % 3], 1 + i % 2
        orth, _ = flat_orthogonal(n)
        rows = every_trial(RoundingPlan(target=orth, trials=64, master_seed=seed))
        for trials in (1, 2, 7, 64):
            plan = RoundingPlan(target=orth, trials=trials, master_seed=seed)
            result = round_best(plan, workers=workers if trials == 64 else 1)
            # trial t draws from stream (seed, t) alone, so a prefix of rows
            assert_matches_reference(result, brute_force(rows[:trials]))
            if n == 16:  # k = 0: every draw is the same matrix, so trial 0 wins
                assert result.best_trial == 0

    def test_singular_draws_at_n3(self):
        orth, _ = flat_orthogonal(3)
        plan = RoundingPlan(target=orth, trials=64, master_seed=1)
        kappas = [condition_number(SignMatrix(round_once(plan, t))).kappa for t in range(64)]
        assert any(math.isinf(k) for k in kappas) and any(math.isfinite(k) for k in kappas)
        assert_matches_reference(round_best(plan), brute_force(every_trial(plan)))

    def test_nan_probes_mean_evaluate_exactly(self, monkeypatch):
        # with no usable probe, every distinct draw gets both eigensolves
        def no_probes(plan, signs):
            nan = np.full((len(signs), plan.n), np.nan)
            return (np.full(len(signs), -np.inf),) * 2 + (nan,) * 3

        solves = []
        gram_eigvalsh = linalg.gram_eigvalsh
        monkeypatch.setattr(rounding, "_probes", no_probes)
        # the one eigensolve kernel of condition_number and operator_norm
        monkeypatch.setattr(linalg, "gram_eigvalsh", lambda a: solves.append(1) or gram_eigvalsh(a))
        orth, _ = flat_orthogonal(22)
        plan = RoundingPlan(target=orth, trials=7, master_seed=5)
        result = round_best(plan)
        assert len(solves) == 2 * 7
        assert_matches_reference(result, brute_force(every_trial(plan)))
