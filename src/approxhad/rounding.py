"""Randomized rounding of flat orthogonal matrices into +-1 matrices.

Each entry of the rescaled target M/||M||_max lies in [-1, 1] and is
rounded to +-1 independently, with probabilities chosen so the expectation
is the target itself.  The matrix Bernstein inequality bounds the expected
operator norm of the rounding error, which converts into a condition
number certificate through Weyl's inequality.

RNG contract: trial t of a plan with master seed s draws its n*n uniforms
from a Philox4x64 stream keyed by (s, t), consumed in row-major entry
order.  This is deterministic across runs, machines, and worker counts,
and it never changes silently.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flatten import OrthMatrix
from .linalg import SignMatrix, condition_number, operator_norm, philox, SpectralReport

__all__ = [
    "RoundingPlan",
    "BernsteinCertificate",
    "bernstein_bound",
    "round_once",
    "round_best",
]


@dataclass(frozen=True)
class RoundingPlan:
    target: OrthMatrix
    trials: int
    master_seed: int

    @cached_property
    def scaled(self) -> np.ndarray:
        """Expectation matrix M/||M||_max, entries in [-1, 1]; computed once."""
        return self.target.entries / self.target.max_abs_entry

    @property
    def n(self) -> int:
        return self.target.n


@dataclass(frozen=True)
class BernsteinCertificate:
    """Expected-error bound e_n and the kappa bounds it implies.

    e_n = sqrt(2 (n - 1/u^2) ln(2n)) + (2/3) ln(2n), natural logarithm.
    kappa_bound uses e_n (an in-expectation statement); kappa_bound_doubled
    uses 2 e_n, which a single trial beats with probability >= 1/2.
    Either bound is inf once u * e exceeds 1.
    """

    n: int
    u: float
    e_n: float
    kappa_bound: float
    kappa_bound_doubled: float


def _kappa_from_error(u: float, e: float) -> float:
    return (1.0 + u * e) / (1.0 - u * e) if u * e < 1.0 else math.inf


def bernstein_bound(n: int, u: float) -> BernsteinCertificate:
    """Bernstein certificate for rounding an order-n target of flatness u."""
    if n < 1:
        raise ValueError("order must be >= 1")
    v = max(float(n) - 1.0 / (u * u), 0.0)
    log2n = math.log(2 * n)
    e_n = math.sqrt(2.0 * v * log2n) + (2.0 / 3.0) * log2n
    return BernsteinCertificate(
        n=n,
        u=u,
        e_n=e_n,
        kappa_bound=_kappa_from_error(u, e_n),
        kappa_bound_doubled=_kappa_from_error(u, 2.0 * e_n),
    )


def round_once(plan: RoundingPlan, trial_index: int) -> SignMatrix:
    """One rounding draw: entry (i, j) is +1 with probability (1 + scaled_ij)/2."""
    n = plan.n
    uniforms = philox(plan.master_seed, trial_index).random((n, n))
    return SignMatrix(np.where(uniforms < (1.0 + plan.scaled) / 2.0, 1, -1))


@dataclass(frozen=True)
class RoundingResult:
    matrix: SignMatrix
    report: SpectralReport
    certificate: BernsteinCertificate
    empirical_error_norm: float  # min over trials of ||X - EX||_op
    best_trial: int


def _run_trial(plan: RoundingPlan, t: int):
    X = round_once(plan, t)
    return X, condition_number(X), operator_norm(X.entries - plan.scaled)


def round_best(plan: RoundingPlan, workers: int = 1) -> RoundingResult:
    """Best-of-trials rounding: minimize kappa, break ties on trial index.

    Trials are independent streams; the reduction is deterministic no
    matter how many workers execute them.
    """
    if plan.trials < 1:
        raise ValueError("need at least one trial")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: _run_trial(plan, t), range(plan.trials)))
    else:
        results = [_run_trial(plan, t) for t in range(plan.trials)]
    best_t = min(range(plan.trials), key=lambda t: (results[t][1].kappa, t))
    min_err = min(err for _, _, err in results)
    cert = bernstein_bound(plan.n, plan.target.max_abs_entry)
    X, rep, _ = results[best_t]
    return RoundingResult(
        matrix=X,
        report=rep,
        certificate=cert,
        empirical_error_norm=min_err,
        best_trial=best_t,
    )
