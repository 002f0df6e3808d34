"""Randomized rounding of flat orthogonal matrices into +-1 matrices.

Each entry of the rescaled target M/||M||_max lies in [-1, 1] and is
rounded to +-1 independently, with probabilities chosen so the expectation
is the target itself.  The matrix Bernstein inequality bounds the expected
operator norm of the rounding error, which converts into a condition
number certificate through Weyl's inequality.

RNG contract: trial t of a plan with master seed s reads its n*n draws,
in row-major entry order, from `linalg.Draws(s, t).bits53`.  This is
deterministic across runs, machines, and worker counts.  The draw is made
on integers: the uniform k 2^-53 of a draw's top 53 bits k is below p
exactly when k < ceil(p 2^53), since scaling by 2^53 is exact, so the
plan keeps those thresholds, and `round_once` returns the signs as an
int8 array with no float uniforms.

Best of trials: `round_best` reports the trial of least kappa (ties to
the lower index) and the least ||X - EX||_op over all trials, but only
the trials that can decide them get an exact eigensolve.  Every trial is
drawn as above and gets probe vectors from a few power steps and one
solve against the squared Gram (X^T X)^2, which is two steps of inverse
iteration in one LU.  That solve starts from two vectors, E's power-step
vector and cos(2i) for i = 1..n, and of the two it returns, the one with
the lower Rayleigh quotient on X^T X is the lambda_min probe.  The power
steps and those quotients run in float32, on E and on one float32 copy
of X; the power steps normalize only after every 4th step, which
`_power` bounds.  The Grams are formed from that copy while
n^3 <= 2^24, and in float64 above: their partial sums are integers of
magnitude at most n^3, so the LU, in float64, sees the exact (X^T X)^2
either way.  The trial is then passed to `condition_number` and
`operator_norm` with the best exact value so far: these bound the value
from below by Rayleigh quotients at the probes, formed in float64 from
the +-1 matrix, which hold for any vector, lowered by a margin eta
covering float rounding and the eigensolver's error, and return without
an eigensolve when the bound exceeds the best value, so the trial can
neither win nor tie.  Trials are visited in ascending order of the
quotients' estimate, so that the best values come early.  A trial whose
draw repeats an earlier trial's matrix is skipped.  So the reported
trial, kappa, error norm and matrix are bit for bit those of evaluating
every trial, and only the winner becomes a `SignMatrix`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flatten import OrthMatrix
from .linalg import Draws, SignMatrix, SpectralReport, condition_number, operator_norm

__all__ = [
    "RoundingPlan",
    "BernsteinCertificate",
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

    @cached_property
    def plus_probability(self) -> np.ndarray:
        """(1 + scaled)/2, the chance that each entry rounds to +1; computed once."""
        return (1.0 + self.scaled) / 2.0

    @cached_property
    def thresholds(self) -> np.ndarray:
        """ceil(plus_probability 2^53) as uint64, the draw's integer
        thresholds (see the RNG contract above); computed once."""
        return np.ceil(self.plus_probability * 2.0 ** 53).astype(np.uint64)

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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be >= 1")

    @property
    def e_n(self) -> float:
        v = max(float(self.n) - 1.0 / (self.u * self.u), 0.0)
        log2n = math.log(2 * self.n)
        return math.sqrt(2.0 * v * log2n) + (2.0 / 3.0) * log2n

    @property
    def kappa_bound(self) -> float:
        return _kappa_from_error(self.u, self.e_n)

    @property
    def kappa_bound_doubled(self) -> float:
        return _kappa_from_error(self.u, 2.0 * self.e_n)


def _kappa_from_error(u: float, e: float) -> float:
    return (1.0 + u * e) / (1.0 - u * e) if u * e < 1.0 else math.inf


def round_once(plan: RoundingPlan, trial_index: int) -> np.ndarray:
    """One rounding draw, as an n x n int8 array of +-1: entry (i, j) is +1
    with probability (1 + scaled_ij)/2.

    It is +1 when draw i n + j of Draws(master_seed, trial_index).bits53
    lies below the plan's integer threshold.  `SignMatrix(...)` of it gives
    the checked int64 matrix."""
    n = plan.n
    plus = Draws(plan.master_seed, trial_index).bits53(n * n).reshape(n, n) < plan.thresholds
    return plus.view(np.int8) * np.int8(2) - np.int8(1)


@dataclass(frozen=True)
class RoundingResult:
    matrix: SignMatrix
    report: SpectralReport
    certificate: BernsteinCertificate
    empirical_error_norm: float  # min over trials of ||X - EX||_op
    best_trial: int


# Trials whose probes are formed together: one (_BLOCK, n, n) stack
# per array, so memory does not grow with the trial count.
_BLOCK = 8
# `_power` normalizes after every _NORM_EVERY-th step; both step counts
# are multiples of it, so the last step is normalized too
_NORM_EVERY = 4
_E_STEPS = 24  # power steps towards the top right singular vector of E
_GRAM_STEPS = 4  # power steps on X^T X, started from E's vector


def _sq_norms(v: np.ndarray) -> np.ndarray:
    return (v * v).sum(axis=-2)


def _rayleigh(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||a v||^2 / ||v||^2 for each matrix of a stack and each column of v."""
    return _sq_norms(a @ v) / _sq_norms(v)


def _power(a: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """`steps` power steps on a^T a from the columns of v, returned as unit
    columns; a column that vanishes or underflows comes back NaN.

    Each column is divided by its largest |entry| only after every 4th step
    (`steps` is a multiple of 4), then scaled to unit length.  From a column
    with entries in [-1, 1], as the start columns have too, 4 steps and
    every partial sum on the way stay below sqrt(n) max(1, ||a||_F^2)^4.
    For an n x n matrix with |a_ij| <= 2, as E and X are, that is at most
    sqrt(n) (4 n^2)^4 < 2^128, so the columns stay finite in float32 for
    n <= 10^4.  Beyond that a column may overflow and come back NaN, and a
    NaN probe sends its trial to the exact eigensolve."""
    at = a.swapaxes(-1, -2)
    for step in range(1, steps + 1):
        v = at @ (a @ v)
        if step % _NORM_EVERY == 0:
            v = v / np.abs(v).max(axis=-2, keepdims=True)
    return v / np.sqrt(_sq_norms(v))[..., None, :]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for each trial of a stack, and b itself where a is exactly
    singular: that trial's block then stays as it started, which makes its
    quotient looser, never wrong."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return b
        return np.concatenate([_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _squared_gram(x: np.ndarray) -> np.ndarray:
    """(X^T X)^2 for each trial of a +-1 stack (a float32 one is used as
    is), as float64 and exact: every partial sum of both products is an
    integer of magnitude at most n^3, so they are formed in float32 while
    n^3 <= 2^24, else in float64."""
    n = x.shape[-1]
    f = x.astype(np.float32 if n ** 3 <= 2 ** 24 else np.float64, copy=False)
    g = f.swapaxes(-1, -2) @ f
    del f  # a float64 copy is freed once used, which keeps the peak down
    g = g @ g
    return g.astype(np.float64, copy=False)


def _probes(plan: RoundingPlan, x8: np.ndarray):
    """Probe vectors for a stack of drawn trials (int8 entries), one row
    per trial, as float64: towards the top right singular vector of E, of
    X, and the bottom one of X.  `operator_norm` and `condition_number`
    take their early-exit quotients at them, which bound the spectrum
    whatever the vectors; the iterations here only make the bounds tight,
    so the power steps and the quotients that choose and order run in
    float32, and only the LU in float64.  A row is NaN where no vector
    could be formed.

    Returned flat as (e_order, kappa_order, v_e, v_max, w_min): first the
    estimates of ||E||_op^2 and kappa^2 that those quotients give, as
    visiting orders (-inf where there is none, which visits first), then
    the three probe vectors."""
    n = plan.n
    x = x8.astype(np.float32)
    e = x - plan.scaled.astype(np.float32)
    with np.errstate(all="ignore"):
        v = _power(e, np.ones((len(x), n, 1), np.float32), _E_STEPS)
        e_order = _rayleigh(e, v)
        del e  # freed before the Gram stacks exist, which keeps the peak down
        v_max = _power(x, v, _GRAM_STEPS)
        # two steps of inverse iteration on X^T X in one LU per trial, from
        # E's vector and from cos(2i); the lower quotient picks w_min
        b = np.empty((len(x), n, 2))
        b[..., :1] = np.where(np.isfinite(v), v, 1.0)
        b[..., 1] = np.cos(2.0 * np.arange(1, n + 1))
        w = _solve(_squared_gram(x), b)
        w = w / np.sqrt(_sq_norms(w))[..., None, :]
        bad = ~np.isfinite(w).all(axis=(-2, -1))
        w[bad] = b[bad]
        low = _rayleigh(x, w.astype(np.float32))
        w_min = np.take_along_axis(w, low.argmin(axis=-1)[:, None, None], axis=-1)
        orders = (e_order, _rayleigh(x, v_max) / low.min(axis=-1, keepdims=True))
    return (*(np.where(np.isnan(o[:, 0]), -np.inf, o[:, 0]) for o in orders),
            *(p[..., 0].astype(np.float64, copy=False) for p in (v, v_max, w_min)))


def round_best(plan: RoundingPlan, workers: int = 1) -> RoundingResult:
    """Best-of-trials rounding: minimize kappa, break ties on trial index,
    and report the least ||X - EX||_op over all trials.

    Every trial is drawn by `round_once` and gets its `_probes`, _BLOCK
    trials at a time (on `workers` threads).  Trials are then visited in
    the probes' estimated order, each passing the best kappa and error
    norm so far to `condition_number` and `operator_norm` as the value to
    beat: where the probe quotients show that a trial cannot reach it,
    they return without an eigensolve.  A trial whose matrix repeats an
    earlier one ties it with a larger index and is skipped.  So the result
    is the one every trial's exact evaluation would give.
    """
    if plan.trials < 1:
        raise ValueError("need at least one trial")

    def block(b0: int):
        signs = np.stack([round_once(plan, t) for t in range(b0, min(b0 + _BLOCK, plan.trials))])
        return (signs, *_probes(plan, signs))

    starts = range(0, plan.trials, _BLOCK)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block, starts))
    else:
        blocks = [block(b0) for b0 in starts]
    x8, e_order, kappa_order, v_e, v_max, w_min = (np.concatenate(c) for c in zip(*blocks))
    # a repeated draw ties an earlier trial in both values, with a larger index
    first: dict[bytes, int] = {}
    for t, x in enumerate(x8):
        first.setdefault(x.tobytes(), t)
    distinct = first.values()

    best = None
    for t in sorted(distinct, key=lambda t: (kappa_order[t], t)):
        report = condition_number(x8[t], (v_max[t], w_min[t]),
                                  above=best[0].kappa if best else math.inf)
        if report is not None and (best is None or (report.kappa, t) < (best[0].kappa, best[1])):
            best = (report, t)
    min_err = math.inf
    for t in sorted(distinct, key=lambda t: e_order[t]):
        min_err = min(min_err, operator_norm(x8[t] - plan.scaled, v_e[t], above=min_err))
    report, best_t = best
    return RoundingResult(
        matrix=SignMatrix(x8[best_t]),
        report=report,
        certificate=BernsteinCertificate(plan.n, plan.target.max_abs_entry),
        empirical_error_norm=min_err,
        best_trial=best_t,
    )
