"""Minimize kappa over +-1 matrices and structured subclasses.

Three search surfaces:

* exhaustive enumeration of sign-normalized matrices with ascending
  rows, one per class of row permutations (exact optimum, n <= 6);
* simulated annealing over a structure class's bit vector, deterministic
  given (class, seed, budget);
* a persistent registry of best-known matrices per (order, class).

Structure classes parameterize matrices by bit vectors: general and
symmetric matrices are sign-normalized (all-+1 first row and column),
circulant classes store first rows.  The objective orders candidates by
kappa, then by larger |det| (determinant maximizers tend to condition
well), then lexicographically.

Anneal gives each neighbour sound bounds lo <= energy <= hi on its
exact-path energy (kappa, with inf read as _SINGULAR_ENERGY) and reads a
decision -- delta <= 0, u < exp(-delta / T), or the incumbent's decline
test -- from them only when they settle it; otherwise, and for every
state that may become the incumbent, it takes the exact path (build,
exact Gram, eigvalsh).  So every decision, RNG draw, restart and reported
kappa is the one the exact path alone would give.  The eigvalsh is
`linalg.gram_eigvalsh`, which calls the LAPACK gufunc behind
`np.linalg.eigvalsh` without its Python wrapper: the same bits, a few
microseconds less on each of the thousands of small eigensolves that a
general or symmetric anneal makes.  The bounds come from
`approxhad.spectral`:

* the circulant-type classes (circulant, circulant_core,
  two_block_circulant, block_circulant) read the DFT eigenvalues of every
  single-bit neighbour, each within eta = n^2 * lambda_max * 2^-52 of what
  eigvalsh returns on the exact Gram.  One function, `kappa_bounds`, bounds
  a neighbour as it is made, and a state's floor is its lo for every bit
  (`kappa_floors`);
* general and symmetric have no DFT.  A neighbour there starts with no
  bound until the chain has rejected _FLOOR_AFTER moves in a row at its
  state; then `RitzScreen` forms a floor under every neighbour's kappa from
  one eigh of the state's Gram (Rayleigh-Ritz on its bottom and top two
  eigenvectors).

Once the chain has rejected _RUN_AFTER moves in a row at one state, anneal
proves as many moves ahead as that streak in array form: `Draws.peek` reads
their draws without consuming them, the state's floor bounds every neighbour at
once (a neighbour already made gives its own lo), and `_proven_rejections`
marks each move whose neighbour lies above the state by a margin that the
uniform clears.  The leading run of proven moves is committed in one step --
draws, temperatures, stall count -- short of the budget and of the move on
which a restart falls, and a whole run extends the streak; the first unproven
move takes the move-by-move path.  A proven move is one that path rejects from
the bounds alone, so the draws and decisions are unchanged.

Every anneal draw is read by `linalg.Draws(seed, 0)`.
"""

from __future__ import annotations

import fcntl
import functools
import itertools
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .families import circulant
from .linalg import Draws, SignMatrix, condition_number, gram_eigvalsh, gram_kappa, gram_kappas
from .matrixio import parse_sign_matrix, write_sign_matrix
from .spectral import RitzScreen, SpectralScreen, dft_phases

__all__ = [
    "StructureClass",
    "SearchRecord",
    "Registry",
    "RegistryRejection",
    "exhaustive_min",
    "anneal",
    "format_kappa",
    "DEFAULT_BUDGET",
    "SEED_PANEL",
]

DEFAULT_BUDGET = 20000
SEED_PANEL = tuple(range(16))

_KAPPA_TIE = 1e-12


def format_kappa(x: float) -> str:
    """10 significant digits, trailing zeros kept (the table convention)."""
    return f"{x:#.10g}"


@dataclass(frozen=True)
class StructureClass:
    """A bit-vector parameterization of a family of +-1 matrices."""

    kind: str
    block_size: int | None = None

    _KINDS = (
        "general",
        "symmetric",
        "circulant",
        "circulant_core",
        "two_block_circulant",
        "block_circulant",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown structure class {self.kind!r}")
        if self.kind == "block_circulant" and (self.block_size or 0) < 1:
            raise ValueError(f"block_circulant needs a block size >= 1, got {self.block_size}")

    @property
    def name(self) -> str:
        if self.kind == "block_circulant":
            return f"block_circulant{self.block_size}"
        return self.kind

    @classmethod
    def parse(cls, name: str) -> "StructureClass":
        size = re.fullmatch(r"block_circulant(-?[0-9]+)", name)
        if size:
            return cls("block_circulant", block_size=int(size[1]))
        return cls(name)

    def n_bits(self, n: int) -> int:
        return _layout(self, n)[0]

    def build(self, n: int, bits: np.ndarray) -> np.ndarray:
        """Map a 0/1 vector to the matrix it encodes (int64 entries)."""
        nbits, idx, _ = _layout(self, n)
        bits = np.asarray(bits, dtype=np.int64)
        if bits.shape != (nbits,):
            raise ValueError(
                f"expected {nbits} bits for {self.name} at n={n}, got {bits.shape}"
            )
        ext = np.empty(2 * nbits + 2, dtype=np.int64)
        ext[:nbits] = bits * 2 - 1
        ext[nbits] = 1
        np.negative(ext[:nbits + 1], out=ext[nbits + 1:])
        return ext[idx]


@functools.cache
def _layout(sclass: StructureClass, n: int) -> tuple[int, np.ndarray, SpectralScreen | RitzScreen]:
    """n_bits, the index table and the neighbour screen of a class at order n.

    Entry (i, j) of the built matrix is ext[idx[i, j]], where ext holds the
    +-1 bits, a constant +1 at index n_bits, and then the negations of
    those n_bits + 1 values, so a negated entry adds n_bits + 1 to its index.
    The circulant-type classes get the `SpectralScreen` of their DFT, and
    general and symmetric the `RitzScreen` of their bit positions.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    kind = sclass.kind
    if kind == "two_block_circulant" and n % 2:
        raise ValueError("two_block_circulant needs an even order")
    if kind == "block_circulant" and n % sclass.block_size:
        raise ValueError(f"order {n} is not a multiple of block size {sclass.block_size}")
    nbits = {"general": (n - 1) ** 2, "symmetric": (n - 1) * n // 2,
             "circulant_core": n - 1}.get(kind, n)
    idx = np.full((n, n), nbits, dtype=np.int64)
    if kind == "general":
        rows, cols = np.divmod(np.arange(nbits), n - 1)
        idx[1:, 1:] = np.arange(nbits).reshape(n - 1, n - 1)
        screen = RitzScreen(n, rows + 1, cols + 1, mirrored=False)
    elif kind == "symmetric":
        iu = np.triu_indices(n - 1)
        core = np.empty((n - 1, n - 1), dtype=np.int64)
        core[iu] = np.arange(nbits)
        core.T[iu] = core[iu]
        idx[1:, 1:] = core
        screen = RitzScreen(n, iu[0] + 1, iu[1] + 1, mirrored=True)
    elif kind == "circulant_core":
        # the border couples to the core's frequency 0, which the screen
        # takes in closed form
        idx[1:, 1:] = circulant(np.arange(n - 1))
        screen = SpectralScreen(n, dft_phases(1, n - 1)[:, 1:], core=n - 1)
    elif kind == "two_block_circulant":
        # [[R, S], [S^T, -R^T]] with R, S circulant on the two halves; the
        # Gram is I_2 (x) (R^T R + S^T S), so R and S are the two channels
        half = n // 2
        r = circulant(np.arange(half))
        s = r + half
        idx = np.block([[r, s], [s.T, r.T + nbits + 1]])
        screen = SpectralScreen(n, dft_phases(1, half), channels=2)
    else:
        # b x b circulant arrangement of s x s circulant blocks; circulant
        # is the one-block case
        s = sclass.block_size or n
        blocks = [circulant(np.arange(t * s, (t + 1) * s)) for t in range(n // s)]
        idx = np.block([[blocks[t] for t in row] for row in circulant(np.arange(n // s))])
        screen = SpectralScreen(n, dft_phases(n // s, s))
    idx.setflags(write=False)
    return nbits, idx, screen


# relative slack on a screened exp(-delta / T) against one-ulp exp rounding
_EXP_SLACK = 2.0 ** -40
# the annealing energy of a singular matrix (kappa = inf)
_SINGULAR_ENERGY = 1e18


@dataclass(frozen=True)
class SearchRecord:
    structure: str
    kappa: float
    matrix: SignMatrix
    seed: int
    effort: dict
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds"),
        compare=False)

    @property
    def n(self) -> int:
        return self.matrix.n


def _logabsdet(a: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(a.astype(np.float64))
    return logdet if sign != 0 else -math.inf


class _Best:
    """Tracks the incumbent under (kappa, -|det|, lexicographic bits).  |det|
    is formed only when a kappa ties, from a copy of the incumbent's matrix."""

    def __init__(self):
        self.kappa = math.inf
        self.bits: list[int] | None = None
        self._matrix: np.ndarray | None = None
        self._logdet: float | None = None

    def offer(self, kappa: float, bits: np.ndarray, matrix: np.ndarray) -> bool:
        logdet = None
        if self.bits is not None:
            if kappa > self.kappa + _KAPPA_TIE:
                return False
            if not kappa < self.kappa - _KAPPA_TIE:  # a tie
                if self._logdet is None:
                    self._logdet = _logabsdet(self._matrix)
                logdet = _logabsdet(matrix)
                if not (-logdet, bits.tolist()) < (-self._logdet, self.bits):
                    return False
        self.kappa, self.bits, self._logdet = kappa, bits.tolist(), logdet
        self._matrix = matrix.copy()
        return True

    def record(self, n: int, sclass: StructureClass, seed: int, effort: dict) -> SearchRecord:
        """The incumbent as a search result."""
        matrix = SignMatrix(sclass.build(n, np.array(self.bits)))
        return SearchRecord(structure=sclass.name, kappa=self.kappa, matrix=matrix,
                            seed=seed, effort=effort)


def exhaustive_min(n: int) -> SearchRecord:
    """Exact minimum kappa over all +-1 matrices of order n, 1 <= n <= 6.

    kappa is invariant under row and column sign flips, so the minimum over
    sign-normalized matrices (all-+1 first row and column) is the global
    one.  Permuting rows 1..n-1 of a normalized matrix keeps it normalized
    and keeps A^T A, hence kappa, |det| and the kappa bits; sorting those
    rows ascending gives the least bit vector of its class.  A repeated
    row, or a row equal to the all-+1 first row, makes the matrix singular.
    So only strictly ascending choices of n-1 rows from the 2^(n-1) - 1
    core rows other than all-+1 are scored: 1365 matrices at n = 5 and
    169,911 at n = 6.  They are taken in slices by first row, in
    lexicographic order.  The effort still counts the 2^((n-1)^2)
    normalized matrices that this covers.
    """
    if not 1 <= n <= 6:
        raise ValueError("exhaustive search supports 1 <= n <= 6")
    sclass = StructureClass("general")
    m = n - 1
    # row r's bits, first entry most significant, so row order is bit order
    rows = (np.arange((1 << m) - 1)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    best = _Best()
    choices = itertools.combinations(range(len(rows)), m)
    for _, group in itertools.groupby(choices, key=lambda c: c[:1]):
        core = rows[np.array(list(group), dtype=np.int64)]
        mats = np.ones((len(core), n, n), dtype=np.float64)
        mats[:, 1:, 1:] = core * 2 - 1
        bits = core.reshape(len(core), m * m)
        ev = gram_eigvalsh(mats)
        kap = gram_kappas(ev[:, 0], ev[:, -1], n)
        for i in np.flatnonzero(kap <= best.kappa + _KAPPA_TIE):
            best.offer(float(kap[i]), bits[i], mats[i])
    return best.record(n, sclass, 0, {"mode": "exhaustive", "candidates": 1 << (m * m)})


class _State:
    """A chain state and what is known of its exact-path energy: kappa,
    with inf read as _SINGULAR_ENERGY.

    lo <= energy <= hi.  A neighbour starts with the bounds its class
    gives (`anneal`'s `bound`), and kappa stays None until the exact path
    runs; then lo = hi = the energy.  mat is the matrix, as float64, once
    built (or flipped from the parent's), near holds the neighbours made
    so far, spectra the DFT screen's view of all of them, and floor, once
    the chain lingers here, a lower bound on each one's lo.
    """

    __slots__ = ("bits", "mat", "kappa", "lo", "hi", "near", "spectra", "floor")

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.mat = self.kappa = self.spectra = self.floor = None
        self.lo, self.hi = -math.inf, _SINGULAR_ENERGY
        self.near: dict[int, _State] = {}


# general and symmetric form a state's Ritz floor once the chain has
# rejected this many moves in a row there
_FLOOR_AFTER = 16
# a rejection run is tried once the chain has rejected this many moves in
# a row at one state, and covers as many moves as that streak
_RUN_AFTER = 64
# relative slack on a run's np.exp against the scalar path's slacked math.exp
_RUN_EXP_SLACK = 2.0 ** -38


def _temperatures(temperature: float, k: int) -> np.ndarray:
    """temperature, then k times multiplied by 0.995: accumulate multiplies
    in sequence, so entry j is the float that j steps of
    `temperature *= 0.995` give."""
    temps = np.full(k + 1, 0.995)
    temps[0] = temperature
    return np.multiply.accumulate(temps, out=temps)


def _proven_rejections(lo: np.ndarray, hi: float, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which moves `accepted` rejects from the bounds alone, given lower
    bounds lo on the neighbours' lo, the state's hi, the uniforms u and
    the temperatures t: lo > hi, and u at or above the scalar path's
    exp(-(lo - hi) / T) * (1 + _EXP_SLACK) + 1e-300 with room for np.exp
    rounding apart from math.exp.  Never true for u = 0."""
    with np.errstate(over="ignore"):
        bar = np.exp(-(lo - hi) / np.maximum(t, 1e-300))
    return (lo > hi) & (u >= bar * (1 + _RUN_EXP_SLACK) + 1e-300)


def anneal(
    n: int,
    sclass: StructureClass,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchRecord:
    """Simulated annealing over the class's bit vector.

    Single-bit-flip moves; the initial temperature is calibrated so about
    80% of uphill moves are accepted over a 256-move probe, decay is 0.995
    per step, and the chain restarts from a fresh random state after
    10 n^2 moves without improvement.  Deterministic given
    (n, class, seed, budget).
    """
    nbits, _, screen = _layout(sclass, n)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best = _Best()
    restarts = 0

    def settle(state: _State) -> _State:
        """The exact path: build, exact Gram, eigvalsh -- `gram_eigvalsh`,
        which calls LAPACK's gufunc without NumPy's per-call wrapper, on
        the matrix held as float64 so that no call converts it."""
        if state.kappa is None:
            if state.mat is None:
                state.mat = sclass.build(n, state.bits).astype(np.float64)
            ev = gram_eigvalsh(state.mat)
            state.kappa = gram_kappa(ev[0], ev[-1], n)
            state.lo = state.hi = min(state.kappa, _SINGULAR_ENERGY)
        return state

    # bound(state, i, hit) gives hit, neighbour i of state, its class's
    # bounds, and lows(state) a lower bound on every neighbour's energy,
    # which `floor` reads
    if isinstance(screen, RitzScreen):
        def bound(state: _State, i: int, hit: _State) -> None:
            # no bound but the state's Ritz floor, formed once the chain has
            # rejected _FLOOR_AFTER moves in a row there; before that,
            # `accepted` will settle the neighbour, so its matrix is flipped
            # from the state's, which spares settle a build
            if state.floor is None and rejected < _FLOOR_AFTER:
                hit.mat = screen.flip(settle(state).mat, i)
            else:
                hit.lo = float(floor(state)[i])

        def lows(state: _State) -> np.ndarray:
            return screen.kappa_floors(settle(state).mat)
    else:
        def spectra(state: _State):
            if state.spectra is None:
                state.spectra = screen.spectra(state.bits)
            return state.spectra

        def bound(state: _State, i: int, hit: _State) -> None:
            lo, hi = screen.kappa_bounds(spectra(state), i)
            hit.lo, hit.hi = min(lo, _SINGULAR_ENERGY), min(hi, _SINGULAR_ENERGY)

        def lows(state: _State) -> np.ndarray:
            return screen.kappa_floors(spectra(state))

    draws = Draws(seed, 0)

    def fresh_state() -> _State:
        bits = np.array([draws.integers(2) for _ in range(nbits)], dtype=np.int64)
        state = settle(_State(bits))
        best.offer(state.kappa, state.bits, state.mat)
        return state

    def neighbour(state: _State) -> tuple[int, _State]:
        """A random single-bit neighbour and its flipped bit, made once per
        visit of `state`: the chain often stays on one state for hundreds
        of proposals."""
        i = draws.integers(nbits)
        hit = state.near.get(i)
        if hit is None:
            bits = state.bits.copy()
            bits[i] ^= 1
            hit = _State(bits)
            # bound before joining near: a floor formed in bound copies the
            # lo of each neighbour in near
            bound(state, i, hit)
            state.near[i] = hit
        return i, hit

    def accepted(cand: _State, cur: _State, temperature: float) -> bool:
        """The exact path's delta <= 0 or u < exp(-delta / T), delta the
        energy difference, read from the bounds where they settle it."""
        if cand.hi <= cur.lo:
            return True
        if cand.lo <= cur.hi:
            settle(cand)
            settle(cur)
            if cand.lo <= cur.lo:
                return True
        u = draws.random()
        t = max(temperature, 1e-300)
        if cand.kappa is None or cur.kappa is None:
            # delta lies in [cand.lo - cur.hi, cand.hi - cur.lo]
            if u < math.exp(-(cand.hi - cur.lo) / t) * (1 - _EXP_SLACK):
                return True
            if u >= math.exp(-(cand.lo - cur.hi) / t) * (1 + _EXP_SLACK) + 1e-300:
                return False
            settle(cand)
            settle(cur)
        return u < math.exp(-(cand.lo - cur.lo) / t)

    def floor(cur: _State) -> np.ndarray:
        """A lower bound on the lo of each neighbour of cur, formed once:
        `lows`, capped at _SINGULAR_ENERGY, and the lo of each neighbour
        made so far."""
        if cur.floor is None:
            cur.floor = np.minimum(lows(cur), _SINGULAR_ENERGY)
            for i, hit in cur.near.items():
                cur.floor[i] = hit.lo
        return cur.floor

    def rejection_run(cur: _State, temperature: float, k: int) -> tuple[int, float]:
        """Commit the leading run of the next k moves that the bounds
        prove rejected; its length and the temperature after it.

        In such a move the scalar path draws one integer and one double,
        `accepted` returns False from the bounds, and nothing changes but
        the draws, the temperature and the stall count (the neighbour is
        not made, and `near` is only a cache).
        """
        idx, u = draws.peek(nbits, k)
        temps = _temperatures(temperature, len(idx))
        proven = _proven_rejections(floor(cur)[idx], cur.hi, u, temps[:-1])
        j = len(idx) if proven.all() else int(proven.argmin())
        draws.commit(j)
        return j, float(temps[j])

    # bound reads the rejection streak from the temperature probe on
    rejected = 0
    state = fresh_state()
    if nbits == 0:
        # order 1 with a fixed border: [[1]] is the only matrix
        return best.record(n, sclass, seed,
                           {"mode": "anneal", "budget": budget, "restarts": 0})

    uphill = []
    cur = state.kappa
    for _ in range(256):
        cand = neighbour(state)[1]
        # only an uphill move to a nonsingular state enters t0
        if cand.hi > cur and cand.lo < _SINGULAR_ENERGY:
            k = settle(cand).kappa
            if cur < k < _SINGULAR_ENERGY:
                uphill.append(k - cur)
    t0 = (sum(uphill) / len(uphill)) / -math.log(0.8) if uphill else 1.0
    temperature = t0
    stall_limit = 10 * n * n
    stall = 0

    moves = 0
    while moves < budget:
        if rejected >= _RUN_AFTER and stall < stall_limit - 1:
            # a run stops short of the budget and of the move that would
            # bring stall to stall_limit (with one bit, peek draws no move)
            k = min(max(rejected, 1), budget - moves, stall_limit - 1 - stall)
            j, temperature = rejection_run(state, temperature, k)
            moves += j
            stall += j
            if j == k:
                rejected += k
                continue
            # the run was cut; wait for another _RUN_AFTER rejections
            rejected = 0
        moves += 1
        i, cand = neighbour(state)
        if accepted(cand, state, temperature):
            state = cand
            rejected = 0
            # an offer above the incumbent plus the tie tolerance is declined
            if cand.lo > best.kappa + _KAPPA_TIE:
                improved = False
            else:
                settle(cand)
                improved = best.offer(cand.kappa, cand.bits, cand.mat)
        else:
            # every state is offered when the chain enters it, and offering
            # an unchanged state again against an unchanged incumbent is
            # declined, so the offer is skipped
            improved = False
            rejected += 1
            if state.floor is not None:
                # accepted may have settled the neighbour since the floor
                state.floor[i] = cand.lo
        stall = 0 if improved else stall + 1
        temperature *= 0.995
        if stall >= stall_limit:
            state = fresh_state()
            temperature = t0
            stall = 0
            restarts += 1
            rejected = 0

    return best.record(n, sclass, seed,
                       {"mode": "anneal", "budget": budget, "restarts": restarts})


# --- registry --------------------------------------------------------------


class RegistryRejection(ValueError):
    pass


class Registry:
    """Best-known matrices per (n, class), one directory per order.

    Files are named <class>-<kappa-10digits>-<seed>.mat in the +-/ text
    format next to an index.json holding the current best per class and
    an append-only history.  Writes hold an flock on a lock file, so
    concurrent searchers serialize their commits and a killed writer
    blocks no one, and index.json is replaced atomically.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _dir(self, n: int) -> Path:
        return self.root / str(n)

    def _index(self, n: int) -> dict:
        path = self._dir(n) / "index.json"
        if path.exists():
            return json.loads(path.read_text())
        return {"best": {}, "history": []}

    def best(self, n: int, structure: str | None = None) -> dict | None:
        entries = self._index(n)["best"]
        if structure is not None:
            return entries.get(structure)
        return min(entries.values(), key=lambda e: e["kappa"], default=None)

    def load_matrix(self, n: int, entry: dict) -> SignMatrix:
        a = parse_sign_matrix((self._dir(n) / entry["file"]).read_text())
        if a.n != n:  # a hand-edited or foreign registry can misfile one
            raise RegistryRejection(f"registry file {n}/{entry['file']} has order {a.n}, not {n}")
        return a

    def orders(self) -> list[int]:
        if not self.root.exists():
            return []
        return sorted(int(p.name) for p in self.root.iterdir() if p.name.isdigit())

    def update(self, record: SearchRecord) -> bool:
        """Persist the record iff it strictly improves its (n, class) slot.

        The record's kappa is recomputed from the matrix first, by the one
        rule search also uses, and anything but the same float is rejected.
        A singular matrix (kappa = inf, which JSON cannot hold) is declined
        before anything is written.
        """
        recomputed = condition_number(record.matrix).kappa
        if recomputed != record.kappa:
            raise RegistryRejection(
                f"stored kappa {record.kappa!r} does not match recomputed "
                f"{recomputed!r}"
            )
        if not math.isfinite(record.kappa):
            return False
        d = self._dir(record.n)
        d.mkdir(parents=True, exist_ok=True)
        lock_path = d / ".lock"
        lock = _acquire_lock(lock_path)
        try:
            index = self._index(record.n)
            current = index["best"].get(record.structure)
            if current is not None and record.kappa >= current["kappa"] - 1e-10:
                return False
            kappa_str = format_kappa(record.kappa)
            fname = f"{record.structure}-{kappa_str}-{record.seed}.mat"
            (d / fname).write_text(write_sign_matrix(record.matrix))
            entry = {
                "structure": record.structure,
                "kappa": record.kappa,
                "kappa_str": kappa_str,
                "seed": record.seed,
                "file": fname,
                "effort": record.effort,
                "timestamp": record.timestamp,
            }
            index["best"][record.structure] = entry
            index["history"].append(entry)
            # write a sibling file and rename it over the index, so a crash
            # mid-write leaves the previous index whole
            tmp = d / "index.json.tmp"
            try:
                tmp.write_text(json.dumps(index, indent=2) + "\n")
                os.replace(tmp, d / "index.json")
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            return True
        finally:
            lock_path.unlink()
            os.close(lock)


def _acquire_lock(path: Path) -> int:
    """An exclusive flock on path, as an open descriptor.

    The kernel drops the flock when its holder dies, so a writer that was
    killed leaves at most an unlocked file, which the next writer takes
    over.  The holder unlinks the file before it unlocks; a waiter that
    locked a file which is no longer at path opens path again.
    """
    for _ in range(2000):
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            time.sleep(0.005)
            continue
        try:
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return fd
        except FileNotFoundError:
            pass
        os.close(fd)
    raise RegistryRejection(f"could not acquire registry lock {path}")

