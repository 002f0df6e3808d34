"""The spectral screen of the circulant-type classes in anneal.

SCREEN_PANEL pins anneal at the budget of the benchmark's anneal workload,
for its nine (order, class) pairs and two seeds each, in the format of
test_search_determinism.ANNEAL_PANEL.  The values were recorded before
the screen existed, when every move took the exact path (build, exact
Gram, eigvalsh), with NumPy 2.4.6 and its bundled OpenBLAS on x86-64.

The adversarial tests move every screened eigenvalue by half of the
screen's stated error bound eta before anneal reads it.  The screen's true
error is below eta / 2 (see test_screen_properties.py), so the exact value
stays inside the bounds anneal derives, and a decision the bounds settle
cannot flip; one taken without a margin would.  With the bounds made
(-inf, inf) instead, no decision may be read from them, and the records
must still be the exact path's.  A rejection run's floor is the lo of
those per-neighbour bounds (SpectralScreen.kappa_floors), so the same
patch moves it; counting kappa_floors calls shows that a run read it.

Rejection runs (search._proven_rejections) commit many proven rejections
at once; with them tried from the first rejection, or before every move,
every record must be the one the move-by-move loop gives.

The general and symmetric classes read a one-sided Ritz floor
(spectral.RitzScreen) once the chain lingers on a state; the FALLBACK_PANEL
anneals pin how many floors and exact eigensolves that takes.  The same tests
raise every floor by moving the Ritz values out by eta / 2, and form the
floors and try the runs from the first rejection, on the ANNEAL_PANEL and
FALLBACK_PANEL rows of those classes.
"""

import math

import numpy as np
import pytest

from approxhad import search
from approxhad.linalg import Draws, condition_number, eigvalsh_margin
from approxhad.search import StructureClass, anneal
from approxhad.spectral import RitzScreen, SpectralScreen
from test_search_determinism import ANNEAL_PANEL, FALLBACK_BUDGET, FALLBACK_PANEL, pattern
from test_search_determinism import BUDGET as ANNEAL_PANEL_BUDGET

BUDGET = 5000

# (n, class, seed, kappa.hex(), restarts, +1 pattern)
SCREEN_PANEL = [
    (18, "two_block_circulant", 0, "0x1.752e50db3a3a6p+0", 1,
     "22862440c4881a900352404a58014b022860450c0315d066b80cd701dae03b5c076980ed305d860bb0"),
    (18, "two_block_circulant", 1, "0x1.752e50db3a3a6p+0", 1,
     "8a061140c2281a440348c06918052300a460148c030d7065ac0db501f6a02edc05d980bb3057461ae0"),
    (22, "two_block_circulant", 0, "0x1.7f5bb4fb8e0c5p+0", 0,
     "09c8a81391582722b04a45e09489c1291383522702a44e05489c0a9139150a8e37951c6d2a78d255f184abe38957c512ef8a24df1449bea8837d5146f0"),
    (22, "two_block_circulant", 1, "0x1.7f5bb4fb8e0c3p+0", 0,
     "1a5dc834bb98697710d2ee21a5de434bb48797690f2ed20e5da45cb349b969ded3d3bda7a77b474ef6ae99eddd33dbba27b7754f4eee9e9dcd3d3bda70"),
    (26, "two_block_circulant", 0, "0x1.545aa524b447ep+0", 0,
     "4efbcaa9de795d3bcf2ba769e5f4ed3cbe9ca797d3d4f2fa6a9edf4953fbe92a777d654cefbca99df7950a9f046953a08f2a7411e54e823ca8d047951a08f2a3419e546813ca8d0a7911a14f2234a9e046953c08d0"),
    (26, "two_block_circulant", 1, "0x1.545aa524b447cp+0", 0,
     "759101ceb32039d664053adc80275b9024ea720c9d0e4193a1c8b27039164e072ac980e759301ceb22039c05b28380b6527006ca4e00d949c11b2138236427146c04e28d809c51b013ca36027946c04b28f8096510"),
    (30, "two_block_circulant", 0, "0x1.610cc5106968ap+0", 0,
     "14ed975c29df2eb853be5d70a77cba614ef976c29df2ed852be5fb0a57cb7615af94ec2f5f29d84ebe53b0dd7ca760baf94ec175f29d92ebfd74e46bfae9c8d5f5d791a3ebaf2367d75e464faebc8e9f5d791d3ebaf23a7d35e474fa6bcae9f0d795d3f1af2ba7a35ed74e46bfae9c8d70"),
    (30, "two_block_circulant", 1, "0x1.5aa029d9e4abep+0", 0,
     "4e0546b09c0a8d6938051ad2704a3524e1946849c328d093965181272ca3024f5946049eb28c092d6538121aca70243594e04c6b29c088d666b16fc64d62df8e9ac5bf15359b7e0a6b36fc14d66dfa29a8dbfc5351b7d8a6e36fb14dc6dd629f8dbac53f1b758a7e366b14fc6cd62df8d0"),
    (19, "circulant", 0, "0x1.a9b255075c93fp+0", 1,
     "776f0776f0776f0776f8776f8776f8776f87767877778777787737877b7877b7877b7873b787bb787bb787bb7800"),
    (19, "circulant", 1, "0x1.c0086690afdd2p+0", 1,
     "85d2385d2185d2185d2185d3185d1185d1185d9185c9185e9185e9185e9184e9186e9182e9182e9182e9182e9180"),
    (21, "circulant_core", 0, "0x1.f19d6ee5bbf3ap+0", 1,
     "fffffe3e4a28f92923e4a88f92e23e4a88f93a23e4a88f94a23e7288f94a23e9288fe4a23f9288fe4a23f9288fe4a22f92893e4a28f92880"),
    (21, "circulant_core", 1, "0x1.f19d6ee5bbf3ap+0", 0,
     "ffffff9288fe4a23f9288be4a24f928a3e4a38f928a3e4a48f92a23e4b88f92a23e4e88f92a23e5288f9ca23e5288fa4a23f9288fe4a2380"),
    (23, "circulant_core", 0, "0x1.c1c5da35a771cp+0", 0,
     "ffffff08b96f08b96f08b96b08b97b08b97b08b95b08b9db08b95b08ba5b08be5b08be5b08be5b08ae5b08ee5b08ae5b092e5b0a2e5b0e2e5b0a2e5b122e5b222e5b00"),
    (23, "circulant_core", 1, "0x1.c1c5da35a771ep+0", 0,
     "ffffff23e34a23e34e23e34a23e35223e37223e35223e3d223e3d223e2d223e4d223e8d223f8d223f8d223f8d223f8d223f8d222f8d224f8d228f8d238f8d228f8d200"),
    (29, "circulant_core", 0, "0x1.f37769b30d840p+0", 0,
     "ffffffff96ba602e5ae981396ba608e5ae984396ba620e5ae990396ba680e5ae9e0396ba780e5ae960396ba980e5aee60396ba980e5afa60396be980e5afa60396ae980e5bba60396ae980e5eba60397ae980e56ba6039dae980e56ba603a5ae980f96ba603e5ae98080"),
    (29, "circulant_core", 1, "0x1.1eea781977cd2p+1", 0,
     "fffffffed099e2fb42678bed099e2bb42678eed099e2bb426792ed099e8bb4267e2ed099f8bb4267e2ed099f8bb4265e2ed09a78bb4279e2ed09e78bb4259e2ed0a678bb4399e2ed0a678bb4499e2ed22678bb5099e2edc2678bb5099e2ef42678bbd099e2eb42678b80"),
    (27, "block_circulant9", 0, "0x1.bc96d0ca21412p+0", 0,
     "3fbc9a93f3c9ab3f3c1af3d3d1af393d1bf393d1bf39351ff393517f79350d43fbc8d53f3c8d73f3c8d73d3c8df393e8df393a8ff393a8ff393a87f791e4d43f9e4d53f9e0d73e9e8d73c9e8df3c9e8df3c9a8ff3c9a8ff3c9a87f00"),
    (27, "block_circulant9", 1, "0x1.ee7f8ac6e78fbp+0", 0,
     "0d0a3b00d0a3b20c0a3b20c0a3ba0c0a3ba040e39a140639a141631a14363d80d0a1d80d0a1da0c0a1da0c0b1da0c0b1da040b1da140b19a141b11a14051d80d051d80d051da0c051da0e051da0a071da0a031da0a0b19a0a1b11a00"),
]


def screen_of(row):
    """The neighbour screen of a panel row's class at its order."""
    return search._layout(StructureClass.parse(row[1]), row[0])[2]


SCREENED_ANNEAL_PANEL = [row for row in ANNEAL_PANEL
                         if isinstance(screen_of(row), SpectralScreen)]


def check(n, name, seed, budget, kappa_hex, restarts, plus):
    rec = anneal(n, StructureClass.parse(name), seed, budget)
    assert rec.kappa.hex() == kappa_hex
    assert rec.kappa == condition_number(rec.matrix).kappa
    assert pattern(rec.matrix) == plus
    assert rec.effort == {"mode": "anneal", "budget": budget, "restarts": restarts}


@pytest.mark.parametrize("n,name,seed,kappa_hex,restarts,plus", SCREEN_PANEL)
def test_screen_panel(n, name, seed, kappa_hex, restarts, plus):
    check(n, name, seed, BUDGET, kappa_hex, restarts, plus)


def shifted_extremes(direction, calls):
    """SpectralScreen.extremes with lambda_min moved by +-eta/2 and
    lambda_max by the opposite amount; direction(i) = +1 lowers the
    neighbour's kappa.  Each call appends i to calls."""
    extremes = SpectralScreen.extremes

    def shifted(self, spectra, i):
        calls.append(i)
        lmin, lmax = extremes(self, spectra, i)
        half = eigvalsh_margin(self.n, lmax) / 2
        s = direction(i)
        return lmin + s * half, lmax - s * half

    return shifted


def count_floors(monkeypatch) -> list:
    """A list that each SpectralScreen.kappa_floors call, one per state a
    rejection run reads, appends the state's neighbour count to."""
    floors = []
    kappa_floors = SpectralScreen.kappa_floors

    def counted(self, spectra):
        lo = kappa_floors(self, spectra)
        floors.append(len(lo))
        return lo

    monkeypatch.setattr(SpectralScreen, "kappa_floors", counted)
    return floors


DIRECTIONS = {
    "down": lambda i: 1,
    "up": lambda i: -1,
    "alternate": lambda i: 1 if i % 2 else -1,
}


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_shifted_screen_keeps_every_decision(monkeypatch, direction):
    calls = []
    monkeypatch.setattr(SpectralScreen, "extremes",
                        shifted_extremes(DIRECTIONS[direction], calls))
    floors = count_floors(monkeypatch)
    for n, name, seed, kappa_hex, restarts, plus in SCREEN_PANEL:
        check(n, name, seed, BUDGET, kappa_hex, restarts, plus)
    for n, name, seed, kappa_hex, restarts, plus in SCREENED_ANNEAL_PANEL:
        check(n, name, seed, ANNEAL_PANEL_BUDGET, kappa_hex, restarts, plus)
    # an anneal that bypassed the screen, or never read a shifted floor,
    # would pass the checks above untested
    assert calls
    assert floors


@pytest.mark.parametrize("n,name", [(19, "circulant"), (21, "circulant_core"),
                                    (30, "two_block_circulant"), (27, "block_circulant9")])
def test_screen_spares_most_exact_evaluations(monkeypatch, n, name):
    built = []
    build = StructureClass.build
    monkeypatch.setattr(StructureClass, "build",
                        lambda self, n, bits: built.append(1) or build(self, n, bits))
    anneal(n, StructureClass.parse(name), 0, BUDGET)
    # the exact path alone builds a matrix for about one move in five
    assert len(built) < 200


def test_unbounded_screen_defers_to_the_exact_path(monkeypatch):
    """With bounds (-inf, inf) on every neighbour, no move is settled from
    the bounds, and the temperature probe and `accepted` must take the
    exact path wherever the screen would have decided."""
    calls = []

    def unbounded(self, spectra, i):
        calls.append(i)
        return -math.inf, math.inf

    monkeypatch.setattr(SpectralScreen, "kappa_bounds", unbounded)
    floors = count_floors(monkeypatch)
    for n, name, seed, kappa_hex, restarts, plus in SCREEN_PANEL:
        check(n, name, seed, BUDGET, kappa_hex, restarts, plus)
    assert calls
    assert floors


def test_screen_types_by_class():
    """The DFT screens the circulant-type classes; general and symmetric,
    which no DFT diagonalizes, get the Ritz floor."""
    screens = {"general": RitzScreen, "symmetric": RitzScreen, "circulant": SpectralScreen,
               "circulant_core": SpectralScreen, "two_block_circulant": SpectralScreen,
               "block_circulant3": SpectralScreen}
    assert {StructureClass.parse(name).kind for name in screens} == set(StructureClass._KINDS)
    for name, screen in screens.items():
        assert type(search._layout(StructureClass.parse(name), 12)[2]) is screen, name


def run_early(monkeypatch, after):
    """Try a rejection run once `after` moves in a row were rejected (0:
    before every move)."""
    monkeypatch.setattr(search, "_RUN_AFTER", after)


def count_run_moves(monkeypatch) -> list:
    """A list that each committed rejection run appends its length to."""
    lengths = []
    commit = Draws.commit

    def counted(self, j):
        lengths.append(j)
        commit(self, j)

    monkeypatch.setattr(Draws, "commit", counted)
    return lengths


def test_runs_from_first_rejection_keep_the_panels(monkeypatch):
    run_early(monkeypatch, after=1)
    lengths = count_run_moves(monkeypatch)
    for n, name, seed, kappa_hex, restarts, plus in SCREEN_PANEL:
        check(n, name, seed, BUDGET, kappa_hex, restarts, plus)
    for n, name, seed, kappa_hex, restarts, plus in SCREENED_ANNEAL_PANEL:
        check(n, name, seed, ANNEAL_PANEL_BUDGET, kappa_hex, restarts, plus)
    assert sum(lengths) > 0


# small orders, where stall_limit = 10 n^2 falls well inside the budget
RESTART_CASES = [(5, "circulant"), (6, "two_block_circulant"), (7, "circulant_core"),
                 (9, "block_circulant3")]
RESTART_BUDGET = 1000


def record_key(rec):
    return rec.kappa.hex(), pattern(rec.matrix), rec.effort


@pytest.mark.parametrize("n,name", RESTART_CASES)
def test_runs_across_restarts_keep_every_record(monkeypatch, n, name):
    sclass = StructureClass.parse(name)
    seeds = [0, 1, 2**64 - 1]
    # no run: a chain never rejects a whole budget in a row
    monkeypatch.setattr(search, "_RUN_AFTER", RESTART_BUDGET)
    want = [record_key(anneal(n, sclass, seed, RESTART_BUDGET)) for seed in seeds]
    assert all(effort["restarts"] for _, _, effort in want)
    lengths = count_run_moves(monkeypatch)
    # early runs start short, so that many end at the budget, a restart or a cut
    for after in (0, 1, 5):
        run_early(monkeypatch, after)
        lengths.clear()
        got = [record_key(anneal(n, sclass, seed, RESTART_BUDGET)) for seed in seeds]
        assert got == want, after
        assert sum(lengths) > 0, after


def test_runs_cover_most_moves(monkeypatch):
    lengths = count_run_moves(monkeypatch)
    anneal(30, StructureClass("two_block_circulant"), 0, BUDGET)
    assert sum(lengths) > BUDGET / 2


@pytest.mark.parametrize("panel,budget,committed", [(FALLBACK_PANEL, FALLBACK_BUDGET, 15458),
                                                    (SCREEN_PANEL, BUDGET, 65035)])
def test_runs_look_ahead_as_far_as_their_streak(monkeypatch, panel, budget, committed):
    """A run peeks as many moves as the streak that triggered it, so the
    moves peeked stay within twice the moves committed; a fixed 2048-move
    look-ahead peeked 294,803 moves on the fallbacks."""
    peeked = []
    peek = Draws.peek

    def counted(self, high, k):
        idx, u = peek(self, high, k)
        peeked.append(len(idx))
        return idx, u

    monkeypatch.setattr(Draws, "peek", counted)
    lengths = count_run_moves(monkeypatch)
    for n, name, seed, *_ in panel:
        anneal(n, StructureClass.parse(name), seed, budget)
    assert sum(lengths) == committed
    assert sum(peeked) <= 2 * committed


@pytest.mark.parametrize("delta", [1e-9, 1e-3, 0.5, 3.0, 40.0, 700.0, 745.0, 1e4, 1e18])
@pytest.mark.parametrize("t", [1e-300, 1e-6, 0.01, 1.0, 30.0])
def test_proven_rejection_is_a_bounds_rejection(delta, t):
    """A move a run proves rejected is one that `accepted` rejects from
    the bounds: u >= exp(-delta / T) * (1 + _EXP_SLACK) + 1e-300."""
    hi = 1.25
    lo = hi + delta
    bar = math.exp(-(lo - hi) / t) * (1 + search._EXP_SLACK) + 1e-300
    just_below = [np.nextafter(bar, 0.0) - ulp * 2.0 ** -53 for ulp in range(4)]
    u = np.array([0.0, *[x for x in just_below if 0.0 <= x < 1.0]])
    lo_all = np.full(len(u), lo)
    proven = search._proven_rejections(lo_all, hi, u, np.full(len(u), t))
    assert not proven.any()
    # and a run is not vacuous: well above the bar, u is proven
    clear = min(bar * (1 + 2.0 ** -30) + 2.0 ** -52, 1 - 2.0 ** -53)
    if clear > bar:
        assert search._proven_rejections(np.array([lo]), hi, np.array([clear]),
                                         np.array([t]))[0]


RITZ_ANNEAL_PANEL = [row for row in ANNEAL_PANEL if isinstance(screen_of(row), RitzScreen)]


def test_raised_ritz_floors_keep_every_decision(monkeypatch):
    calls = []
    extremes = RitzScreen.extremes

    def raised(self, a):
        bottom, top = extremes(self, a)
        calls.append(len(bottom))
        return bottom - self.eta / 2, top + self.eta / 2

    monkeypatch.setattr(RitzScreen, "extremes", raised)
    for n, name, seed, kappa_hex, restarts, plus in RITZ_ANNEAL_PANEL:
        check(n, name, seed, ANNEAL_PANEL_BUDGET, kappa_hex, restarts, plus)
    for n, name, seed, kappa_hex, restarts, plus in FALLBACK_PANEL:
        check(n, name, seed, FALLBACK_BUDGET, kappa_hex, restarts, plus)
    assert calls


@pytest.mark.parametrize("after", [0, 1])
def test_ritz_floors_and_runs_from_first_rejection_keep_the_panel(monkeypatch, after):
    run_early(monkeypatch, after=after)
    monkeypatch.setattr(search, "_FLOOR_AFTER", after)
    lengths = count_run_moves(monkeypatch)
    for n, name, seed, kappa_hex, restarts, plus in RITZ_ANNEAL_PANEL:
        check(n, name, seed, ANNEAL_PANEL_BUDGET, kappa_hex, restarts, plus)
    assert sum(lengths) > 0


@pytest.mark.parametrize("n,name", [(4, "general"), (5, "symmetric"), (6, "general")])
def test_ritz_runs_across_restarts_keep_every_record(monkeypatch, n, name):
    sclass = StructureClass.parse(name)
    seeds = [0, 1, 2**64 - 1]
    # neither a floor nor a run: the exact path at every move
    monkeypatch.setattr(search, "_FLOOR_AFTER", RESTART_BUDGET)
    monkeypatch.setattr(search, "_RUN_AFTER", RESTART_BUDGET)
    want = [record_key(anneal(n, sclass, seed, RESTART_BUDGET)) for seed in seeds]
    assert all(effort["restarts"] for _, _, effort in want)
    monkeypatch.setattr(search, "_FLOOR_AFTER", 0)
    lengths = count_run_moves(monkeypatch)
    for after in (0, 1, 5):
        run_early(monkeypatch, after)
        lengths.clear()
        got = [record_key(anneal(n, sclass, seed, RESTART_BUDGET)) for seed in seeds]
        assert got == want, after
        assert sum(lengths) > 0, after


def exact_solves(monkeypatch, n, name):
    """The exact eigensolves of the seed-0 fallback anneal at order n."""
    solves = []
    gram_eigvalsh = search.gram_eigvalsh
    monkeypatch.setattr(search, "gram_eigvalsh", lambda a: solves.append(1) or gram_eigvalsh(a))
    anneal(n, StructureClass(name), 0, FALLBACK_BUDGET)
    return len(solves)


def test_ritz_floor_spares_exact_evaluations(monkeypatch):
    # the exact path alone makes 10,507 eigensolves here
    assert exact_solves(monkeypatch, 25, "general") < 10000


@pytest.mark.parametrize("n, cap", [(15, 12900), (17, 11400)])
def test_ritz_floor_spares_symmetric_exact_evaluations(monkeypatch, n, cap):
    # the floors make 12,598 and 11,038 eigensolves here, the exact path
    # alone 13,196 and 11,750
    assert exact_solves(monkeypatch, n, "symmetric") < cap


@pytest.mark.parametrize("n,name,seed,solves,floors", [
    (15, "symmetric", 0, 12598, 76), (17, "symmetric", 0, 11038, 70),
    (25, "general", 0, 8446, 108)])
def test_ritz_floor_trigger_is_pinned(monkeypatch, n, name, seed, solves, floors):
    """The FALLBACK_PANEL anneals make exactly these exact eigensolves and
    Ritz floors (one eigh each).  A floor formed at another move, or a
    neighbour that misses its state's floor, changes the counts though
    not the records."""
    assert (n, name, seed) in [row[:3] for row in FALLBACK_PANEL]
    counts = {"solves": 0, "floors": 0}
    gram_eigvalsh, eigh = search.gram_eigvalsh, np.linalg.eigh

    def counted(key, solve):
        def call(a):
            counts[key] += 1
            return solve(a)
        return call

    monkeypatch.setattr(search, "gram_eigvalsh", counted("solves", gram_eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted("floors", eigh))
    anneal(n, StructureClass(name), seed, FALLBACK_BUDGET)
    assert counts == {"solves": solves, "floors": floors}
