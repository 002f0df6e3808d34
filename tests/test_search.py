import fcntl
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from approxhad import search
from approxhad.linalg import SignMatrix, condition_number, gram, gram_kappas
from approxhad.search import (
    Registry,
    RegistryRejection,
    SearchRecord,
    StructureClass,
    anneal,
    exhaustive_min,
    format_kappa,
)


class TestFormatKappa:
    def test_trailing_zeros_kept(self):
        assert format_kappa(1.5) == "1.500000000"
        assert format_kappa(2.0) == "2.000000000"
        assert format_kappa(1.4433756729740645) == "1.443375673"

    def test_inf(self):
        assert format_kappa(math.inf) == "inf"


class TestStructureClasses:
    @pytest.mark.parametrize(
        "name,n,expected_bits",
        [
            ("general", 5, 16),
            ("symmetric", 7, 21),
            ("circulant", 9, 9),
            ("circulant_core", 21, 20),
            ("two_block_circulant", 10, 10),
            ("block_circulant9", 27, 27),
        ],
    )
    def test_bit_counts(self, name, n, expected_bits):
        sclass = StructureClass.parse(name)
        assert sclass.n_bits(n) == expected_bits

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("name", ["general", "symmetric", "circulant", "circulant_core",
                                      "two_block_circulant", "block_circulant1",
                                      "block_circulant3"])
    def test_order_below_one_rejected(self, name, n):
        sclass = StructureClass.parse(name)
        with pytest.raises(ValueError, match="order must be >= 1"):
            sclass.n_bits(n)
        with pytest.raises(ValueError, match="order must be >= 1"):
            sclass.build(n, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("name,n,message", [
        ("two_block_circulant", 5, "two_block_circulant needs an even order"),
        ("block_circulant3", 10, "order 10 is not a multiple of block size 3"),
    ])
    def test_order_outside_the_class_rejected(self, name, n, message):
        with pytest.raises(ValueError) as exc:
            StructureClass.parse(name).n_bits(n)
        assert str(exc.value) == message

    def test_parse_roundtrip(self):
        for name in ("general", "symmetric", "circulant", "circulant_core",
                     "two_block_circulant", "block_circulant9"):
            assert StructureClass.parse(name).name == name

    @pytest.mark.parametrize("name,size", [("block_circulant-3", -3),
                                           ("block_circulant0", 0),
                                           ("block_circulant", None)])
    def test_block_size_below_one_rejected(self, name, size):
        with pytest.raises(ValueError) as exc:
            StructureClass.parse(name)
        assert str(exc.value) == f"block_circulant needs a block size >= 1, got {size}"

    @pytest.mark.parametrize("name", ["block_circulantx", "block_circulant3x",
                                      "block_circulant 3", "block_circulant+3"])
    def test_unparsable_name_is_unknown(self, name):
        with pytest.raises(ValueError) as exc:
            StructureClass.parse(name)
        assert str(exc.value) == f"unknown structure class {name!r}"

    def test_general_bijective(self):
        sclass = StructureClass("general")
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            bits = rng.integers(0, 2, sclass.n_bits(4))
            a = sclass.build(4, bits)
            assert (a[0] == 1).all() and (a[:, 0] == 1).all()
            # recover the bits from the matrix: the map is injective
            rec = tuple(((a[1:, 1:].ravel() + 1) // 2).tolist())
            assert rec == tuple(bits.tolist())
            seen.add(rec)

    def test_symmetric_builds_symmetric(self):
        sclass = StructureClass("symmetric")
        rng = np.random.default_rng(1)
        for n in (3, 7, 9):
            bits = rng.integers(0, 2, sclass.n_bits(n))
            a = sclass.build(n, bits)
            assert np.array_equal(a, a.T)
            assert (a[0] == 1).all()

    def test_two_block_structure(self):
        sclass = StructureClass("two_block_circulant")
        rng = np.random.default_rng(2)
        a = sclass.build(10, rng.integers(0, 2, 10))
        R, S = a[:5, :5], a[:5, 5:]
        assert np.array_equal(a[5:, :5], S.T)
        assert np.array_equal(a[5:, 5:], -R.T)
        for i in range(5):
            assert np.array_equal(R[i], np.roll(R[0], i))

    def test_block_circulant_structure(self):
        sclass = StructureClass.parse("block_circulant3")
        rng = np.random.default_rng(3)
        a = sclass.build(9, rng.integers(0, 2, 9))
        blocks = {(i, j): a[3 * i:3 * i + 3, 3 * j:3 * j + 3] for i in range(3) for j in range(3)}
        # block-circulant arrangement
        assert np.array_equal(blocks[(0, 1)], blocks[(1, 2)])
        assert np.array_equal(blocks[(0, 0)], blocks[(2, 2)])
        # each block circulant
        b = blocks[(0, 1)]
        assert np.array_equal(b[1], np.roll(b[0], 1))

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            StructureClass("circulant").build(5, np.zeros(4, dtype=np.int64))


class TestExhaustive:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 1.0), (3, 2.0), (4, 1.0)])
    def test_known_optima(self, n, expected):
        rec = exhaustive_min(n)
        assert rec.kappa == pytest.approx(expected, abs=1e-9)
        assert condition_number(rec.matrix).kappa == pytest.approx(expected, abs=1e-9)

    def test_n5(self):
        rec = exhaustive_min(5)
        assert rec.kappa == pytest.approx(1.5, abs=1e-9)

    def test_rejects_large(self):
        for n in (7, 0):
            with pytest.raises(ValueError, match="1 <= n <= 6"):
                exhaustive_min(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_normalization_soundness(self, n):
        # one batched pass over all 2^((n-1)^2) normalized matrices, the
        # incumbent taken under the same (kappa, -log|det|, bits) order
        m = n - 1
        idx = np.arange(1 << (m * m), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(m * m)) & 1
        mats = np.ones((len(idx), n, n))
        mats[:, 1:, 1:] = (bits * 2 - 1).reshape(len(idx), m, m)
        ev = np.linalg.eigvalsh(gram(mats))
        kap = gram_kappas(ev[:, 0], ev[:, -1], n)
        near = np.flatnonzero(kap <= kap.min() + 1e-12)
        sign, logdet = np.linalg.slogdet(mats[near])
        logdet = np.where(sign != 0, logdet, -math.inf)
        win = min(range(len(near)), key=lambda j: (-logdet[j], tuple(bits[near[j]])))
        rec = exhaustive_min(n)
        assert rec.kappa.hex() == float(kap[near[win]]).hex()
        assert np.array_equal(rec.matrix.entries, mats[near[win]])
        assert rec.effort == {"mode": "exhaustive", "candidates": len(idx)}
        if n <= 3:
            # and sign normalization loses nothing: all 2^(n^2) matrices
            best = min(condition_number(SignMatrix(np.array(b).reshape(n, n))).kappa
                       for b in itertools.product((-1, 1), repeat=n * n))
            assert rec.kappa == pytest.approx(best, abs=1e-10)


class TestAnneal:
    def test_deterministic(self):
        sclass = StructureClass("two_block_circulant")
        a = anneal(6, sclass, seed=4, budget=2000)
        b = anneal(6, sclass, seed=4, budget=2000)
        assert a.kappa == b.kappa
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert a.effort == b.effort

    def test_seed_changes_trajectory(self):
        sclass = StructureClass("general")
        a = anneal(5, sclass, seed=0, budget=300)
        b = anneal(5, sclass, seed=1, budget=300)
        assert not np.array_equal(a.matrix.entries, b.matrix.entries) or a.kappa != b.kappa

    def test_reaches_sds_optimum_at_6(self):
        rec = anneal(6, StructureClass("two_block_circulant"), seed=0, budget=5000)
        assert rec.kappa == pytest.approx(1.5811388301, abs=1e-8)

    def test_matches_exhaustive_at_small_order(self):
        target = exhaustive_min(4).kappa
        hits = [
            anneal(4, StructureClass("general"), seed=s, budget=4000).kappa
            for s in range(4)
        ]
        assert min(hits) == pytest.approx(target, abs=1e-10)

    def test_panel_matches_exhaustive_n5(self):
        from approxhad.search import DEFAULT_BUDGET, SEED_PANEL

        target = exhaustive_min(5).kappa
        best = math.inf
        for s in SEED_PANEL:
            best = min(best, anneal(5, StructureClass("general"), seed=s,
                                    budget=DEFAULT_BUDGET).kappa)
            if best <= target + 1e-10:
                break
        assert best == pytest.approx(target, abs=1e-10)

    def test_record_recomputes(self):
        rec = anneal(5, StructureClass("circulant"), seed=2, budget=1000)
        assert condition_number(rec.matrix).kappa == pytest.approx(rec.kappa, abs=1e-9)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("name", ["general", "circulant", "circulant_core",
                                      "two_block_circulant", "block_circulant1"])
    def test_rejects_order_below_one(self, name, n):
        with pytest.raises(ValueError, match="order must be >= 1"):
            anneal(n, StructureClass.parse(name), seed=0, budget=10)

    def test_rejects_budget_below_one(self):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            anneal(5, StructureClass("circulant"), 0, budget=0)

    @pytest.mark.parametrize("name", ["general", "symmetric", "circulant_core"])
    def test_zero_bit_class_is_the_one_by_one_matrix(self, name):
        sclass = StructureClass.parse(name)
        assert sclass.n_bits(1) == 0
        rec = anneal(1, sclass, seed=3, budget=10)
        assert rec.kappa == 1.0
        assert rec.matrix.entries.tolist() == [[1]]
        assert rec.effort == {"mode": "anneal", "budget": 10, "restarts": 0}
        assert condition_number(rec.matrix).kappa == rec.kappa


class TestRegistry:
    def _record(self, n=6, kappa=None, seed=0):
        rec = anneal(n, StructureClass("two_block_circulant"), seed=seed, budget=1500)
        return rec

    def test_store_and_reject_duplicate(self, tmp_path):
        reg = Registry(tmp_path)
        rec = self._record()
        assert reg.update(rec) is True
        assert reg.update(rec) is False  # not strictly better
        entry = reg.best(6)
        assert entry["kappa"] == pytest.approx(rec.kappa)
        assert (tmp_path / "6" / entry["file"]).exists()

    def test_entry_carries_the_formatted_kappa(self, tmp_path):
        rec = self._record()
        assert Registry(tmp_path).update(rec) is True
        entry = json.loads((tmp_path / "6" / "index.json").read_text())["best"][rec.structure]
        assert entry["kappa_str"] == format_kappa(rec.kappa)
        assert entry["file"] == f"{rec.structure}-{format_kappa(rec.kappa)}-{rec.seed}.mat"

    def test_strict_improvement_stored(self, tmp_path):
        reg = Registry(tmp_path)
        worse = SearchRecord(
            structure="two_block_circulant", kappa=condition_number(
                SignMatrix(np.ones((6, 6)) - 2 * np.eye(6))).kappa,
            matrix=SignMatrix(np.ones((6, 6)) - 2 * np.eye(6)), seed=1,
            effort={},
        )
        assert reg.update(worse) is True
        better = self._record()
        assert reg.update(better) is True
        assert reg.best(6)["kappa"] == pytest.approx(better.kappa)
        # history keeps both
        index = reg._index(6)
        assert len(index["history"]) == 2

    def test_crash_mid_index_write_keeps_previous_index(self, tmp_path, monkeypatch):
        reg = Registry(tmp_path)
        worse = SearchRecord(
            structure="two_block_circulant", kappa=condition_number(
                SignMatrix(np.ones((6, 6)) - 2 * np.eye(6))).kappa,
            matrix=SignMatrix(np.ones((6, 6)) - 2 * np.eye(6)), seed=1,
            effort={},
        )
        assert reg.update(worse) is True
        write_text = Path.write_text

        def torn_index_write(path, data, *args, **kwargs):
            if path.name.startswith("index.json"):
                write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn_index_write)
        with pytest.raises(OSError, match="disk full"):
            reg.update(self._record())
        monkeypatch.undo()
        assert reg.best(6)["kappa"] == worse.kappa
        assert sorted(p.name for p in (tmp_path / "6").glob("*index*")) == ["index.json"]
        assert not (tmp_path / "6" / ".lock").exists()
        assert reg.update(self._record()) is True

    def test_killed_writer_does_not_block_the_next(self, tmp_path):
        # a child process stops inside update() while it holds the lock,
        # and is killed there
        holder = textwrap.dedent(f"""
            import sys, time
            import approxhad.search
            from approxhad.linalg import SignMatrix, condition_number
            from approxhad.search import Registry, SearchRecord

            def stall(matrix):
                print("locked", flush=True)
                time.sleep(60)

            approxhad.search.write_sign_matrix = stall
            A = SignMatrix([[1, 1], [1, -1]])
            Registry({str(tmp_path)!r}).update(SearchRecord(
                structure="general", kappa=condition_number(A).kappa,
                matrix=A, seed=0, effort={{}}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen([sys.executable, "-c", holder], env=env,
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "locked\n"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            child.kill()
            child.stdout.close()
        assert (tmp_path / "2" / ".lock").exists()
        A = SignMatrix([[1, 1], [-1, 1]])
        record = SearchRecord(structure="general", kappa=condition_number(A).kappa,
                              matrix=A, seed=1, effort={})
        t0 = time.monotonic()
        assert Registry(tmp_path).update(record) is True
        assert time.monotonic() - t0 < 1.0
        assert not (tmp_path / "2" / ".lock").exists()

    def test_writer_waits_for_the_lock_holder(self, tmp_path, monkeypatch):
        # the test holds 2/.lock as another writer would: the writer thread
        # retries without writing until the holder lets go, and then stores
        retries = threading.Semaphore(0)

        def counted_sleep(seconds):
            retries.release()
            time.sleep(seconds)

        monkeypatch.setattr(search, "time", types.SimpleNamespace(sleep=counted_sleep))
        lock_path = tmp_path / "2" / ".lock"
        lock_path.parent.mkdir()
        held = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        fcntl.flock(held, fcntl.LOCK_EX)
        A = SignMatrix([[1, 1], [1, -1]])
        record = SearchRecord(structure="general", kappa=condition_number(A).kappa,
                              matrix=A, seed=0, effort={})
        stored = []
        writer = threading.Thread(target=lambda: stored.append(Registry(tmp_path).update(record)))
        writer.start()
        try:
            for _ in range(3):
                assert retries.acquire(timeout=10)
            assert writer.is_alive() and stored == []
            assert not (tmp_path / "2" / "index.json").exists()
        finally:
            # release as a holder does: unlink the file, then unlock it
            lock_path.unlink()
            os.close(held)
            writer.join(timeout=10)
        assert stored == [True]
        assert Registry(tmp_path).best(2, "general")["seed"] == 0
        assert not lock_path.exists()

    def test_concurrent_writers_lose_no_update(self, tmp_path):
        # four processes (more than the cores here) each store five records
        # in slots of their own; a write that read the index while another
        # writer was between its read and its replace would drop entries
        writer = textwrap.dedent(f"""
            import sys
            from approxhad.linalg import SignMatrix
            from approxhad.search import Registry, SearchRecord

            A = SignMatrix([[1, 1], [1, -1]])
            for k in range(5):
                assert Registry({str(tmp_path)!r}).update(SearchRecord(
                    structure=f"w{{sys.argv[1]}}-{{k}}", kappa=1.0,
                    matrix=A, seed=k, effort={{}}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        children = [subprocess.Popen([sys.executable, "-c", writer, str(p)], env=env)
                    for p in range(4)]
        try:
            codes = [child.wait(timeout=60) for child in children]
        finally:
            for child in children:
                child.kill()
        assert codes == [0, 0, 0, 0]
        index = Registry(tmp_path)._index(2)
        assert len(index["history"]) == 20
        assert len(index["best"]) == 20

    def test_tampered_kappa_rejected(self, tmp_path):
        reg = Registry(tmp_path)
        rec = self._record()
        tampered = SearchRecord(
            structure=rec.structure, kappa=1.0,
            matrix=rec.matrix, seed=rec.seed, effort=rec.effort,
        )
        with pytest.raises(RegistryRejection, match="recomputed"):
            reg.update(tampered)

    def test_kappa_5e10_above_its_matrix_rejected(self, tmp_path):
        # search and condition_number form kappa by one rule, so only the
        # same float is the matrix's kappa; 5e-10 more can change its 10 digits
        rec = self._record()
        nudged = SearchRecord(
            structure=rec.structure, kappa=rec.kappa + 5e-10,
            matrix=rec.matrix, seed=rec.seed, effort=rec.effort,
        )
        with pytest.raises(RegistryRejection, match="recomputed"):
            Registry(tmp_path).update(nudged)

    def test_singular_record_is_declined(self, tmp_path):
        # JSON has no number for kappa = inf: storing it would write
        # Infinity into index.json, which a strict parser rejects
        def strict(name):
            raise ValueError(f"index.json holds {name}")

        reg = Registry(tmp_path)
        singular = anneal(2, StructureClass("circulant"), seed=0, budget=10)
        assert math.isinf(singular.kappa)
        assert reg.update(singular) is False
        assert list(tmp_path.iterdir()) == []
        A = SignMatrix([[1, 1], [1, -1]])
        assert reg.update(SearchRecord(structure="circulant", kappa=condition_number(A).kappa,
                                       matrix=A, seed=1, effort={})) is True
        files = sorted(p.name for p in (tmp_path / "2").iterdir())
        assert reg.update(singular) is False
        assert sorted(p.name for p in (tmp_path / "2").iterdir()) == files
        for path in tmp_path.rglob("index.json"):
            json.loads(path.read_text(), parse_constant=strict)
        assert reg.best(2)["kappa"] == 1.0

    @pytest.mark.parametrize("rows", [[[1, 1], [1, -1]], [[1, 1, 1], [1, -1, 1], [1, 1, -1]]])
    def test_record_is_filed_under_its_matrix_order(self, tmp_path, rows):
        # a record once carried its own n, and n = 7 with a 2 x 2 Hadamard
        # matrix filed kappa = 1 under order 7
        A = SignMatrix(rows)
        with pytest.raises(TypeError):
            SearchRecord(n=7, structure="general", kappa=condition_number(A).kappa,
                         matrix=A, seed=0, effort={})
        record = SearchRecord(structure="general", kappa=condition_number(A).kappa,
                              matrix=A, seed=0, effort={})
        assert record.n == A.n
        assert Registry(tmp_path).update(record) is True
        assert [p.name for p in tmp_path.iterdir()] == [str(A.n)]

    def test_roundtrip_matrix(self, tmp_path):
        reg = Registry(tmp_path)
        rec = self._record()
        reg.update(rec)
        loaded = reg.load_matrix(6, reg.best(6))
        assert np.array_equal(loaded.entries, rec.matrix.entries)

    def test_class_containment_circulant_vs_general(self, tmp_path):
        # the circulant optimum cannot beat the general best-found
        reg = Registry(tmp_path)
        for s in range(3):
            reg.update(anneal(5, StructureClass("circulant"), seed=s, budget=2000))
            reg.update(anneal(5, StructureClass("general"), seed=s, budget=2000))
        circ = reg.best(5, "circulant")
        gen = reg.best(5, "general")
        assert circ["kappa"] >= gen["kappa"] - 1e-10
