import importlib.util
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from approxhad import table
from approxhad import families
from approxhad.families import (
    circulant,
    conference_plus_identity,
    sds_block_matrix,
    sds_family,
    sds_search,
    verify_barba,
)
from approxhad.linalg import SignMatrix, condition_number
from approxhad.matrixio import write_sign_matrix
from approxhad.search import (
    Registry,
    SearchRecord,
    StructureClass,
    anneal,
    exhaustive_min,
    format_kappa,
)
from approxhad.table import (
    MATCH_TOLERANCE,
    TARGETS,
    TableRow,
    bundled_fixtures,
    reproduce_table,
    table_csv,
)

MATCHED_ROWS = {3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 18, 19, 21, 23, 25, 26, 27, 29, 30}
BEST_EFFORT_ROWS = {17, 22}


def _fixture_kappa(n):
    return condition_number(bundled_fixtures([n])[n]["matrix"]).kappa


def _sds_form(n):
    return math.sqrt((2 * n - 2) / (n - 2))


class TestTargets:
    def test_every_target_root_of_its_minpoly(self):
        # the 10-digit value must sit on the polynomial to ~1e-8
        for n, t in TARGETS.items():
            scale = max(abs(c) for c in t.minpoly.coefficients)
            res = t.minpoly(t.kappa_value)
            assert abs(res) <= 1e-7 * scale, (n, res)

    def test_structures_parse(self):
        for t in TARGETS.values():
            StructureClass.parse(t.structure)


class TestFixtures:
    def test_index_entries_verify(self):
        fixtures = bundled_fixtures()
        assert MATCHED_ROWS <= set(fixtures)
        for n, fx in fixtures.items():
            kappa = condition_number(fx["matrix"]).kappa
            assert format_kappa(kappa) == fx["kappa"], (n, fx["kappa"])

    def test_fixtures_live_in_declared_class(self):
        fixtures = bundled_fixtures()
        for n, fx in fixtures.items():
            a = fx["matrix"].entries
            cls = fx["class"]
            if cls == "circulant":
                assert all(np.array_equal(a[i], np.roll(a[0], i)) for i in range(n))
            elif cls == "circulant_core":
                assert (a[0] == 1).all() and (a[:, 0] == 1).all()
                core = a[1:, 1:]
                assert all(np.array_equal(core[i], np.roll(core[0], i))
                           for i in range(n - 1))
            elif cls == "two_block_circulant":
                h = n // 2
                R, S = a[:h, :h], a[:h, h:]
                assert np.array_equal(a[h:, :h], S.T)
                assert np.array_equal(a[h:, h:], -R.T)
                assert all(np.array_equal(R[i], np.roll(R[0], i)) for i in range(h))
            elif cls == "symmetric":
                assert np.array_equal(a, a.T)
            elif cls.startswith("block_circulant"):
                s = int(cls[len("block_circulant"):])
                b = n // s
                for i in range(b):
                    for j in range(b):
                        blk = a[i * s:(i + 1) * s, j * s:(j + 1) * s]
                        ref = a[0:s, ((j - i) % b) * s:((j - i) % b + 1) * s]
                        assert np.array_equal(blk, ref)

    @pytest.mark.parametrize("n", [3, 5, 6, 10, 13, 14, 15, 18, 25])
    def test_constructed_fixtures_rebuild(self, n):
        # the direct constructions and orbit searches of scripts/generate_fixtures.py
        fx = bundled_fixtures()[n]
        if n in (3, 5):
            matrix = SignMatrix(circulant([1] * (n - 1) + [-1]))
        elif n in (13, 15, 25):
            path = Path(__file__).resolve().parents[1] / "scripts" / "generate_fixtures.py"
            spec = importlib.util.spec_from_file_location("generate_fixtures", path)
            script = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(script)
            if n == 13:
                matrix = script.pg2_barba_13()
            else:
                matrix, fields = script.orbit_fixture(n)
                assert fields == {key: fx[key] for key in fields}
        else:
            matrix = sds_block_matrix(sds_search(n // 2)[0]).matrix
        bundled = (resources.files("approxhad") / "fixtures" / fx["file"]).read_text()
        assert write_sign_matrix(matrix) == bundled

    # table builds no family member: the guards below show that none could win
    # its row, so a fixture swap that breaks one shows where a family could again
    @pytest.mark.parametrize("half", [3, 5, 7, 9])
    def test_every_sds_member_ties_the_fixture_to_the_bit(self, half):
        # any SDS member at rows 6-18 could only tie the fixture, which wins on source order
        kappa = _fixture_kappa(2 * half)
        pairs = sds_search(half)
        assert pairs
        for pair in pairs:
            assert condition_number(sds_block_matrix(pair).matrix).kappa.hex() == kappa.hex()

    @pytest.mark.parametrize("n", [26, 30])
    def test_fixture_is_below_the_sds_closed_form(self, n):
        # every SDS member scores within 1e-10 relative of the form, so above the fixture
        kappa = _fixture_kappa(n)
        assert kappa < _sds_form(n) * (1 - 1e-10)

    def test_row_22_has_no_sds_member(self):
        assert sds_search(11) == []
        with pytest.raises(ValueError) as exc:
            sds_family(22)
        assert str(exc.value) == "no two-circulant pair exists at order 22"

    @pytest.mark.parametrize("n", [6, 10, 14, 18, 26, 30])
    def test_conference_plus_identity_is_above_the_fixture(self, n):
        # conference + I has members only at n = 2 mod 4 (none at 22)
        kappa = _fixture_kappa(n)
        assert condition_number(conference_plus_identity(n).matrix).kappa > kappa

    @pytest.mark.parametrize("n", [3, 5])
    def test_fixture_is_the_exact_optimum_in_the_published_class(self, n):
        # table reads no exhaustive optimum: at rows 3 and 5 the fixture already is one
        fx = bundled_fixtures()[n]
        assert _fixture_kappa(n).hex() == exhaustive_min(n).kappa.hex()
        assert fx["class"] == TARGETS[n].structure

    def test_barba_13_verifies(self):
        fam = verify_barba(bundled_fixtures()[13]["matrix"])
        assert fam.kappa_closed_form == pytest.approx(5 / (2 * math.sqrt(3)), rel=1e-14)

    def test_orbit_search_barba_25_verifies(self):
        fam = verify_barba(bundled_fixtures()[25]["matrix"])
        assert fam.kappa_closed_form == pytest.approx(7 / math.sqrt(24), rel=1e-14)

    def test_orbit_search_15_has_the_ehlich_block_gram(self):
        # 12 I + 4 diag(J4, J4, J4, J3) - J, with the witness's columns placed
        # at the target indices its index entry lists
        fx = bundled_fixtures()[15]
        block = [0] * 4 + [1] * 4 + [2] * 4 + [3] * 3
        target = np.array([[12 * (i == j) + 4 * (block[i] == block[j]) - 1 for j in range(15)]
                           for i in range(15)])
        a = fx["matrix"].entries
        assert (fx["source"], fx["p"], fx["f"], fx["b"]) == ("orbit-search", 3, 0, 5)
        assert sorted(fx["columns"]) == list(range(15))
        assert np.array_equal(a.T @ a, target[np.ix_(fx["columns"], fx["columns"])])
        assert np.linalg.eigvalsh(target) == pytest.approx([12] * 12 + [25, 28, 28])


class TestReproduceTable:
    def test_matched_rows(self):
        rows = {r.n: r for r in reproduce_table(3, 30)}
        for n in MATCHED_ROWS:
            assert rows[n].matched, rows[n]
            assert abs(rows[n].kappa - TARGETS[n].kappa_value) <= MATCH_TOLERANCE
        for n in BEST_EFFORT_ROWS:
            assert not rows[n].matched

    def test_row_target_columns_follow_from_n_and_kappa(self):
        # a row once stored target_kappa, matched and the residual beside n and kappa
        with pytest.raises(TypeError):
            TableRow(n=5, kappa=1.6, target_kappa="1.600000000", matched=True,
                     structure="circulant", minpoly_residual=0.0, seed=0, source="fixture")
        row = TableRow(n=5, kappa=1.5, structure="circulant", seed=0, source="fixture")
        assert (row.target_kappa, row.matched, row.minpoly_residual) == ("1.500000000", True, 0.0)
        off = TableRow(n=5, kappa=1.6, structure="circulant", seed=0, source="fixture")
        assert not off.matched
        assert off.minpoly_residual == pytest.approx(0.2)

    def test_n22_beats_published_value(self):
        # the bundled two-circulant-block anneal witness is strictly below the table entry
        row = {r.n: r for r in reproduce_table(22, 22)}[22]
        assert row.kappa < TARGETS[22].kappa_value - 1e-3
        assert row.kappa == pytest.approx(1.4974930872, abs=5e-10)

    def test_builds_no_family_member(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("table built a family member")

        monkeypatch.setattr(families, "sds_search", refuse)
        monkeypatch.setattr(families, "conference_plus_identity", refuse)
        assert [r.n for r in reproduce_table(3, 30)] == sorted(TARGETS)

    def test_registry_candidates_used(self, tmp_path):
        reg = Registry(tmp_path)
        reg.update(anneal(6, StructureClass("two_block_circulant"), 0, 3000))
        rows = {r.n: r for r in reproduce_table(6, 6, registry=reg)}
        assert rows[6].matched  # fixture and registry agree at the optimum

    def test_fixture_wins_tie_with_registry(self, tmp_path):
        # the registry holds the fixture's own matrix, so kappa ties bit for bit
        fx = bundled_fixtures()[6]
        reg = Registry(tmp_path)
        reg.update(SearchRecord(structure=fx["class"],
                                kappa=condition_number(fx["matrix"]).kappa,
                                matrix=fx["matrix"], seed=99, effort={"mode": "test"}))
        row = reproduce_table(6, 6, registry=reg)[0]
        assert (row.source, row.structure, row.seed) == ("fixture", fx["class"], fx["seed"])

    def test_rows_name_a_class_and_a_source(self):
        rows = reproduce_table(3, 30)
        assert [r.n for r in rows] == sorted(TARGETS)
        for r in rows:
            StructureClass.parse(r.structure)
            assert r.source in ("fixture", "registry", "anneal"), r
        by_n = {r.n: r for r in rows}
        # the fixtures at rows 3 and 5 are exact optima in the published class
        assert {(by_n[n].source, by_n[n].structure) for n in (3, 5)} == {("fixture", "circulant")}
        assert by_n[17].source == "anneal"
        # the orbit-search witnesses are not symmetric
        assert {(by_n[n].source, by_n[n].structure) for n in (15, 25)} == {("fixture", "general")}

    def test_registry_wins_tie_with_anneal(self, tmp_path):
        # the registry holds the seed-0 anneal itself, so the panel's anneal ties it
        reg = Registry(tmp_path)
        reg.update(anneal(17, StructureClass("symmetric"), 0, 500))
        row = reproduce_table(17, 17, registry=reg, anneal_budget=500, seeds=(0,))[0]
        assert (row.source, row.seed) == ("registry", 0)

    def test_registry_entry_skips_the_fallback_anneal(self, tmp_path, monkeypatch):
        reg = Registry(tmp_path)
        reg.update(anneal(17, StructureClass("symmetric"), 0, 500))

        def refuse(*args):
            raise AssertionError("table ran a fallback anneal")

        monkeypatch.setattr(table, "anneal", refuse)
        row = reproduce_table(17, 17, registry=reg)[0]
        assert (row.source, row.seed) == ("registry", 0)

    def test_fresh_anneal_path(self):
        rows = reproduce_table(7, 7, anneal_budget=4000, seeds=(0, 1))
        assert rows[0].n == 7 and rows[0].matched

    def test_seeds_alone_run_the_panel(self):
        # no cheap witness at n = 17, so the given seed is the only anneal run
        rows = reproduce_table(17, 17, seeds=(3,))
        assert (rows[0].source, rows[0].seed) == ("anneal", 3)

    def test_budget_alone_sets_the_fallback_budget(self, monkeypatch):
        calls = []

        def traced(n, sclass, seed, budget):
            calls.append((n, seed, budget))
            return anneal(n, sclass, seed, budget)

        monkeypatch.setattr(table, "anneal", traced)
        reproduce_table(17, 17, anneal_budget=100)
        assert calls == [(17, 0, 100)]

    def test_parses_only_the_fixtures_of_its_rows(self, monkeypatch):
        parsed = []
        parse = table.parse_sign_matrix

        def counted(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(table, "parse_sign_matrix", counted)
        rows = reproduce_table(13, 14)
        assert [(r.n, r.source) for r in rows] == [(13, "fixture"), (14, "fixture")]
        assert len(parsed) == 2
        assert len(bundled_fixtures()) == len(parsed) - 2 == 20

    def test_csv_shape(self):
        rows = reproduce_table(3, 10)
        csv_text = table_csv(rows)
        lines = csv_text.splitlines()
        assert lines[0] == "n,kappa,target_kappa,matched,structure,minpoly_residual,seed,source"
        assert len(lines) == 1 + len(rows)
        assert all(len(l.split(",")) == 8 for l in lines[1:])
