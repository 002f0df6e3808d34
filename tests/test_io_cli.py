import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import approxhad.cli as cli
import approxhad.table as table
from approxhad.certify import SCHEMA, CertifyReport, certify, detect_gram_class
from approxhad.constructions import sylvester
from approxhad.families import circulant, conference_plus_identity, sds_block_matrix, sds_search
from approxhad.linalg import IntPolynomial, SignMatrix, condition_number
from approxhad.lower_bound import CliqueCertificate, verify_certificate
from approxhad.matrixio import (
    ParseError,
    parse_sign_matrix,
    parse_sign_matrix_csv,
    write_orth_csv,
    write_sign_matrix,
)
from approxhad.search import Registry, StructureClass, anneal
from approxhad.table import bundled_fixtures


class TestParser:
    def test_h2(self):
        A = parse_sign_matrix("++\n+-\n")
        assert A.entries.tolist() == [[1, 1], [1, -1]]

    def test_3x3(self):
        A = parse_sign_matrix("+++\n+-+\n++-\n")
        assert A.entries.tolist() == [[1, 1, 1], [1, -1, 1], [1, 1, -1]]

    def test_no_trailing_newline(self):
        assert parse_sign_matrix("++\n+-").n == 2

    def test_crlf(self):
        assert parse_sign_matrix("++\r\n+-\r\n").n == 2

    def test_illegal_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_sign_matrix("++\n+x\n")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_ragged(self):
        with pytest.raises(ParseError) as exc:
            parse_sign_matrix("++\n+\n")
        assert exc.value.line == 2

    def test_csv_ragged(self):
        with pytest.raises(ParseError) as exc:
            parse_sign_matrix_csv("1,1\n1\n")
        assert exc.value.line == 2

    def test_non_square(self):
        with pytest.raises(ParseError):
            parse_sign_matrix("++\n")

    def test_roundtrip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            A = SignMatrix(rng.integers(0, 2, (n, n)) * 2 - 1)
            text = write_sign_matrix(A)
            assert text.endswith("\n") and "\r" not in text
            B = parse_sign_matrix(text)
            assert np.array_equal(A.entries, B.entries)
            assert write_sign_matrix(B) == text

    @pytest.mark.parametrize("n", [1, 2, 5, 92])
    def test_writer_matches_the_per_entry_form(self, n):
        A = SignMatrix(np.random.default_rng(n).integers(0, 2, (n, n)) * 2 - 1)
        per_entry = "\n".join(
            "".join("+" if v > 0 else "-" for v in row) for row in A.entries
        ) + "\n"
        assert write_sign_matrix(A).encode("ascii") == per_entry.encode("ascii")

    def test_csv_variant(self):
        A = parse_sign_matrix_csv("1,-1\n1,1\n")
        assert A.entries.tolist() == [[1, -1], [1, 1]]

    @pytest.mark.parametrize("parse", [parse_sign_matrix, parse_sign_matrix_csv])
    def test_empty_input(self, parse):
        with pytest.raises(ParseError, match="empty input"):
            parse("")

    def test_csv_skips_blank_rows(self):
        assert parse_sign_matrix_csv("1,1\n\n1,-1\n").entries.tolist() == [[1, 1], [1, -1]]

    def test_csv_non_integer(self):
        with pytest.raises(ParseError, match="non-integer CSV value at line 1") as exc:
            parse_sign_matrix_csv("1,x")
        assert exc.value.line == 1

    def test_orth_csv_roundtrip(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        text = write_orth_csv(q)
        back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
        assert np.array_equal(back, q)  # 17 significant digits: exact


class TestCertify:
    def test_barba5(self):
        report = certify(SignMatrix(circulant([1, 1, 1, 1, -1])),
                         minpoly=IntPolynomial((-3, 2)))
        d = report.to_dict()
        assert d["schema"] == SCHEMA
        assert d["kappa"]["dec"] == "1.500000000"
        assert d["gram_class"] == "barba"
        assert d["clique_certificate"] == {
            "n": 5, "k": 5, "sign": "positive", "indices": [0, 1, 2, 3, 4],
            "bound": {"dec": "1.500000000", "hex": "0x1.8000000000000p+0"},
            "verified": True,
        }
        assert abs(float.fromhex(d["minpoly"]["residual"]["hex"])) <= 1e-12
        assert d["bernstein"] is None
        assert list(d) == ["schema", "n", "kappa", "sigma_min", "sigma_max", "gram_class",
                           "clique_certificate", "minpoly", "bernstein"]

    def test_gram_class_detection(self):
        assert detect_gram_class(sylvester(3)) == "hadamard"
        assert detect_gram_class(sds_block_matrix(sds_search(5)[0]).matrix) == "sds_block"
        assert detect_gram_class(conference_plus_identity(6).matrix) == "conference_plus_I"
        rng = np.random.default_rng(8)
        assert detect_gram_class(SignMatrix(np.ones((3, 3)))) == "none"

    def test_gram_class_of_every_fixture(self):
        expected = {5: "barba", 13: "barba", 25: "barba", 6: "sds_block", 10: "sds_block",
                    14: "sds_block", 18: "sds_block"}
        fixtures = bundled_fixtures()
        assert len(fixtures) == 20
        for n, fx in fixtures.items():
            assert detect_gram_class(fx["matrix"]) == expected.get(n, "none"), n

    @pytest.mark.parametrize("n", [6, 10, 14, 18, 30])
    def test_conference_plus_identity_and_flips(self, n):
        A = conference_plus_identity(n).matrix
        assert detect_gram_class(A) == "conference_plus_I"
        # a diagonal flip, an off-diagonal flip, and a symmetric pair of
        # flips that keeps C symmetric but breaks C^T C = (n-1) I
        for cells in ([(0, 0)], [(1, 2)], [(n - 1, n - 2)], [(1, 2), (2, 1)]):
            flipped = A.entries.copy()
            for i, j in cells:
                flipped[i, j] = -flipped[i, j]
            assert detect_gram_class(SignMatrix(flipped)) == "none", cells

    def test_report_prints_its_matrix_verified_clique(self):
        # a report once took its clique as given, and printed the clique
        # (0, 0, 5) at n = 3 as verified
        A = SignMatrix([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
        with pytest.raises(TypeError):
            CertifyReport(n=3, report=condition_number(A), gram_class="none",
                          clique=CliqueCertificate((0, 0, 5), "positive", 3))
        d = CertifyReport(A).to_dict()
        assert d == certify(A).to_dict()
        block = d["clique_certificate"]
        assert (block["n"], block["k"], block["verified"]) == (3, len(block["indices"]), True)
        verify_certificate(CliqueCertificate(tuple(block["indices"]), block["sign"], 3), A)

    def test_clique_above_kappa_raises_in_certify(self, monkeypatch):
        # kappa(H_4) = 1, so a clique of two columns claims too much; the
        # module comes from sys.modules, as the package's certify function
        # shadows its name
        monkeypatch.setattr(sys.modules["approxhad.certify"], "best_clique_certificate",
                            lambda A: CliqueCertificate((0, 1), "positive", A.n))
        with pytest.raises(AssertionError, match="unsound"):
            certify(sylvester(2))

    def test_clique_bound_below_kappa(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            A = SignMatrix(rng.integers(0, 2, (n, n)) * 2 - 1)
            report = certify(A)
            if math.isfinite(report.report.kappa):
                assert report.clique.bound <= report.report.kappa + 1e-9


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_construct_hadamard_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "hadamard", "--order", "12")
        assert code == 0
        A = parse_sign_matrix(out)
        assert A.n == 12
        assert detect_gram_class(A) == "hadamard"

    def test_construct_gap_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "hadamard", "--order", "92")
        assert code == 1
        assert "92" in err

    def test_construct_conference(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "conference", "--order", "6")
        assert code == 0
        assert out.splitlines()[0][0] == "0"

    def test_construct_family_barba13(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "family", "--order", "13",
                               "--kind", "barba")
        assert code == 0
        assert detect_gram_class(parse_sign_matrix(out)) == "barba"

    def test_construct_family_barba25(self, capsys, tmp_path):
        # refused until the orbit-search witness of order 25 shipped
        path = tmp_path / "barba25.mat"
        code, _, _ = run_cli(capsys, "construct", "family", "--order", "25",
                             "--kind", "barba", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "certify", "--input", str(path))
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["gram_class"], d["kappa"]["dec"]) == (25, "barba", "1.428869017")

    def test_construct_barba_parses_one_fixture(self, capsys, monkeypatch):
        # only the witness of the asked order is read, not all 20
        parsed = []
        parse = table.parse_sign_matrix
        monkeypatch.setattr(table, "parse_sign_matrix",
                            lambda text: parsed.append(text) or parse(text))
        code, _, _ = run_cli(capsys, "construct", "family", "--order", "13", "--kind", "barba")
        assert code == 0
        assert len(parsed) == 1

    @pytest.mark.parametrize("argv", [("table", "--min", "7", "--max", "7"),
                                      ("construct", "family", "--order", "13", "--kind", "barba")])
    def test_missing_fixture_index_is_an_error(self, capsys, monkeypatch, tmp_path, argv):
        # an install without fixtures/index.json once fell back silently:
        # table annealed every row and construct found "no bundled Barba witness"
        monkeypatch.setattr(table, "resources", types.SimpleNamespace(files=lambda _: tmp_path))
        with pytest.raises(FileNotFoundError):
            bundled_fixtures()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert str(tmp_path / "fixtures" / "index.json") in err

    @pytest.mark.parametrize("order", ["7", "11", "15", "19", "27"])
    def test_construct_sds_odd_order_is_domain_error(self, capsys, order):
        code, out, err = run_cli(capsys, "construct", "family", "--kind", "sds",
                                 "--order", order)
        assert (code, out) == (1, "")
        assert err == f"error: SDS block matrices have even order, not {order}\n"

    @pytest.mark.parametrize("kind", [(), ("--kind", "sds")])
    def test_construct_sds_order_2_is_domain_error(self, capsys, kind):
        code, out, err = run_cli(capsys, "construct", "family", "--order", "2", *kind)
        assert (code, out) == (1, "")
        assert err == "error: the SDS closed form sqrt((2n-2)/(n-2)) needs order >= 4, not 2\n"

    def test_construct_sds_without_a_pair_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "family", "--kind", "sds",
                                 "--order", "8")
        assert (code, out, err) == (1, "", "error: no two-circulant pair exists at order 8\n")

    @pytest.mark.parametrize("kind", [(), ("--kind", "barba")])
    def test_construct_barba_needs_barba_fixture(self, capsys, kind):
        # the bundled n = 9 witness is symmetric but not a Barba matrix
        code, out, err = run_cli(capsys, "construct", "family", "--order", "9", *kind)
        assert (code, out) == (1, "")
        assert err == "error: no bundled Barba witness at order 9\n"

    def test_construct_conference_plus_identity(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "family", "--kind",
                               "conference_plus_identity", "--order", "6")
        assert code == 0
        assert out == write_sign_matrix(conference_plus_identity(6).matrix)
        code, out, err = run_cli(capsys, "construct", "family", "--kind",
                                 "conference_plus_identity", "--order", "8")
        assert (code, out) == (1, "")
        assert err == ("error: no supported conference matrix of order 8: "
                       "q = 7 is not 1 mod 4\n")

    @pytest.mark.parametrize("argv,code,err", [
        (("catalog", "--max-order", "2"), 0, ""),
        (("flatten", "--n", "0"), 1, "error: order must be >= 1\n"),
        (("round", "--n", "5", "--trials", "0", "--seed", "0"), 2, None),
    ], ids=["catalog", "flatten-n0", "round-trials0"])
    def test_module_entry_point(self, argv, code, err):
        # python -m approxhad.cli, as the README documents, exits with main's code
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-m", "approxhad.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == code, out.stderr
        if err is not None:
            assert out.stderr == err

    def test_search_budget_default(self):
        from approxhad.search import DEFAULT_BUDGET

        args = cli.build_parser().parse_args(["search", "--n", "5"])
        assert args.budget == DEFAULT_BUDGET

    def test_table_seeds_parsed_as_seeds(self):
        args = cli.build_parser().parse_args(["table", "--seeds", "0,18446744073709551615"])
        assert args.seeds == (0, 2**64 - 1)

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "hadamard"])  # missing --order
        assert exc.value.code == 2

    def test_certify_file(self, capsys, tmp_path):
        path = tmp_path / "b5.mat"
        path.write_text(write_sign_matrix(SignMatrix(circulant([1, 1, 1, 1, -1]))))
        code, out, _ = run_cli(capsys, "certify", "--input", str(path),
                               "--minpoly=-3,2")
        assert code == 0
        d = json.loads(out)
        assert d["kappa"]["dec"] == "1.500000000"
        assert d["gram_class"] == "barba"
        assert d["clique_certificate"]["bound"]["dec"] == "1.500000000"

    def test_certify_csv_mode(self, capsys, tmp_path):
        path = tmp_path / "h4.mat"
        path.write_text(write_sign_matrix(sylvester(2)))
        code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--csv")
        assert code == 0
        assert out.startswith("key,value\n")
        assert "kappa,1.000000000" in out

    def test_certify_singular_matrix(self, capsys, tmp_path):
        path = tmp_path / "j2.mat"
        path.write_text("++\n++\n")
        code, out, _ = run_cli(capsys, "certify", "--input", str(path))
        assert code == 0
        d = json.loads(out)
        assert d["kappa"] == {"dec": "inf", "hex": "inf"}
        assert d["sigma_min"] == {"dec": "0.000000000", "hex": "0x0.0p+0"}
        code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--csv")
        assert code == 0
        assert "\nkappa,inf\n" in out

    def test_certify_singular_matrix_with_minpoly(self, capsys, tmp_path):
        path = tmp_path / "j2.mat"
        path.write_text("++\n++\n")
        code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--minpoly=-2,1")
        assert code == 0
        d = json.loads(out)
        assert d["kappa"] == {"dec": "inf", "hex": "inf"}
        assert d["gram_class"] == "conference_plus_I"
        assert d["clique_certificate"] == {
            "n": 2, "k": 2, "sign": "positive", "indices": [0, 1],
            "bound": {"dec": "1.732050808", "hex": "0x1.bb67ae8584caap+0"},
            "verified": True,
        }
        assert d["minpoly"] == {"coefficients": [-2, 1],
                                "residual": {"dec": "inf", "hex": "inf"}}

    def test_certify_zero_minpoly_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "b5.mat"
        path.write_text(write_sign_matrix(SignMatrix(circulant([1, 1, 1, 1, -1]))))
        code, out, err = run_cli(capsys, "certify", "--input", str(path), "--minpoly=0")
        assert (code, out, err) == (1, "", "error: polynomial must be nonzero\n")

    def test_certify_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--input", "/nonexistent.mat")
        assert code == 1

    def test_flatten_report(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, out, _ = run_cli(capsys, "flatten", "--n", "11", "--out", str(out_file))
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["m"], d["k"]) == (11, 12, 1)
        rows = out_file.read_text().splitlines()
        assert len(rows) == 11

    def test_round_determinism_across_workers(self, capsys):
        code1, out1, _ = run_cli(capsys, "round", "--n", "20", "--trials", "8",
                                 "--seed", "7", "--workers", "1")
        code8, out8, _ = run_cli(capsys, "round", "--n", "20", "--trials", "8",
                                 "--seed", "7", "--workers", "8")
        assert code1 == code8 == 0
        assert out1 == out8

    def test_round_agrees_across_blas_thread_counts(self, tmp_path):
        # the probes run in float32 through threaded BLAS, yet the trial, kappa
        # and matrix are exact; only empirical_E_norm's last bits may move
        # with the thread count (README, Reproducibility)
        def run(threads):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}.mat"
            proc = subprocess.run(
                [sys.executable, "-m", "approxhad.cli", "round", "--n", "116", "--trials", "64",
                 "--seed", "3", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            del report["empirical_E_norm"]
            return report, out.read_bytes()

        assert run("1") == run(None)

    def test_search_updates_registry(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "search", "--n", "6", "--structure", "two_block_circulant",
            "--seed", "0", "--budget", "2000", "--registry", str(tmp_path),
        )
        assert code == 0
        d = json.loads(out)
        assert d["stored"] is True
        reg = Registry(tmp_path)
        assert reg.best(6) is not None

    def test_search_registry_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.REGISTRY_ENV, str(tmp_path))
        code, out, _ = run_cli(capsys, "search", "--n", "5", "--structure",
                               "circulant", "--seed", "1", "--budget", "500")
        assert code == 0
        assert Registry(tmp_path).best(5) is not None

    def test_failed_out_leaves_the_registry_untouched(self, capsys, tmp_path):
        # --out was once written after the registry update, which stored the
        # record before the bad path failed
        code, out, err = run_cli(capsys, "search", "--n", "5", "--structure", "circulant",
                                 "--budget", "200", "--registry", str(tmp_path / "reg"),
                                 "--out", str(tmp_path / "missing" / "x.mat"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert not (tmp_path / "reg").exists()

    @pytest.mark.parametrize("command, n", [
        *(pytest.param("search", n, id=n) for n in ("0", "-3")),
        *((command, n) for command in ("flatten", "round") for n in ("0", "-3")),
    ])
    def test_search_order_below_one_is_domain_error(self, capsys, command, n):
        rest = ("--trials", "4", "--seed", "0") if command == "round" else ()
        code, out, err = run_cli(capsys, command, "--n", n, *rest)
        assert code == 1
        assert err == "error: order must be >= 1\n"

    @pytest.mark.parametrize("name,message", [
        ("block_circulant-3", "block_circulant needs a block size >= 1, got -3"),
        ("block_circulantx", "unknown structure class 'block_circulantx'"),
    ])
    def test_search_bad_structure_is_domain_error(self, capsys, name, message):
        code, out, err = run_cli(capsys, "search", "--n", "27", "--structure", name)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_search_and_certify_print_the_same_kappa(self, capsys, tmp_path):
        path = tmp_path / "m.mat"
        code, out, _ = run_cli(capsys, "search", "--n", "18", "--structure",
                               "two_block_circulant", "--seed", "0", "--budget", "5000",
                               "--out", str(path))
        assert code == 0
        searched = json.loads(out)["kappa"]
        code, out, _ = run_cli(capsys, "certify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["kappa"] == searched
        assert searched["hex"] == "0x1.752e50db3a3a6p+0"

    def test_search_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--exhaustive")
        assert code == 0
        d = json.loads(out)
        assert d["kappa"]["dec"] == "2.000000000"

    def test_search_timestamp_isolated(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--structure",
                               "general", "--seed", "2", "--budget", "200")
        assert code == 0
        lines = out.splitlines()
        ts_lines = [l for l in lines if "timestamp" in l]
        assert len(ts_lines) == 1
        code2, out2, _ = run_cli(capsys, "search", "--n", "4", "--structure",
                                 "general", "--seed", "2", "--budget", "200")
        strip = lambda s: "\n".join(l for l in s.splitlines() if "timestamp" not in l)
        assert strip(out) == strip(out2)

    def test_table_subcommand(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "--min", "3", "--max", "7",
                               "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,kappa,target_kappa,matched,structure,minpoly_residual,seed,source"
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert rows[3][3] == "true"
        assert rows[5][3] == "true"
        assert rows[6][3] == "true"
        assert rows[7][3] == "true"

    def test_table_3_to_18_matched_rows(self, capsys, tmp_path):
        out_file = tmp_path / "t18.csv"
        code, _, _ = run_cli(capsys, "table", "--min", "3", "--max", "18",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        for n in (3, 5, 6, 10, 14, 18):
            assert rows[n][3] == "true", rows[n]
        # the best-found kappa never falls above a claimed "matched" target
        for n, cols in rows.items():
            if cols[3] == "true":
                assert abs(float(cols[1]) - float(cols[2])) <= 5e-10

    def test_catalog_dump(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--max-order", "64")
        assert code == 0
        rows = json.loads(out)
        orders = {r["order"] for r in rows}
        assert {1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64} <= orders


class TestPlot:
    def _fill_registry(self, root):
        reg = Registry(root)
        for n, seed in ((5, 0), (6, 0), (7, 0)):
            sclass = StructureClass("general" if n != 6 else "two_block_circulant")
            reg.update(anneal(n, sclass, seed=seed, budget=1500))
        return reg

    def test_plot_golden_bytes(self, capsys, tmp_path):
        self._fill_registry(tmp_path / "reg")
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert cli.main(["plot", "--registry", str(tmp_path / "reg"), "--out", str(out1)]) == 0
        assert cli.main(["plot", "--registry", str(tmp_path / "reg"), "--out", str(out2)]) == 0
        capsys.readouterr()
        svg = out1.read_bytes()
        assert svg == out2.read_bytes()  # deterministic bytes
        assert svg.startswith(b"<svg")
        assert b"circle" in svg and b"polyline" in svg

    def test_every_point_inside_the_axes(self, capsys, tmp_path):
        # an order-1 point once fell left of the y axis, at x = -80
        reg = str(tmp_path / "reg")
        for n, structure in (("1", "general"), ("5", "circulant")):
            assert run_cli(capsys, "search", "--n", n, "--structure", structure,
                           "--budget", "200", "--registry", reg)[0] == 0
        out = tmp_path / "p.svg"
        assert run_cli(capsys, "plot", "--registry", reg, "--out", str(out))[0] == 0
        svg = out.read_text()
        circles = re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)
        lines = re.findall(r'points="([^"]*)"', svg)
        xy = [tuple(map(float, c)) for c in circles]
        xy += [tuple(map(float, p.split(","))) for pts in lines for p in pts.split()]
        assert len(circles) >= 2
        assert all(60 <= x <= 620 and 20 <= y <= 435 for x, y in xy), xy

    def test_empty_registry_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot", "--registry", str(tmp_path / "nothing"),
                               "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "empty" in err

    def test_empty_registry_flag_is_no_registry(self, capsys, tmp_path, monkeypatch):
        # an empty --registry once plotted the working directory
        Registry(tmp_path).update(anneal(5, StructureClass("circulant"), seed=0, budget=200))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.REGISTRY_ENV, raising=False)
        code, _, err = run_cli(capsys, "plot", "--registry=", "--out", "k.svg")
        assert code == 1
        assert "registry" in err
        assert not (tmp_path / "k.svg").exists()
        # as in search and table, the environment variable stands in for it
        monkeypatch.setenv(cli.REGISTRY_ENV, str(tmp_path))
        assert run_cli(capsys, "plot", "--registry=", "--out", "k.svg")[0] == 0
        assert (tmp_path / "k.svg").exists()

    def test_fixture_registry_matches_golden(self, tmp_path):
        import pathlib

        from approxhad.linalg import condition_number
        from approxhad.plotting import plot_kappa_curve
        from approxhad.search import SearchRecord
        from approxhad.table import bundled_fixtures

        reg = Registry(tmp_path / "reg")
        for n, fx in sorted(bundled_fixtures().items()):
            reg.update(SearchRecord(
                structure=fx["class"],
                kappa=condition_number(fx["matrix"]).kappa,
                matrix=fx["matrix"], seed=fx["seed"], effort={"mode": "fixture"},
            ))
        out = tmp_path / "kappa.svg"
        plot_kappa_curve(reg, str(out))
        golden = pathlib.Path(__file__).parent / "data" / "golden_kappa.svg"
        assert out.read_bytes() == golden.read_bytes()


# argv per malformed input; "{tmp}" is a directory holding the files below
MALFORMED = {
    "directory": ["certify", "--input", "{tmp}"],
    "non_utf8": ["certify", "--input", "{tmp}/bytes.mat"],
    "zero_one_csv": ["certify", "--input", "{tmp}/zero_one.csv"],
    "bad_minpoly": ["certify", "--input", "{tmp}/b5.mat", "--minpoly", "a,b"],
    "sds_odd_order": ["construct", "family", "--kind", "sds", "--order", "7"],
    "registry_is_file": ["search", "--n", "3", "--exhaustive", "--registry", "{tmp}/b5.mat"],
    "exhaustive_structured": ["search", "--n", "4", "--exhaustive", "--structure", "circulant"],
    "exhaustive_n7": ["search", "--n", "7", "--exhaustive"],
    "exhaustive_long_running": ["search", "--n", "5", "--exhaustive", "--long-running"],
    "round_seed_negative": ["round", "--n", "7", "--trials", "1", "--seed", "-1"],
    "round_seed_2_64": ["round", "--n", "7", "--trials", "1", "--seed", str(2**64)],
    "flatten_seed_text": ["flatten", "--n", "7", "--seed", "x"],
    "table_seeds_negative": ["table", "--min", "3", "--max", "3", "--seeds", "-1"],
    "table_seeds_text": ["table", "--min", "3", "--max", "3", "--seeds", "1,x"],
    "round_workers_zero": ["round", "--n", "7", "--trials", "1", "--seed", "0", "--workers", "0"],
    "round_workers_negative": ["round", "--n", "7", "--trials", "1", "--seed", "0",
                               "--workers", "-2"],
    "table_anneal_budget_negative": ["table", "--min", "3", "--max", "3",
                                     "--anneal-budget", "-5", "--seeds", "1"],
    "table_anneal_budget_zero": ["table", "--min", "3", "--max", "3", "--anneal-budget", "0"],
    "catalog_max_order_negative": ["catalog", "--max-order", "-1"],
    "catalog_max_order_zero": ["catalog", "--max-order", "0"],
    # an empty --out or --minpoly is an error, not "not given"
    "construct_out_empty": ["construct", "hadamard", "--order", "4", "--out="],
    "flatten_out_empty": ["flatten", "--n", "7", "--out="],
    "round_out_empty": ["round", "--n", "7", "--trials", "1", "--seed", "0", "--out="],
    "search_out_empty": ["search", "--n", "3", "--exhaustive", "--out="],
    "table_out_empty": ["table", "--min", "3", "--max", "3", "--out="],
    "certify_minpoly_empty": ["certify", "--input", "{tmp}/b5.mat", "--minpoly="],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_or_2(capsys, tmp_path, case):
    (tmp_path / "bytes.mat").write_bytes(b"+-\n\xff\xfe\n")
    (tmp_path / "zero_one.csv").write_text("0,1\n1,0\n")
    (tmp_path / "b5.mat").write_text(write_sign_matrix(SignMatrix(circulant([1, 1, 1, 1, -1]))))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in MALFORMED[case]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code in (1, 2), (case, code)
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # argparse names the subcommand in its usage errors, and only the
    # program for an option that no subcommand has
    assert captured.err.splitlines()[-1].startswith(("error: ", "approxhad ",
                                                     "approxhad: error: "))


@pytest.mark.parametrize("argv", [
    ["round", "--n", "7", "--trials", "0", "--seed", "0"],
    ["round", "--n", "7", "--trials", "-3", "--seed", "0"],
    ["search", "--n", "5", "--structure", "circulant", "--budget", "0"],
    ["search", "--n", "5", "--structure", "circulant", "--budget", "-1"],
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    # like --workers and --anneal-budget: argparse refuses them with exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("must be >= 1")


def test_exhaustive_with_a_structure_is_a_usage_error(capsys, tmp_path):
    # exhaustive_min searches the general class only; it once ran anyway and
    # reported, and stored, its result as "general"
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--n", "4", "--exhaustive", "--structure", "circulant",
                  "--registry", str(tmp_path / "reg")])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "approxhad search: error: --exhaustive searches the general class, "
        "not --structure circulant")
    assert not (tmp_path / "reg").exists()
    assert cli.main(["search", "--n", "3", "--exhaustive", "--structure", "general"]) == 0


@pytest.mark.parametrize("what, order, kind", [("hadamard", 4, "sds"),
                                               ("conference", 6, "barba")])
def test_kind_outside_family_is_a_usage_error(capsys, what, order, kind):
    # --kind picks a family member; hadamard and conference once ignored it
    # and printed their matrix
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", what, "--order", str(order), "--kind", kind])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"approxhad construct: error: --kind applies to family, not {what}")
    assert cli.main(["construct", what, "--order", str(order)]) == 0
    assert cli.main(["construct", "family", "--order", "6", "--kind", "sds"]) == 0


def test_table_min_above_max_is_a_usage_error(capsys):
    # the empty range once printed the CSV header alone and exited 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--min", "20", "--max", "10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "approxhad table: error: --min 20 exceeds --max 10"
    assert cli.main(["table", "--min", "3", "--max", "3"]) == 0


def test_table_refuses_a_registry_matrix_of_another_order(capsys, tmp_path):
    # a 2 x 2 Hadamard matrix filed by hand under 7/ once gave row 7
    # kappa = 1.000000000, below the odd-order floor sqrt(4/3)
    slot = tmp_path / "7"
    slot.mkdir()
    (slot / "general-1.000000000-0.mat").write_text("++\n+-\n")
    entry = {"structure": "general", "kappa": 1.0, "kappa_str": "1.000000000", "seed": 0,
             "file": "general-1.000000000-0.mat", "effort": {}, "timestamp": "t"}
    (slot / "index.json").write_text(json.dumps({"best": {"general": entry},
                                                 "history": [entry]}))
    code, out, err = run_cli(capsys, "table", "--min", "7", "--max", "7",
                             "--registry", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == "error: registry file 7/general-1.000000000-0.mat has order 2, not 7\n"


@pytest.mark.parametrize("lo, hi", [(4, 4), (31, 40), (-3, 2)])
def test_table_range_without_a_target_is_a_usage_error(capsys, lo, hi):
    # a range holding no target order once printed the CSV header alone and exited 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--min", str(lo), "--max", str(hi)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"approxhad table: error: no target order in [{lo}, {hi}] (targets: 3, 5, 6, 7, 9, "
        "10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26, 27, 29, 30)")


def test_construct_conference_has_no_q_option(capsys):
    # the order alone fixes q = order - 1; a second way to give it is refused
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "conference", "--order", "6", "--q", "13"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "approxhad: error: unrecognized arguments: --q 13"
