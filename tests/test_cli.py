import importlib

import pytest

from multispec import format_map, random_map
from multispec.cli import main

# the package attribute `multispec.spectrum` is the function, not the module
spectrum_module = importlib.import_module("multispec.spectrum")

STAMP = "2026-08-08T00:00:00+00:00"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", "z^2", "--max-period", "2")
        assert code == 0
        assert "level 1: 2, 0, 0" in out
        assert "level 2: 12, 48, 64, 0, 0" in out

    def test_records_golden(self, capsys):
        code, out, _ = run(capsys, "spectrum", "z^2", "--max-period", "1",
                           "--format", "records")
        assert code == 0
        assert out.splitlines() == [
            "map text=z^2 degree=2",
            "spectrum level=1 count=3 values=2+0i,0+0i,0+0i",
        ]

    def test_length_flag(self, capsys):
        code, out, _ = run(capsys, "spectrum", "z^2", "--max-period", "1", "--length")
        assert code == 0
        assert "length 1: 2, 0, 0" in out

    def test_length_flag_shares_one_level_pass(self, capsys, monkeypatch):
        calls = []
        compose = spectrum_module.compose

        def counting(f, g):
            calls.append(1)
            return compose(f, g)

        monkeypatch.setattr(spectrum_module, "compose", counting)
        code, out, _ = run(capsys, "spectrum", "z^2-1", "--max-period", "3", "--length",
                           "--format", "records")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()].count("length") == 3
        assert len(calls) == 2  # levels 2 and 3, each composed once

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "z^2 +")
        assert code == 2 and "error" in err

    def test_degree_too_low_exit_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "(z^2+z)/(z+1)")
        assert code == 2 and "degree" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "spectrum", "z^2", "--max-period", "12")
        assert code == 3 and "numeric failure" in err


class TestCompareCommand:
    def test_elementary_pair_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "z^4+1", "(z^2+1)^2", "--max-period", "3")
        assert code == 0 and "EQUAL" in out

    def test_unequal_exit_1(self, capsys):
        code, out, _ = run(capsys, "compare", "z^2", "z^2+1")
        assert code == 1 and "DIFFERENT" in out

    def test_degree_mismatch_exit_2(self, capsys):
        code, _, err = run(capsys, "compare", "z^2", "z^3")
        assert code == 2


class TestGenerateCommand:
    def test_milnor(self, capsys):
        code, out, _ = run(capsys, "generate", "milnor", "--l1", "3", "--l2", "5")
        assert code == 0
        assert out.strip().startswith("(0.2*z^2+0.6")

    def test_lattes(self, capsys):
        code, out, _ = run(capsys, "generate", "lattes", "--a", "1", "--b", "0")
        assert code == 0
        assert "z^4" in out

    def test_elemtrans_prints_three_maps(self, capsys):
        code, out, _ = run(capsys, "generate", "elemtrans",
                           "--h1", "z^2+1", "--h2", "z^2")
        assert code == 0
        assert out.splitlines() == ["z^4+1", "z^4+2*z^2+1", "z^2"]

    def test_power_and_random(self, capsys):
        code, out, _ = run(capsys, "generate", "power", "--degree", "3")
        assert code == 0 and out.strip() == "z^3"
        code, out1, _ = run(capsys, "generate", "random", "--degree", "2", "--seed", "7")
        code, out2, _ = run(capsys, "generate", "random", "--degree", "2", "--seed", "7")
        assert out1 == out2


class TestClassifyCommand:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "classify", "z^2")
        assert code == 0 and "disjoint_type" in out and "[1, 1]" in out

    def test_basilica_with_spectrum_crosscheck(self, capsys):
        code, out, _ = run(capsys, "classify", "z^2-1", "--max-period", "4",
                           "--from-spectrum")
        assert code == 0
        assert "[1, 2]" in out and "agrees=True" in out

    def test_escaping(self, capsys):
        code, out, _ = run(capsys, "classify", "z^2+1")
        assert code == 0 and "not_pcf_within_budget" in out


class TestFiberScanCommand:
    def test_row_count_and_summary(self, capsys):
        code, out, _ = run(capsys, "fiber-scan", "--grid", "5", "--box", "2",
                           "--format", "records")
        assert code == 0
        lines = out.splitlines()
        cells = [l for l in lines if l.startswith("cell ")]
        assert len(cells) == 25
        summary = [l for l in lines if l.startswith("summary ")]
        assert len(summary) == 1 and "cells=25" in summary[0]

    def test_degenerate_cell_flagged_not_fatal(self, capsys):
        # a grid through (3, 3) hits the triple-root locus t^3 - 3t^2 + 3t - 1
        code, out, _ = run(capsys, "fiber-scan", "--grid", "15", "--box", "3.5",
                           "--format", "records")
        assert code == 0
        assert any("status=degenerate" in l for l in out.splitlines())

    def test_unsupported_degree(self, capsys):
        code, _, err = run(capsys, "fiber-scan", "--degree", "3")
        assert code == 2


class TestCatalogCommand:
    def test_add_query_scan_flow(self, capsys, tmp_path):
        store = str(tmp_path / "s.cat")
        for text in ("z^4+1", "(z^2+1)^2"):
            code, out, _ = run(capsys, "catalog", "add", "--store", store,
                               "--map", text, "--max-period", "3",
                               "--created-at", STAMP)
            assert code == 0 and "added" in out
        code, out, _ = run(capsys, "catalog", "query", "--store", store,
                           "--map", "z^4+1", "--max-period", "3")
        # the pinned stored digest of both maps (see test_spectrum)
        assert code == 0 and "2 hit(s) for digest a08ab888abba5d49" in out
        code, out, _ = run(capsys, "catalog", "scan", "--store", store)
        assert code == 0 and "1 collision group(s)" in out

    def test_tags_are_stored(self, capsys, tmp_path):
        import json

        store = tmp_path / "tagged.cat"
        code, _, _ = run(capsys, "catalog", "add", "--store", str(store),
                         "--map", "z^2", "--max-period", "2",
                         "--created-at", STAMP, "--tags", "power", "demo")
        assert code == 0
        record = json.loads(store.read_text().splitlines()[1])
        assert record["tags"] == ["power", "demo"]

    def test_corrupt_line_reported(self, capsys, tmp_path):
        store = tmp_path / "s.cat"
        run(capsys, "catalog", "add", "--store", str(store), "--map", "z^2",
            "--max-period", "2", "--created-at", STAMP)
        with open(store, "a") as fh:
            fh.write("{broken\n")
        code, out, err = run(capsys, "catalog", "scan", "--store", str(store))
        assert code == 0
        assert "skipped corrupt line 3" in err

    def test_missing_map_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "add", "--store", "/tmp/x.cat"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", [1, 3])
    def test_non_finite_spectrum_exit_3(self, capsys, tmp_path, seed):
        # level 4 of these quartics overflows to inf (seed 1) and nan (seed 3)
        store = tmp_path / "s.cat"
        code, _, err = run(capsys, "catalog", "add", "--store", str(store),
                           "--map", format_map(random_map(4, seed)),
                           "--max-period", "4", "--created-at", STAMP)
        assert code == 3 and "numeric failure" in err
        assert not store.exists()


class TestOptionValidation:
    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "z^2", "--max-period", "0"], "--max-period must be >= 1"),
        (["compare", "z^2", "z^2", "--tol", "0"], "--tol must be positive"),
        (["catalog", "scan", "--store", "x.cat", "--quantum", "-1"],
         "--quantum must be positive"),
        (["classify", "z^2", "--max-roots", "2"], "--max-roots must be >= 3"),
    ])
    def test_bad_values_exit_2(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err

    def test_root_finder_options_are_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "z^2", "--cluster-radius", "1e-7"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_records_are_byte_identical_across_runs(self, capsys, tmp_path):
        batches = []
        for run_index in range(2):
            store = str(tmp_path / f"run{run_index}.cat")
            chunks = []
            for argv in (
                ["spectrum", "z^2-1", "--max-period", "2", "--format", "records"],
                ["compare", "z^4+1", "(z^2+1)^2", "--max-period", "3",
                 "--format", "records"],
                ["classify", "z^2-1", "--max-period", "4", "--from-spectrum",
                 "--format", "records"],
                ["fiber-scan", "--grid", "4", "--box", "2", "--format", "records"],
                ["catalog", "add", "--store", store, "--map", "z^4+1",
                 "--max-period", "3", "--created-at", STAMP, "--format", "records"],
                ["catalog", "add", "--store", store, "--map", "(z^2+1)^2",
                 "--max-period", "3", "--created-at", STAMP, "--format", "records"],
                ["catalog", "scan", "--store", store, "--format", "records"],
            ):
                code = main(argv)
                assert code in (0, 1)
                chunks.append(capsys.readouterr().out)
            batches.append("".join(chunks))
        assert batches[0] == batches[1]
