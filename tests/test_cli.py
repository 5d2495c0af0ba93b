import importlib
import inspect
import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from multispec import cli, errors, families, format_map, parser, poly, random_map
from multispec.cli import build_parser, main
from multispec.spectrum import DEFAULT_QUANTUM

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

    def test_lattes_level_5_exit_3(self, capsys):
        # lattes_mult2((1, 1)): its level-5 seeding leaves non-finite roots
        code, out, err = run(capsys, "spectrum",
                             "(0.125*z^4-0.25*z^2-z+0.125)/(0.5*z^3+0.5*z+0.5)",
                             "--max-period", "5")
        assert code == 3 and out == ""
        assert err.startswith("numeric failure: ") and "non-finite" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "spectrum", "z^2", "--max-period", "12")
        assert code == 3 and "numeric failure" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "z^2600+1", "--max-period", "1"),
        ("generate", "random", "--degree", "2600"),
    ], ids=["spectrum", "generate"])
    def test_map_past_budget_exit_3(self, capsys, argv):
        # refused as the map is built, before any root finding
        code, _, err = run(capsys, *argv)
        assert code == 3 and "level 1 needs 2601 points" in err

    @pytest.mark.parametrize("text, points", [
        # degree 90,000: 300 convolutions of 90,001 coefficients are never formed
        ("(z^300+1)^300", 90001),
        # the structural degree, before make_map's relative trim would read z^2+1
        ("1e-13*z^2500+z^2+1", 2501),
    ])
    def test_text_past_budget_is_refused_before_expansion(self, capsys, monkeypatch, text, points):
        def unexpected(node):
            raise AssertionError("the text was expanded")

        monkeypatch.setattr(parser, "expression_to_fraction", unexpected)
        code, out, err = run(capsys, "spectrum", text, "--max-period", "1")
        assert code == 3 and out == ""
        assert err == f"numeric failure: level 1 needs {points} points; cap is 2000\n"

    @pytest.mark.parametrize("text", ["(1e308*z^2+1)/(z+2)", "(1e300*z^2+1)/(z+2)"])
    def test_huge_coefficients_exit_2_without_warnings(self, capsys, text):
        # each numerator reaches the common-factor root finder, which once
        # overflowed on it; the pair is degenerate once normalized
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "spectrum", text, "--max-period", "2")
        assert code == 2 and out == ""
        assert err == "error: normalized degree-2 pair has |resultant| <= 1e-12\n"

    @pytest.mark.parametrize("text, degree", [
        ("(1e308*z^3+z+1)/(z^2+2)", 3), ("(z^3+1e-300*z+1e308)/(z^2-2)", 2),
    ])
    def test_huge_coefficients_stop_without_warnings(self, capsys, text, degree):
        # the first reaches the cluster refinement, whose Newton step
        # overflows; the second trims to a constant numerator, a monomial
        # whose resultant is the closed form with no Sylvester matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "spectrum", text, "--max-period", "2")
        assert code == 2 and out == ""
        assert err == f"error: normalized degree-{degree} pair has |resultant| <= 1e-12\n"

    def test_complex_entries_in_the_table(self, capsys):
        # the imaginary part is printed with its sign; dust below 1e-12 is not
        code, out, _ = run(capsys, "spectrum", "z^2+i", "--max-period", "2")
        assert code == 0
        level1, level2 = out.splitlines()[1:]
        assert level1.endswith("+4i, 0") and level2.endswith("-512i, 0")
        assert level2.startswith("  level 2: 12, 80, 128, ")

    @pytest.mark.parametrize("measured", [-math.inf, poly.RESULTANT_LAW_RANGE],
                             ids=["singular", "law-broken"])
    def test_composition_past_double_precision_exit_3(self, capsys, monkeypatch, measured):
        compose = spectrum_module.compose

        def failing(f, g):
            # the maps are built; only this composition measures the bad resultant
            with monkeypatch.context() as patch:
                patch.setattr(poly, "_log_resultant", lambda p, q, degree: measured)
                return compose(f, g)

        monkeypatch.setattr(spectrum_module, "compose", failing)
        code, out, err = run(capsys, "spectrum", "z^2+1", "--max-period", "2")
        assert code == 3 and out == ""
        assert err.startswith("numeric failure: ") and "composition" in err


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

    def test_huge_coefficient_prints_only_the_error(self, capsys):
        # the common-factor root finder must not overflow on 1e308 z^2 / z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "compare", "((z)*((z)*(1e308)))/(z)", "1e-300",
                                 "--max-period", "3")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: effective degree 1 after reduction; need >= 2"]


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

    @pytest.mark.parametrize("box, realizable, degenerate", [
        ("1e6", 3, 6), ("1e50", 1, 8),
    ])
    def test_unbuildable_cells_are_degenerate(self, capsys, box, realizable, degenerate):
        # at these scales make_map refuses most normal forms (a tiny
        # resultant, or a degree that drops after reduction); each such cell
        # is reported, and the scan goes on
        code, out, _ = run(capsys, "fiber-scan", "--grid", "3", "--box", box,
                           "--format", "records")
        assert code == 0
        cells = [dict(kv.split("=", 1) for kv in l.split()[1:])
                 for l in out.splitlines() if l.startswith("cell ")]
        assert len(cells) == 9
        summary = [l for l in out.splitlines() if l.startswith("summary ")]
        assert f"realizable={realizable} degenerate={degenerate} " in summary[0]
        ok = [c for c in cells if c["status"] == "ok"]
        assert len(ok) == realizable
        for c in ok:
            s1, s2 = float(c["s1"]), float(c["s2"])
            target = (complex(s1), complex(s2), complex(s1 - 2.0))
            m = families.invert_sigma(families.MilnorPoint(*target))
            _, dist = spectrum_module.compare_spectra(
                spectrum_module.spectrum(m, 1),
                spectrum_module.MultiplierSpectrum(2, 1, (target,)))
            assert c["roundtrip_err"] == cli._fmt_real(dist)

    def test_box_with_infinite_span_exit_2(self, capsys):
        # 2 * 1e308 overflows: the grid would hold inf and nan, so the box
        # is refused before numpy sees it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fiber-scan", "--grid", "3", "--box", "1e308")
        assert code == 2 and out == ""
        assert "--box" in err and "Traceback" not in err

    def test_unsupported_degree(self, capsys):
        # level-1 inversion exists for quadratics only, so there is no option
        with pytest.raises(SystemExit) as exc:
            main(["fiber-scan", "--degree", "3"])
        assert exc.value.code == 2


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

    def test_skipped_reason_is_a_json_string(self, capsys, tmp_path):
        store = tmp_path / "s.cat"
        run(capsys, "catalog", "add", "--store", str(store), "--map", "z^2",
            "--max-period", "2", "--created-at", STAMP)
        line = store.read_text().splitlines()[1]
        assert '"quantum":1e-06' in line
        with open(store, "a") as fh:
            fh.write(line.replace('"quantum":1e-06', '"quantum":"\\""') + "\n")
        code, out, _ = run(capsys, "catalog", "query", "--store", str(store), "--map", "z^2",
                           "--max-period", "2", "--format", "records")
        assert code == 0
        record = out.splitlines()[0]
        assert record.startswith("skipped line=3 reason=")
        reason = json.loads(record.split(" reason=", 1)[1])
        assert reason == "bad field: could not convert string to float: '\"'"

    def test_final_line_torn_mid_character_spoils_only_itself(self, capsys, tmp_path):
        store = tmp_path / "s.cat"
        add = ["catalog", "add", "--store", str(store), "--max-period", "2",
               "--created-at", STAMP, "--map"]
        run(capsys, *add, "z^2")
        with open(store, "ab") as fh:
            fh.write('{"id": "dead", "tags": ["爆'.encode()[:-1])
        warning = "skipped corrupt line 3: not valid UTF-8: unexpected end of data"
        code, out, err = run(capsys, "catalog", "query", "--store", str(store),
                             "--map", "z^2", "--max-period", "2")
        assert code == 0 and "1 hit(s)" in out and warning in err
        code, out, _ = run(capsys, *add, "z^3")
        assert code == 0 and "added" in out
        code, out, err = run(capsys, "catalog", "scan", "--store", str(store))
        assert code == 0 and warning in err
        lines = store.read_bytes().split(b"\n")
        assert len(lines) == 5 and lines[3].startswith(b'{"id":"') and lines[4] == b""

    def test_re_add_with_other_stamp_is_a_no_op(self, capsys, tmp_path):
        store = tmp_path / "s.cat"
        add = ["catalog", "add", "--store", str(store), "--map", "z^2", "--max-period", "2"]
        run(capsys, *add, "--created-at", STAMP)
        before = store.read_bytes()
        for stamp in (["--created-at", "2026-08-09T00:00:00+00:00"], []):
            code, _, _ = run(capsys, *add, *stamp)
            assert code == 0
            assert store.read_bytes() == before

    def test_re_add_with_other_tags_exit_2(self, capsys, tmp_path):
        store = tmp_path / "s.cat"
        add = ["catalog", "add", "--store", str(store), "--map", "z^2", "--max-period", "2",
               "--created-at", STAMP]
        run(capsys, *add)
        before = store.read_bytes()
        code, _, err = run(capsys, *add, "--tags", "power")
        assert code == 2 and "already stored" in err
        assert store.read_bytes() == before

    def test_parser_is_built_once_and_keeps_no_options(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        store = tmp_path / "s.cat"
        add = ["catalog", "add", "--store", str(store), "--max-period", "2",
               "--created-at", STAMP, "--map"]
        assert run(capsys, *add, "z^2", "--tags", "a", "b", "--quantum", "1e-3")[0] == 0
        assert run(capsys, *add, "z^3")[0] == 0
        first, second = (json.loads(line) for line in store.read_text().splitlines()[1:])
        assert (first["tags"], first["quantum"]) == (["a", "b"], 1e-3)
        assert (second["tags"], second["quantum"]) == ([], DEFAULT_QUANTUM)

    def test_missing_store_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "catalog", "scan", "--store", str(tmp_path / "none.cat"))
        assert code == 2 and err.startswith("error:")

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

    @pytest.mark.parametrize("command", ["add", "query"])
    @pytest.mark.parametrize("quantum", ["1e-19", "1e-320"])
    def test_quantum_too_fine_exit_2(self, capsys, tmp_path, command, quantum):
        # 1e-19 puts a cell index past int64, 1e-320 makes entry / step inf
        store = tmp_path / "s.cat"
        run(capsys, "catalog", "add", "--store", str(store), "--map", "z^2",
            "--max-period", "2", "--created-at", STAMP)
        before = store.read_bytes()
        code, out, err = run(capsys, "catalog", command, "--store", str(store),
                             "--map", "z^2+1", "--max-period", "2", "--quantum", quantum)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"at quantum {quantum}" in err
        assert "Traceback" not in err
        assert store.read_bytes() == before


# level 8 of M12 holds a finite entry whose modulus is past the double
# range, and level 7 of M6 one of modulus >= 2**1023.5; both levels also
# hold inf entries, so the right answer is the numeric exit 3
M12 = format_map(random_map(2, 12))
M6 = format_map(random_map(2, 6))


class TestEntryRule:
    @pytest.mark.parametrize("argv, refusal", [
        # compare's exit 1 would call a map different from itself
        (["compare", M12, M12, "--max-period", "8"], "cannot compare spectrum entries"),
        (["classify", M12, "--max-period", "8", "--from-spectrum"],
         "cannot count zero multipliers"),
        # zero counts read off the inf and nan entries left a remainder of -1
        (["classify", "z^2", "--max-period", "8", "--from-spectrum"],
         "cannot count zero multipliers"),
    ], ids=["compare-M12", "classify-M12", "classify-z^2"])
    def test_non_finite_level_exit_3(self, capsys, argv, refusal):
        code, _, err = run(capsys, *argv)
        assert code == 3 and refusal in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, max_period", [(M12, 8), (M6, 7)], ids=["M12", "M6"])
    def test_catalog_add_exit_3(self, capsys, tmp_path, text, max_period):
        store = tmp_path / "s.cat"
        code, _, err = run(capsys, "catalog", "add", "--store", str(store), "--map", text,
                           "--max-period", str(max_period), "--created-at", STAMP)
        assert code == 3 and "cannot quantize spectrum entry" in err
        assert "Traceback" not in err
        assert not store.exists()

    def test_quantum_too_coarse_exit_2(self, capsys, tmp_path):
        # the grid step overflows to inf; nan levels used to be stored
        store = tmp_path / "s.cat"
        run(capsys, "catalog", "add", "--store", str(store), "--map", "z^2",
            "--max-period", "2", "--created-at", STAMP)
        before = store.read_bytes()
        code, out, err = run(capsys, "catalog", "add", "--store", str(store), "--map", "z^2-3",
                             "--max-period", "4", "--quantum", "1e300")
        assert code == 2 and out == ""
        assert "has no grid cell at quantum 1e+300" in err and "Traceback" not in err
        assert store.read_bytes() == before


class TestOptionValidation:
    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "z^2", "--max-period", "0"], "--max-period must be >= 1"),
        (["compare", "z^2", "z^2", "--tol", "0"], "--tol must be positive"),
        (["catalog", "query", "--store", "x.cat", "--map", "z^2", "--quantum", "-1"],
         "--quantum must be positive"),
        (["fiber-scan", "--grid", "0"], "--grid must be >= 1"),
        # non-finite values: nan passes a bare `<= 0` test, inf a bare `> 0`
        (["compare", "z^2", "z^2", "--tol", "nan"], "--tol must be positive"),
        (["compare", "z^2", "z^2+1", "--tol", "inf"], "--tol must be positive"),
        (["catalog", "add", "--store", "x.cat", "--map", "z^2", "--quantum", "inf"],
         "--quantum must be positive"),
        (["catalog", "add", "--store", "x.cat", "--map", "z^2", "--quantum", "nan"],
         "--quantum must be positive"),
        (["fiber-scan", "--box", "nan"], "--box positive"),
        (["fiber-scan", "--box", "inf"], "--box positive"),
    ])
    def test_bad_values_exit_2(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "z^2", "--cluster-radius", "1e-7"],
        ["spectrum", "z^2", "--max-roots", "3000"],
        ["fiber-scan", "--max-period", "2"],
        ["catalog", "scan", "--store", "x.cat", "--map", "z^2"],
        ["catalog", "scan", "--store", "x.cat", "--max-period", "2"],
        ["catalog", "query", "--store", "x.cat", "--map", "z^2", "--tags", "a"],
    ])
    def test_unread_options_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, errors.MultispecError)]


def _instance(cls):
    """An instance of an error class, made from its __init__'s annotations."""
    if cls.__init__ is Exception.__init__:
        return cls("boom")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]  # after self
    return cls(*(param.annotation(1) for param in params))  # "1", 1 or 1.0


class TestExitCodes:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_error_class(self, capsys, monkeypatch, cls):
        def failing(text):
            raise _instance(cls)

        monkeypatch.setattr(cli, "rational_map_from_text", failing)
        code, out, err = run(capsys, "spectrum", "z^2")
        numeric = issubclass(cls, errors.NumericFailure)
        assert code == (3 if numeric else 2) and out == ""
        assert err.startswith("numeric failure: " if numeric else "error: ")

    def test_numeric_failures(self):
        assert {cls.__name__ for cls in ERROR_CLASSES
                if issubclass(cls, errors.NumericFailure)} == {
            "NumericFailure", "NoConvergence", "NonFiniteSpectrum", "BudgetExceeded",
            "SingularReduction", "ParabolicPresent", "InconsistentZeroCounts",
            "SpectraDiffer", "PrecisionExhausted",
        }


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("multispec ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


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
