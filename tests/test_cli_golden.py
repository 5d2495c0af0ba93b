"""Golden output of every CLI command, in both output formats.

Each case runs its commands in order through `cli.main`, on a fresh store
where it needs one, and compares each command's exit code, standard
output and standard error with the literal text in GOLDEN, byte for
byte. The figures are pinned bits of the numpy version CI installs.
"""

import pytest

from multispec import catalog_add, entry_for_map
from multispec.cli import main

STAMP = "2026-08-08T00:00:00+00:00"
FORMATS = ("table", "records")


def _corrupt_store(store):
    """One good record, then a line of bad JSON, a bad field and a torn character."""
    catalog_add(store, entry_for_map("z^2", 2, created_at=STAMP))
    with open(store, "ab") as fh:
        fh.write(b"{broken\n")
        fh.write(store.read_bytes().splitlines()[1].replace(b'"degree":2', b'"degree":"2"')
                 + b"\n")
        fh.write('{"id": "dead", "tags": ["爆'.encode()[:-1])


ADD = ["catalog", "add", "--store", "{store}", "--max-period", "3", "--created-at", STAMP]

# case -> (store set-up or None, commands); "{store}" stands for the store path
CASES = {
    "spectrum-length": (None, [["spectrum", "z^2-1", "--max-period", "2", "--length"]]),
    "compare-equal": (None, [["compare", "z^4+1", "(z^2+1)^2", "--max-period", "3"]]),
    "compare-different": (None, [["compare", "z^2", "z^2+1"]]),
    "compare-degree-mismatch": (None, [["compare", "z^2", "z^3"]]),
    "classify-from-spectrum": (None, [["classify", "z^2-1", "--max-period", "4",
                                       "--from-spectrum"]]),
    "fiber-scan": (None, [["fiber-scan", "--grid", "3", "--box", "2"]]),
    "generate-milnor": (None, [["generate", "milnor", "--l1", "3", "--l2", "5"]]),
    "generate-lattes": (None, [["generate", "lattes", "--a", "1", "--b", "0"]]),
    "generate-power": (None, [["generate", "power", "--degree", "3"]]),
    "generate-random": (None, [["generate", "random", "--degree", "2", "--seed", "7"]]),
    "generate-elemtrans": (None, [["generate", "elemtrans", "--h1", "z^2+1", "--h2", "z^2"]]),
    "catalog": (None, [
        [*ADD, "--map", "z^4+1"],
        [*ADD, "--map", "(z^2+1)^2", "--tags", "flip", "demo"],
        [*ADD, "--map", "z^4+1"],
        [*ADD, "--map", "z^4+1", "--tags", "other"],
        ["catalog", "query", "--store", "{store}", "--map", "z^4+1", "--max-period", "3"],
        ["catalog", "scan", "--store", "{store}"],
    ]),
    "catalog-corrupt": (_corrupt_store, [
        ["catalog", "query", "--store", "{store}", "--map", "z^2", "--max-period", "2"],
        ["catalog", "scan", "--store", "{store}"],
    ]),
    "error-parse": (None, [["spectrum", "z^2 +"]]),
    "error-degree-too-low": (None, [["spectrum", "(z^2+z)/(z+1)"]]),
    "error-budget": (None, [["spectrum", "z^2", "--max-period", "12"]]),
    "error-bad-option": (None, [["spectrum", "z^2", "--max-period", "0"]]),
}


def commands(case, fmt, store):
    """The case's command lines, after its store set-up has run."""
    setup, argvs = CASES[case]
    if setup is not None:
        setup(store)
    for argv in argvs:
        argv = [str(store) if arg == "{store}" else arg for arg in argv]
        if argv[0] != "generate":  # the one command without --format
            argv += ["--format", fmt]
        yield argv


# generate prints the same maps in either format, so it is run once
PARAMS = [(case, fmt) for case in CASES
          for fmt in (("table",) if case.startswith("generate") else FORMATS)]


@pytest.mark.parametrize("case, fmt", PARAMS)
def test_golden_output(capsys, tmp_path, case, fmt):
    results = []
    for argv in commands(case, fmt, tmp_path / "s.cat"):
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results == GOLDEN[case, fmt]


GOLDEN = {
    ("spectrum-length", "table"): [
        (0, "map z^2-1 (degree 2)\n"
            "  level 1: 2, -4, 0\n"
            "  level 2: 12, 16, 0, 0, 0\n"
            "  length 1: 4.472135955, 4, 0\n"
            "  length 2: 12, 16, 0, 0, 0\n",
            ""),
    ],
    ("spectrum-length", "records"): [
        (0, "map text=z^2-1 degree=2\n"
            "spectrum level=1 count=3 values=1.9999999999999993+0i,-3.9999999999999987+0i,0+0i\n"
            "spectrum level=2 count=5 values=11.999999999999986-2.0354385233285688e-48i,15.999999999999979-3.1098733356024701e-48i,0+0i,0+0i,0+0i\n"
            "length level=1 count=3 values=4.4721359549995787,3.9999999999999987,0\n"
            "length level=2 count=5 values=11.999999999999986,15.999999999999979,0,0,0\n",
            ""),
    ],
    ("compare-equal", "table"): [
        (0, "EQUAL (distance 1.163e-10, tol 1.0e-08, max_period 3)\n",
            ""),
    ],
    ("compare-equal", "records"): [
        (0, "compare map1=z^4+1 map2=z^4+2*z^2+1 max_period=3 tol=1e-08 equal=true distance=1.162997570723349e-10\n",
            ""),
    ],
    ("compare-different", "table"): [
        (1, "DIFFERENT (distance 1.269e+00, tol 1.0e-08, max_period 3)\n",
            ""),
    ],
    ("compare-different", "records"): [
        (1, "compare map1=z^2 map2=z^2+1 max_period=3 tol=1e-08 equal=false distance=1.2692307692307694\n",
            ""),
    ],
    ("compare-degree-mismatch", "table"): [
        (2, "",
            "error: cannot compare (d=2, n=3) with (d=3, n=3)\n"),
    ],
    ("compare-degree-mismatch", "records"): [
        (2, "",
            "error: cannot compare (d=2, n=3) with (d=3, n=3)\n"),
    ],
    ("classify-from-spectrum", "table"): [
        (0, "map z^2-1: disjoint_type\n"
            "  superattracting cycle periods: [1, 2]\n"
            "  critical point 0+0i: landed (cycle period 2)\n"
            "  critical point inf: landed (cycle period 1)\n"
            "  from spectrum: periods [1, 2] complete=True agrees=True\n",
            ""),
    ],
    ("classify-from-spectrum", "records"): [
        (0, "classification map=z^2-1 status=disjoint_type periods=1,2\n"
            "from_spectrum periods=1,2 complete=true agrees=true\n",
            ""),
    ],
    ("fiber-scan", "table"): [
        (0, "cell (0,0) s1=-2 s2=-2 ok 7.0216669371533975e-16\n"
            "cell (0,1) s1=-2 s2=0 ok 1.1801832636420706e-15\n"
            "cell (0,2) s1=-2 s2=2 ok 1.1957467920563633e-15\n"
            "cell (1,0) s1=0 s2=-2 ok 4.4411397155178042e-16\n"
            "cell (1,1) s1=0 s2=0 ok 1.2994827337208943e-15\n"
            "cell (1,2) s1=0 s2=2 ok 8.8991145241087413e-16\n"
            "cell (2,0) s1=2 s2=-2 ok 2.2204460492503126e-16\n"
            "cell (2,1) s1=2 s2=0 ok 0\n"
            "cell (2,2) s1=2 s2=2 ok 0\n"
            "summary cells=9 realizable=9 degenerate=0 worst_roundtrip_err=1.2994827337208943e-15\n",
            ""),
    ],
    ("fiber-scan", "records"): [
        (0, "cell row=0 col=0 s1=-2 s2=-2 status=ok roundtrip_err=7.0216669371533975e-16\n"
            "cell row=0 col=1 s1=-2 s2=0 status=ok roundtrip_err=1.1801832636420706e-15\n"
            "cell row=0 col=2 s1=-2 s2=2 status=ok roundtrip_err=1.1957467920563633e-15\n"
            "cell row=1 col=0 s1=0 s2=-2 status=ok roundtrip_err=4.4411397155178042e-16\n"
            "cell row=1 col=1 s1=0 s2=0 status=ok roundtrip_err=1.2994827337208943e-15\n"
            "cell row=1 col=2 s1=0 s2=2 status=ok roundtrip_err=8.8991145241087413e-16\n"
            "cell row=2 col=0 s1=2 s2=-2 status=ok roundtrip_err=2.2204460492503126e-16\n"
            "cell row=2 col=1 s1=2 s2=0 status=ok roundtrip_err=0\n"
            "cell row=2 col=2 s1=2 s2=2 status=ok roundtrip_err=0\n"
            "summary cells=9 realizable=9 degenerate=0 worst_roundtrip_err=1.2994827337208943e-15\n",
            ""),
    ],
    ("generate-milnor", "table"): [
        (0, "(0.2*z^2+0.6000000000000001*z)/(z+0.2)\n",
            ""),
    ],
    ("generate-lattes", "table"): [
        (0, "(0.25*z^4-0.5*z^2+0.25)/(z^3+z)\n",
            ""),
    ],
    ("generate-power", "table"): [
        (0, "z^3\n",
            ""),
    ],
    ("generate-random", "table"): [
        (0, "((0.4299663766524474-0.43785418949588206i)*z^2+(0.15305323977389945+0.9745495144623328i)*z+(0.7072230351097714-0.5329894547240128i))/((-0.10954051298577282+0.6067817581948428i)*z^2+(-0.9797733484144117+0.20011043385293983i)*z+(0.0351723259681156-0.0732716640976156i))\n",
            ""),
    ],
    ("generate-elemtrans", "table"): [
        (0, "z^4+1\n"
            "z^4+2*z^2+1\n"
            "z^2\n",
            ""),
    ],
    ("catalog", "table"): [
        (0, "added 8ede694348028566 (z^4+1, digest a08ab888abba5d49)\n",
            ""),
        (0, "added 7780d0b9fa98b78f (z^4+2*z^2+1, digest a08ab888abba5d49)\n",
            ""),
        (0, "added 8ede694348028566 (z^4+1, digest a08ab888abba5d49)\n",
            ""),
        (2, "",
            "error: id 8ede694348028566 already stored with different payload\n"),
        (0, "hit 8ede694348028566 z^4+1\n"
            "hit 7780d0b9fa98b78f z^4+2*z^2+1\n"
            "2 hit(s) for digest a08ab888abba5d49\n",
            ""),
        (0, "group 0 (digest a08ab888abba5d49):\n"
            "  8ede694348028566 z^4+1\n"
            "  7780d0b9fa98b78f z^4+2*z^2+1\n"
            "1 collision group(s)\n",
            ""),
    ],
    ("catalog", "records"): [
        (0, "added id=8ede694348028566 map=z^4+1 digest=a08ab888abba5d49\n",
            ""),
        (0, "added id=7780d0b9fa98b78f map=z^4+2*z^2+1 digest=a08ab888abba5d49\n",
            ""),
        (0, "added id=8ede694348028566 map=z^4+1 digest=a08ab888abba5d49\n",
            ""),
        (2, "",
            "error: id 8ede694348028566 already stored with different payload\n"),
        (0, "hit id=8ede694348028566 map=z^4+1 degree=4 max_period=3 digest=a08ab888abba5d49\n"
            "hit id=7780d0b9fa98b78f map=z^4+2*z^2+1 degree=4 max_period=3 digest=a08ab888abba5d49\n"
            "query digest=a08ab888abba5d49 hits=2\n",
            ""),
        (0, "collision group=0 id=8ede694348028566 map=z^4+1 digest=a08ab888abba5d49\n"
            "collision group=0 id=7780d0b9fa98b78f map=z^4+2*z^2+1 digest=a08ab888abba5d49\n"
            "scan groups=1\n",
            ""),
    ],
    ("catalog-corrupt", "table"): [
        (0, "hit 41ec82c988cdcfb1 z^2\n"
            "1 hit(s) for digest aca5e46dc4bb2fd0\n",
            "warning: skipped corrupt line 3: not valid JSON: Expecting property name enclosed in double quotes\n"
            "warning: skipped corrupt line 4: bad field: degree is not an integer\n"
            "warning: skipped corrupt line 5: not valid UTF-8: unexpected end of data\n"),
        (0, "0 collision group(s)\n",
            "warning: skipped corrupt line 3: not valid JSON: Expecting property name enclosed in double quotes\n"
            "warning: skipped corrupt line 4: bad field: degree is not an integer\n"
            "warning: skipped corrupt line 5: not valid UTF-8: unexpected end of data\n"),
    ],
    ("catalog-corrupt", "records"): [
        (0, 'skipped line=3 reason="not valid JSON: Expecting property name enclosed in double quotes"\n'
            'skipped line=4 reason="bad field: degree is not an integer"\n'
            'skipped line=5 reason="not valid UTF-8: unexpected end of data"\n'
            "hit id=41ec82c988cdcfb1 map=z^2 degree=2 max_period=2 digest=aca5e46dc4bb2fd0\n"
            "query digest=aca5e46dc4bb2fd0 hits=1\n",
            ""),
        (0, 'skipped line=3 reason="not valid JSON: Expecting property name enclosed in double quotes"\n'
            'skipped line=4 reason="bad field: degree is not an integer"\n'
            'skipped line=5 reason="not valid UTF-8: unexpected end of data"\n'
            "scan groups=0\n",
            ""),
    ],
    ("error-parse", "table"): [
        (2, "",
            "error: expected a value, got 'end of input' (offset 5)\n"),
    ],
    ("error-parse", "records"): [
        (2, "",
            "error: expected a value, got 'end of input' (offset 5)\n"),
    ],
    ("error-degree-too-low", "table"): [
        (2, "",
            "error: effective degree 1 after reduction; need >= 2\n"),
    ],
    ("error-degree-too-low", "records"): [
        (2, "",
            "error: effective degree 1 after reduction; need >= 2\n"),
    ],
    ("error-budget", "table"): [
        (3, "",
            "numeric failure: level 12 needs 4097 points; cap is 2000\n"),
    ],
    ("error-budget", "records"): [
        (3, "",
            "numeric failure: level 12 needs 4097 points; cap is 2000\n"),
    ],
    ("error-bad-option", "table"): [
        (2, "",
            "error: --max-period must be >= 1\n"),
    ],
    ("error-bad-option", "records"): [
        (2, "",
            "error: --max-period must be >= 1\n"),
    ],
}
