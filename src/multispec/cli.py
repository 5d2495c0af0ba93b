"""Command-line interface.

Exit codes are a stable contract: 0 success (and "equal" for compare),
1 compare found a difference, 2 usage or validation trouble, 3 numeric
failure. Machine output (--format records) is line-delimited: the first
token names the record type, the rest are key=value pairs in a fixed
order, floats with 17 significant digits. Runs with the same inputs and
seeds produce byte-identical records.
"""

from __future__ import annotations

import argparse
import fcntl
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import families as fam
from . import pcf
from .spectrum import (
    DEFAULT_QUANTUM,
    _length_spectrum,
    _multiplier_spectrum,
    compare_spectra,
    disjoint_type_from_spectrum,
    fingerprint,
    periodic_point_levels,
    spectrum,
    spectrum_level,
)
from .errors import (
    BudgetExceeded,
    CorruptEntry,
    DegenerateMap,
    DegenerateParameters,
    DegenerateTransform,
    DegreeTooLow,
    InconsistentZeroCounts,
    MapSyntaxError,
    NoConvergence,
    NonFiniteSpectrum,
    NotRealizable,
    ParabolicPresent,
    ShapeMismatch,
    SingularCurve,
    SingularReduction,
    SpectraDiffer,
)
from .parser import format_map, parse_complex
from .poly import DEFAULT_MAX_ROOTS, rational_map_from_text

USAGE_ERROR = 2
NUMERIC_ERROR = 3

_USAGE_ERRORS = (
    MapSyntaxError,
    DegreeTooLow,
    DegenerateMap,
    DegenerateTransform,
    ShapeMismatch,
    DegenerateParameters,
    NotRealizable,
    SingularCurve,
    CorruptEntry,
    ValueError,
)
_NUMERIC_ERRORS = (
    NoConvergence,
    NonFiniteSpectrum,
    BudgetExceeded,
    SingularReduction,
    ParabolicPresent,
    InconsistentZeroCounts,
    SpectraDiffer,
)


def _validate(args):
    """Reject bad option values; options a command lacks are not in `args`."""
    opts = vars(args)
    if opts.get("max_period", 1) < 1:
        raise ValueError("--max-period must be >= 1")
    for name in ("tol", "quantum"):
        if opts.get(name, 1.0) <= 0:
            raise ValueError(f"--{name} must be positive")
    if opts.get("max_roots", 3) < 3:
        raise ValueError("--max-roots must be >= 3")


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_real(re)}{sign}{_fmt_real(abs(im))}i"


def _emit_record(kind: str, fields: list[tuple[str, str]]):
    body = " ".join(f"{k}={v}" for k, v in fields)
    print(f"{kind} {body}")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    f = rational_map_from_text(args.map)
    # one level pass serves both records
    data = periodic_point_levels(f, args.max_period, args.max_roots)
    s = _multiplier_spectrum(f.degree, data)
    lengths = _length_spectrum(f.degree, data) if args.length else None
    if args.format == "records":
        _emit_record("map", [("text", format_map(f)), ("degree", str(f.degree))])
        for n, level in enumerate(s.levels, start=1):
            values = ",".join(_fmt_complex(e) for e in level)
            _emit_record("spectrum", [("level", str(n)), ("count", str(len(level))),
                                      ("values", values)])
        if lengths is not None:
            for n, level in enumerate(lengths.levels, start=1):
                values = ",".join(_fmt_real(e) for e in level)
                _emit_record("length", [("level", str(n)), ("count", str(len(level))),
                                        ("values", values)])
    else:
        print(f"map {format_map(f)} (degree {f.degree})")
        for n, level in enumerate(s.levels, start=1):
            print(f"  level {n}: " + ", ".join(_fmt_short(e) for e in level))
        if lengths is not None:
            for n, level in enumerate(lengths.levels, start=1):
                print(f"  length {n}: " + ", ".join(f"{v:.10g}" for v in level))
    return 0


def _fmt_short(z: complex) -> str:
    # table rendering only: hide imaginary dust below double precision
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        return f"{z.real:.10g}"
    return f"{z.real:.10g}{'+' if z.imag >= 0 else '-'}{abs(z.imag):.10g}i"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    f = rational_map_from_text(args.map1)
    g = rational_map_from_text(args.map2)
    sf = spectrum(f, args.max_period, args.max_roots)
    sg = spectrum(g, args.max_period, args.max_roots)
    equal, dist = compare_spectra(sf, sg, args.tol)
    if args.format == "records":
        _emit_record("compare", [
            ("map1", format_map(f)), ("map2", format_map(g)),
            ("max_period", str(args.max_period)), ("tol", _fmt_real(args.tol)),
            ("equal", "true" if equal else "false"), ("distance", _fmt_real(dist)),
        ])
    else:
        verdict = "EQUAL" if equal else "DIFFERENT"
        print(f"{verdict} (distance {dist:.3e}, tol {args.tol:.1e}, "
              f"max_period {args.max_period})")
    return 0 if equal else 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    kind = args.family
    if kind == "milnor":
        m = fam.milnor_quadratic(parse_complex(args.l1), parse_complex(args.l2))
        print(format_map(m))
    elif kind == "lattes":
        m = fam.lattes_mult2(fam.LattesParams(parse_complex(args.a), parse_complex(args.b)))
        print(format_map(m))
    elif kind == "power":
        print(format_map(fam.power_map(args.degree)))
    elif kind == "random":
        print(format_map(fam.random_map(args.degree, args.seed)))
    elif kind == "elemtrans":
        pair = fam.elementary_transform(
            rational_map_from_text(args.h1), rational_map_from_text(args.h2)
        )
        print(format_map(pair.f))
        print(format_map(pair.g))
        print(format_map(pair.witness))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {kind}")
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    f = rational_map_from_text(args.map)
    result = pcf.classify_disjoint_type(f, args.max_period)
    if args.format == "records":
        periods = ""
        if result.disjoint_type is not None:
            periods = ",".join(str(p) for p in result.disjoint_type.periods)
        _emit_record("classification", [
            ("map", format_map(f)), ("status", result.status.value),
            ("periods", periods),
        ])
    else:
        print(f"map {format_map(f)}: {result.status.value}")
        if result.disjoint_type is not None:
            print(f"  superattracting cycle periods: {list(result.disjoint_type.periods)}")
        for ev in result.evidence:
            cyc = f"period {ev.cycle.exact_period}" if ev.cycle else "none"
            print(f"  critical point {ev.critical_point}: {ev.fate.value} (cycle {cyc})")
    if args.from_spectrum:
        s = spectrum(f, args.max_period, args.max_roots)
        recovered = disjoint_type_from_spectrum(s)
        agrees = (result.status is pcf.Classification.DISJOINT_TYPE
                  and result.disjoint_type == recovered) or \
                 (result.status is not pcf.Classification.DISJOINT_TYPE)
        if args.format == "records":
            _emit_record("from_spectrum", [
                ("periods", ",".join(str(p) for p in recovered.periods)),
                ("complete", "true" if recovered.complete else "false"),
                ("agrees", "true" if agrees else "false"),
            ])
        else:
            print(f"  from spectrum: periods {list(recovered.periods)} "
                  f"complete={recovered.complete} agrees={agrees}")
    return 0


# ---------------------------------------------------------------------------
# fiber-scan
# ---------------------------------------------------------------------------

def cmd_fiber_scan(args) -> int:
    if args.degree != 2:
        raise ValueError("fiber scans support degree 2 only")
    n = args.grid
    box = args.box
    if n < 1 or box <= 0:
        raise ValueError("--grid must be >= 1 and --box positive")
    s1_values = np.linspace(-box, box, n)
    s2_values = np.linspace(-box, box, n)
    realizable = 0
    degenerate = 0
    worst = 0.0
    for i, s1 in enumerate(s1_values):
        for j, s2 in enumerate(s2_values):
            point = fam.MilnorPoint(complex(s1), complex(s2), complex(s1 - 2.0))
            try:
                m = fam.invert_sigma(point)
                level = spectrum_level(m, 1, args.max_roots)
                target = (point.sigma1, point.sigma2, point.sigma3)
                err = max(
                    abs(a - b) / max(1.0, abs(a), abs(b))
                    for a, b in zip(level, target)
                )
                realizable += 1
                worst = max(worst, err)
                status, err_text = "ok", _fmt_real(err)
            except (DegenerateParameters, NotRealizable):
                degenerate += 1
                status, err_text = "degenerate", ""
            if args.format == "records":
                _emit_record("cell", [
                    ("row", str(i)), ("col", str(j)),
                    ("s1", _fmt_real(s1)), ("s2", _fmt_real(s2)),
                    ("status", status), ("roundtrip_err", err_text),
                ])
            else:
                print(f"cell ({i},{j}) s1={s1:.6g} s2={s2:.6g} {status} {err_text}")
    summary = [
        ("cells", str(n * n)), ("realizable", str(realizable)),
        ("degenerate", str(degenerate)), ("worst_roundtrip_err", _fmt_real(worst)),
    ]
    if args.format == "records":
        _emit_record("summary", summary)
    else:
        print("summary " + " ".join(f"{k}={v}" for k, v in summary))
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    records = args.format == "records"
    if args.action == "add":
        entry = cat.entry_for_map(
            args.map, args.max_period, args.quantum,
            tags=args.tags or (), created_at=args.created_at,
            max_roots=args.max_roots,
        )
        store = Path(args.store)
        if not store.exists():
            store.write_text(cat.HEADER + "\n", encoding="utf-8")
        # single-writer contract: readers never need the lock
        with store.open("r+", encoding="utf-8") as lock_handle:
            fcntl.flock(lock_handle, fcntl.LOCK_EX)
            try:
                entry_id = cat.catalog_add(store, entry)
            finally:
                fcntl.flock(lock_handle, fcntl.LOCK_UN)
        if records:
            _emit_record("added", [("id", entry_id), ("map", entry.map_text),
                                   ("digest", entry.digest)])
        else:
            print(f"added {entry_id} ({entry.map_text}, digest {entry.digest})")
        return 0
    if args.action == "query":
        f = rational_map_from_text(args.map)
        fp = fingerprint(spectrum(f, args.max_period, args.max_roots), args.quantum)
        result = cat.catalog_query(args.store, fp, f.degree, args.max_period)
        _report_skipped(result.skipped, records)
        if records:
            for e in result.entries:
                _emit_record("hit", [("id", e.id), ("map", e.map_text),
                                     ("degree", str(e.degree)),
                                     ("max_period", str(e.max_period)),
                                     ("digest", e.digest)])
            _emit_record("query", [("digest", fp.hex_digest),
                                   ("hits", str(len(result.entries)))])
        else:
            for e in result.entries:
                print(f"hit {e.id} {e.map_text}")
            print(f"{len(result.entries)} hit(s) for digest {fp.hex_digest}")
        return 0
    if args.action == "scan":
        result = cat.catalog_scan_collisions(args.store)
        _report_skipped(result.skipped, records)
        if records:
            for gi, group in enumerate(result.groups):
                for e in group:
                    _emit_record("collision", [("group", str(gi)), ("id", e.id),
                                               ("map", e.map_text),
                                               ("digest", e.digest)])
            _emit_record("scan", [("groups", str(len(result.groups)))])
        else:
            for gi, group in enumerate(result.groups):
                print(f"group {gi} (digest {group[0].digest}):")
                for e in group:
                    print(f"  {e.id} {e.map_text}")
            print(f"{len(result.groups)} collision group(s)")
        return 0
    raise ValueError(f"unknown catalog action {args.action}")  # pragma: no cover


def _report_skipped(skipped, records: bool):
    for line_no, reason in skipped:
        if records:
            _emit_record("skipped", [("line", str(line_no)), ("reason", f'"{reason}"')])
        else:
            print(f"warning: skipped corrupt line {line_no}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="multispec",
        description="Multiplier spectra of rational maps: compute, compare, classify, catalog.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, max_period_default=3):
        p.add_argument("--max-period", dest="max_period", type=int,
                       default=max_period_default,
                       help="highest period level to use")
        p.add_argument("--max-roots", dest="max_roots", type=int,
                       default=DEFAULT_MAX_ROOTS, help="periodic point budget")
        p.add_argument("--format", choices=("table", "records"), default="table",
                       help="human table or machine records")

    p = sub.add_parser("spectrum", help="print the multiplier spectrum of a map")
    p.add_argument("map")
    p.add_argument("--length", action="store_true", help="also print the length spectrum")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="compare two maps' spectra")
    p.add_argument("map1")
    p.add_argument("map2")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="emit maps from the named families")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("milnor", help="quadratic with prescribed fixed multipliers")
    g.add_argument("--l1", required=True)
    g.add_argument("--l2", required=True)
    g.set_defaults(func=cmd_generate)
    g = gsub.add_parser("lattes", help="duplication map of y^2 = x^3 + a x + b")
    g.add_argument("--a", required=True)
    g.add_argument("--b", required=True)
    g.set_defaults(func=cmd_generate)
    g = gsub.add_parser("power", help="z^d")
    g.add_argument("--degree", type=int, required=True)
    g.set_defaults(func=cmd_generate)
    g = gsub.add_parser("random", help="seeded random map")
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)
    g = gsub.add_parser("elemtrans", help="h1 o h2 / h2 o h1 pair with witness")
    g.add_argument("--h1", required=True)
    g.add_argument("--h2", required=True)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="critical-orbit classification")
    p.add_argument("map")
    p.add_argument("--from-spectrum", dest="from_spectrum", action="store_true",
                   help="cross-check the type recovered from the spectrum")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fiber-scan", help="level-1 inversion scan over a grid")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--box", type=float, default=2.0)
    common(p, max_period_default=1)
    p.set_defaults(func=cmd_fiber_scan)

    p = sub.add_parser("catalog", help="fingerprint store operations")
    p.add_argument("action", choices=("add", "query", "scan"))
    p.add_argument("--store", required=True)
    p.add_argument("--map", help="map text (for add and query)")
    p.add_argument("--quantum", type=float, default=DEFAULT_QUANTUM)
    p.add_argument("--tags", nargs="*", default=None)
    p.add_argument("--created-at", dest="created_at", default=None,
                   help="fixed RFC 3339 timestamp for reproducible stores")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action in ("add", "query") and not args.map:
        parser.error("catalog add/query needs --map")
    try:
        _validate(args)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
