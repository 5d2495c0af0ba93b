"""Command-line interface.

Exit codes are a stable contract: 0 success (and "equal" for compare),
1 compare found a difference, 2 usage, validation or file trouble, 3
numeric failure (any `errors.NumericFailure`). Machine output (--format
records) is line-delimited: the first token names the record type, the
rest are key=value pairs in a fixed order, floats with 17 significant
digits. Runs with the same inputs and seeds produce byte-identical records.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import catalog as cat
from . import families as fam
from . import pcf
from .spectrum import (
    DEFAULT_QUANTUM,
    MultiplierSpectrum,
    _length_spectrum,
    _multiplier_spectrum,
    compare_spectra,
    disjoint_type_from_spectrum,
    fingerprint,
    periodic_point_levels,
    spectrum,
)
from .errors import (
    DegenerateMap,
    DegenerateParameters,
    DegreeTooLow,
    MultispecError,
    NumericFailure,
)
from .parser import format_map, parse_complex
from .poly import rational_map_from_text

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _validate(args):
    """Reject bad option values; options a command lacks are not in `args`."""
    opts = vars(args)
    if opts.get("max_period", 1) < 1:
        raise ValueError("--max-period must be >= 1")
    # the comparisons also refuse nan and inf
    for name in ("tol", "quantum"):
        if not 0 < opts.get(name, 1.0) < math.inf:
            raise ValueError(f"--{name} must be positive")
    # the grid spans [-box, box], so its width 2*box must be finite too
    if opts.get("grid", 1) < 1 or not 0 < 2 * opts.get("box", 1.0) < math.inf:
        raise ValueError("--grid must be >= 1 and --box positive")


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_real(re)}{sign}{_fmt_real(abs(im))}i"


def _out(args, kind: str | None, fields, table_line: str, file=None):
    """Print one output line: its record under --format records, else its table line.

    A None kind marks a table-only line; `file` redirects the table line.
    """
    if args.format == "records":
        if kind is not None:
            print(kind + " " + " ".join(f"{k}={v}" for k, v in fields))
    else:
        print(table_line, file=file)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    f = rational_map_from_text(args.map)
    # one level pass serves both records
    data = periodic_point_levels(f, args.max_period)
    s = _multiplier_spectrum(f.degree, data)
    lengths = _length_spectrum(f.degree, data).levels if args.length else ()
    _out(args, "map", [("text", format_map(f)), ("degree", str(f.degree))],
         f"map {format_map(f)} (degree {f.degree})")
    for n, level in enumerate(s.levels, start=1):
        _out(args, "spectrum", [("level", str(n)), ("count", str(len(level))),
                                ("values", ",".join(_fmt_complex(e) for e in level))],
             f"  level {n}: " + ", ".join(_fmt_short(e) for e in level))
    for n, level in enumerate(lengths, start=1):
        _out(args, "length", [("level", str(n)), ("count", str(len(level))),
                              ("values", ",".join(_fmt_real(e) for e in level))],
             f"  length {n}: " + ", ".join(f"{v:.10g}" for v in level))
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
    sf = spectrum(f, args.max_period)
    sg = spectrum(g, args.max_period)
    equal, dist = compare_spectra(sf, sg, args.tol)
    _out(args, "compare", [
        ("map1", format_map(f)), ("map2", format_map(g)),
        ("max_period", str(args.max_period)), ("tol", _fmt_real(args.tol)),
        ("equal", "true" if equal else "false"), ("distance", _fmt_real(dist)),
    ], f"{'EQUAL' if equal else 'DIFFERENT'} (distance {dist:.3e}, tol {args.tol:.1e}, "
       f"max_period {args.max_period})")
    return 0 if equal else 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    # each family's subparser sets `maps`, which builds the maps to print
    for m in args.maps(args):
        print(format_map(m))
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    f = rational_map_from_text(args.map)
    result = pcf.classify_disjoint_type(f, args.max_period)
    found = result.disjoint_type
    _out(args, "classification", [
        ("map", format_map(f)), ("status", result.status.value),
        ("periods", ",".join(str(p) for p in found.periods) if found is not None else ""),
    ], f"map {format_map(f)}: {result.status.value}")
    if found is not None:
        _out(args, None, (), f"  superattracting cycle periods: {list(found.periods)}")
    for ev in result.evidence:
        cyc = f"period {ev.cycle.exact_period}" if ev.cycle else "none"
        _out(args, None, (), f"  critical point {ev.critical_point}: {ev.fate.value} (cycle {cyc})")
    if args.from_spectrum:
        s = spectrum(f, args.max_period)
        recovered = disjoint_type_from_spectrum(s)
        agrees = result.status is not pcf.Classification.DISJOINT_TYPE or found == recovered
        _out(args, "from_spectrum", [
            ("periods", ",".join(str(p) for p in recovered.periods)),
            ("complete", "true" if recovered.complete else "false"),
            ("agrees", "true" if agrees else "false"),
        ], f"  from spectrum: periods {list(recovered.periods)} "
           f"complete={recovered.complete} agrees={agrees}")
    return 0


# ---------------------------------------------------------------------------
# fiber-scan
# ---------------------------------------------------------------------------

def cmd_fiber_scan(args) -> int:
    """Invert level 1 over a grid of (sigma1, sigma2), with sigma3 = sigma1 - 2
    so every cell is realizable; a cell is degenerate when its normal form
    cannot be built at working precision."""
    values = np.linspace(-args.box, args.box, args.grid)
    errs = []  # the round-trip error of each realizable cell
    for i, s1 in enumerate(values):
        for j, s2 in enumerate(values):
            point = fam.MilnorPoint(complex(s1), complex(s2), complex(s1 - 2.0))
            try:
                m = fam.invert_sigma(point)
            except (DegenerateParameters, DegenerateMap, DegreeTooLow):
                status, err_text = "degenerate", ""
            else:
                target = MultiplierSpectrum(2, 1, ((point.sigma1, point.sigma2, point.sigma3),))
                errs.append(compare_spectra(spectrum(m, 1), target)[1])
                status, err_text = "ok", _fmt_real(errs[-1])
            _out(args, "cell", [
                ("row", str(i)), ("col", str(j)),
                ("s1", _fmt_real(s1)), ("s2", _fmt_real(s2)),
                ("status", status), ("roundtrip_err", err_text),
            ], f"cell ({i},{j}) s1={s1:.6g} s2={s2:.6g} {status} {err_text}")
    summary = [
        ("cells", str(values.size**2)), ("realizable", str(len(errs))),
        ("degenerate", str(values.size**2 - len(errs))),
        ("worst_roundtrip_err", _fmt_real(max(errs, default=0.0))),
    ]
    _out(args, "summary", summary, "summary " + " ".join(f"{k}={v}" for k, v in summary))
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog_add(args) -> int:
    entry = cat.entry_for_map(
        args.map, args.max_period, args.quantum,
        tags=args.tags or (), created_at=args.created_at,
    )
    entry_id = cat.catalog_add(args.store, entry)
    _out(args, "added", [("id", entry_id), ("map", entry.map_text), ("digest", entry.digest)],
         f"added {entry_id} ({entry.map_text}, digest {entry.digest})")
    return 0


def cmd_catalog_query(args) -> int:
    f = rational_map_from_text(args.map)
    fp = fingerprint(spectrum(f, args.max_period), args.quantum)
    result = cat.catalog_query(args.store, fp, f.degree, args.max_period)
    _report_skipped(args, result.skipped)
    for e in result.entries:
        _out(args, "hit", [("id", e.id), ("map", e.map_text), ("degree", str(e.degree)),
                           ("max_period", str(e.max_period)), ("digest", e.digest)],
             f"hit {e.id} {e.map_text}")
    _out(args, "query", [("digest", fp.hex_digest), ("hits", str(len(result.entries)))],
         f"{len(result.entries)} hit(s) for digest {fp.hex_digest}")
    return 0


def cmd_catalog_scan(args) -> int:
    result = cat.catalog_scan_collisions(args.store)
    _report_skipped(args, result.skipped)
    for gi, group in enumerate(result.groups):
        _out(args, None, (), f"group {gi} (digest {group[0].digest}):")
        for e in group:
            _out(args, "collision", [("group", str(gi)), ("id", e.id),
                                     ("map", e.map_text), ("digest", e.digest)],
                 f"  {e.id} {e.map_text}")
    _out(args, "scan", [("groups", str(len(result.groups)))],
         f"{len(result.groups)} collision group(s)")
    return 0


def _report_skipped(args, skipped):
    # a record on stdout, but a warning on stderr beside the table
    for line_no, reason in skipped:
        _out(args, "skipped", [("line", str(line_no)),
                               ("reason", json.dumps(reason, ensure_ascii=False))],
             f"warning: skipped corrupt line {line_no}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# built once per process: parse_args leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="multispec",
        description="Multiplier spectra of rational maps: compute, compare, classify, catalog.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("table", "records"), default="table",
                       help="human table or machine records")

    def common(p):
        p.add_argument("--max-period", dest="max_period", type=int, default=3,
                       help="highest period level to use")
        output(p)

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
    p.set_defaults(func=cmd_generate)
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("milnor", help="quadratic with prescribed fixed multipliers")
    g.add_argument("--l1", required=True)
    g.add_argument("--l2", required=True)
    g.set_defaults(maps=lambda a: [fam.milnor_quadratic(parse_complex(a.l1),
                                                        parse_complex(a.l2))])
    g = gsub.add_parser("lattes", help="duplication map of y^2 = x^3 + a x + b")
    g.add_argument("--a", required=True)
    g.add_argument("--b", required=True)
    g.set_defaults(maps=lambda a: [fam.lattes_mult2(
        fam.LattesParams(parse_complex(a.a), parse_complex(a.b)))])
    g = gsub.add_parser("power", help="z^d")
    g.add_argument("--degree", type=int, required=True)
    g.set_defaults(maps=lambda a: [fam.power_map(a.degree)])
    g = gsub.add_parser("random", help="seeded random map")
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(maps=lambda a: [fam.random_map(a.degree, a.seed)])
    g = gsub.add_parser("elemtrans", help="h1 o h2 / h2 o h1 pair with witness")
    g.add_argument("--h1", required=True)
    g.add_argument("--h2", required=True)
    # an ElementaryPair iterates as f, g, witness
    g.set_defaults(maps=lambda a: fam.elementary_transform(
        rational_map_from_text(a.h1), rational_map_from_text(a.h2)))

    p = sub.add_parser("classify", help="critical-orbit classification")
    p.add_argument("map")
    p.add_argument("--from-spectrum", dest="from_spectrum", action="store_true",
                   help="cross-check the type recovered from the spectrum")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fiber-scan", help="level-1 inversion scan over a grid")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--box", type=float, default=2.0)
    output(p)
    p.set_defaults(func=cmd_fiber_scan)

    p = sub.add_parser("catalog", help="fingerprint store operations")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("add", help="store a map's fingerprint")
    c.add_argument("--store", required=True)
    c.add_argument("--map", required=True)
    c.add_argument("--quantum", type=float, default=DEFAULT_QUANTUM)
    c.add_argument("--tags", nargs="*", default=None)
    c.add_argument("--created-at", dest="created_at", default=None,
                   help="fixed RFC 3339 timestamp for reproducible stores")
    common(c)
    c.set_defaults(func=cmd_catalog_add)
    c = csub.add_parser("query", help="stored maps with a map's fingerprint")
    c.add_argument("--store", required=True)
    c.add_argument("--map", required=True)
    c.add_argument("--quantum", type=float, default=DEFAULT_QUANTUM)
    common(c)
    c.set_defaults(func=cmd_catalog_query)
    c = csub.add_parser("scan", help="groups of stored maps sharing a fingerprint")
    c.add_argument("--store", required=True)
    output(c)
    c.set_defaults(func=cmd_catalog_scan)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (MultispecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
