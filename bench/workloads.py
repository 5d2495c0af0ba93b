"""The three benchmark workloads: census, deep and hunt.

Each workload makes its inputs from the seed at set-up, runs whole
passes over them (one timed operation per map or per CLI command), and
checks the outputs of the first pass after the timed phase. Later
passes must reproduce the first pass's output digest exactly.

The program only ever receives map text or a store file. Every call
into the package goes through a module object looked up at call time,
so the tracer's wrappers see it. ``multispec.spectrum`` is fetched with
importlib because the package attribute of that name is the function.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

parser = importlib.import_module("multispec.parser")
poly = importlib.import_module("multispec.poly")
spec = importlib.import_module("multispec.spectrum")
pcf = importlib.import_module("multispec.pcf")
catalog = importlib.import_module("multispec.catalog")
cli = importlib.import_module("multispec.cli")
fam = importlib.import_module("multispec.families")
errors = importlib.import_module("multispec.errors")

# the pipeline's own f^n(z) = z gate, and the index-sum tolerance of
# acceptance criterion 3
RESIDUAL_TOL = 1e-7
INDEX_TOL = 1e-7
# the multiplier distance from 1 at which the pipeline treats a root
# cluster as parabolic (spectrum._periodic_points_from)
PARABOLIC_TOL = 1e-3
# disjoint types the classifier must report (acceptance criterion 9)
KNOWN_TYPES = {"z^2-1": (1, 2), "z^2": (1, 1)}
QUANTUM = 1e-6  # the CLI's default
CREATED_AT = "2026-01-01T00:00:00+00:00"
# the warm-up operation uses a fixed input, independent of the run seed
WARM_SEED = 424242

FULL = {
    "census_random": {2: 10, 3: 10, 4: 8},  # random maps per degree
    "census_top": {2: 8, 3: 5, 4: 4},  # every level up to 257 points
    "deep_maps": 14,
    "deep_top": 9,
    "deep_warm_top": 7,  # three warm-ups at level 9 would add 6 s to every run
    "flip_pairs": 4,
    "conjugates": 3,
    "cubics": 6,
    "readds": 4,
    "prefill": 2000,
}
TINY = {
    "census_random": {2: 1, 3: 1, 4: 1},
    "census_top": {2: 4, 3: 3, 4: 2},
    "deep_maps": 1,
    "deep_top": 5,
    "deep_warm_top": 3,
    "flip_pairs": 1,
    "conjugates": 1,
    "cubics": 1,
    "readds": 1,
    "prefill": 40,
}


# The shared machine's speed drifts by about 15% over seconds, for an
# identical operation. A fixed kernel that runs no multispec code is
# timed before every operation; timings are scaled by the kernel's
# nominal time over its median time in the same pass, which removed
# about two thirds of that drift in 6-second windows (CV 0.097 -> 0.033).
# Nominal: the kernel's median on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6 with one OpenBLAS thread.
REF_NOMINAL_S = 0.0029
_REF_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def reference_kernel():
    """Seconds taken by a fixed mix of interpreter work and small numpy calls."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(20):
        np.linalg.slogdet(_REF_MATRIX)
        np.polynomial.polynomial.polyval(0.3, _REF_MATRIX[0])
    return time.perf_counter() - start


@dataclass
class Op:
    """One timed operation and what it produced."""

    kind: str
    seconds: float
    error: str | None  # exception type, or "exit<code>" for a CLI failure
    output: object
    ref: float  # reference_kernel() seconds, measured just before the op


@dataclass
class Verdict:
    """What the checks found in one pass's operations."""

    problems: list = field(default_factory=list)  # failed checks: the run is wrong
    defects: list = field(default_factory=list)  # known defects found: counted
    failed: list = field(default_factory=list)  # per op: why it failed, or None
    points: list = field(default_factory=list)  # per op: points of levels that passed
    entries: int = 0
    nonfinite: int = 0  # spectrum entries that are inf or nan
    nonfinite_ops: int = 0  # ops with at least one such entry


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _same(a, b):
    """Equality that treats NaN components as equal to each other."""
    return all(x == y or (x != x and y != y) for x, y in ((a.real, b.real), (a.imag, b.imag)))


def _seeds(seed, stream, count):
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _disk(rng):
    r, t = math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def _lattes_text(rng):
    """A Lattes map of a random curve y^2 = x^3 + a x + b, as text."""
    while True:
        try:
            return parser.format_map(fam.lattes_mult2((_disk(rng), _disk(rng))))
        except errors.SingularCurve:
            continue


def digest(ops, store):
    """Digest of a pass's outputs: every op's result and the final store bytes."""
    h = hashlib.sha256(store)
    for op in ops:
        h.update(repr((op.kind, op.error, op.output)).encode())
    return h.hexdigest()


def _points(degree, top):
    return sum(degree**n + 1 for n in range(1, top + 1))


# ---------------------------------------------------------------------------
# census and deep: spectra of map texts
# ---------------------------------------------------------------------------

class SpectrumWorkload:
    """Spectrum of each map text at every level up to its top level."""

    classify = False

    def __init__(self, size):
        self.size = size

    def setup(self, seed, work_dir):
        inputs = self.maps(seed)
        self._op(*self.warm_map())
        return inputs

    def _op(self, text, top):
        f = poly.rational_map_from_text(text)
        levels = spec.spectrum(f, top).levels
        status = periods = None
        if self.classify:
            result = pcf.classify_disjoint_type(f)
            status = result.status.value
            periods = result.disjoint_type.periods if result.disjoint_type else None
        return parser.format_map(f), levels, status, periods

    def run_pass(self, inputs, tracer):
        ops = []
        start = time.perf_counter()
        for i, (label, text, top) in enumerate(inputs):
            ref = reference_kernel()
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out, error = self._op(text, top), None
            except Exception as exc:  # counted by type, never hidden
                out, error = None, type(exc).__name__
            ops.append(Op("map", time.perf_counter() - t0, error, out, ref))
        if tracer:
            tracer.op = None
        return ops, time.perf_counter() - start, b""

    def check(self, inputs, ops):
        v = Verdict()
        for (label, text, top), op in zip(inputs, ops):
            if op.error:
                v.failed.append(op.error)
                v.points.append(0)
                continue
            canonical, levels, status, periods = op.output
            entries = [e for level in levels for e in level]
            nonfinite = sum(1 for e in entries if not _finite(e))
            v.entries += len(entries)
            v.nonfinite += nonfinite
            passed, problems, defects = self._check_levels(label, text, top, levels)
            if label in KNOWN_TYPES and (status, periods) != ("disjoint_type", KNOWN_TYPES[label]):
                problems.append(f"{label}: classified {status} {periods}, "
                                f"expected disjoint type {KNOWN_TYPES[label]}")
            v.problems.extend(problems)
            v.defects.extend(defects)
            v.points.append(sum(len(level) for level, ok in zip(levels, passed) if ok))
            v.failed.append("check" if problems else "residual" if defects else None)
            v.nonfinite_ops += bool(nonfinite)
        return v

    @staticmethod
    def _check_levels(label, text, top, levels):
        """Per level: count law, agreement with the multipliers of
        periodic_point_levels, f^n(z) = z and the index identity.

        A residual above RESIDUAL_TOL is a counted defect, not a wrong
        result: the pipeline applied the same gate through its own orbit
        evaluation, and at deep levels the two evaluations differ by
        rounding of about that size.
        """
        f = poly.rational_map_from_text(text)
        try:
            data = spec.periodic_point_levels(f, top)
        except errors.MultispecError as exc:
            return [False] * len(levels), [
                f"{label}: periodic_point_levels raised {type(exc).__name__}; spectrum did not"], []
        passed, problems, defects = [], [], []
        for n, (pps, level) in enumerate(zip(data, levels), start=1):
            found = []
            if pps.total_multiplicity != f.degree**n + 1:
                found.append(f"{pps.total_multiplicity} points, count law says {f.degree**n + 1}")
            want = spec.elementary_symmetric(pps.multipliers())
            if len(want) != len(level) or not all(map(_same, level, want)):
                found.append("spectrum differs from elementary_symmetric of the multipliers")
            residual = max(poly.orbit(f, p.location, n)[-1].chordal(p.location)
                           for p in pps.points)
            if residual > RESIDUAL_TOL:
                defects.append(f"{label} level {n}: chordal residual of f^n(z) = z "
                               f"is {residual:.2e} through orbit()")
            # the identity is checked only where no point is parabolic;
            # a near-1 multiplier means a parabolic cluster that may have
            # been split into nearby simple points
            parabolic = any(abs(p.multiplier - 1.0) <= PARABOLIC_TOL for p in pps.points)
            index = 1.0 if parabolic else spec.fixed_point_index_sum(pps)
            if abs(index - 1.0) > INDEX_TOL:
                found.append(f"|sum 1/(1-lambda) - 1| = {abs(index - 1.0):.2e}")
            passed.append(not found and residual <= RESIDUAL_TOL)
            problems.extend(f"{label} level {n}: {msg}" for msg in found)
        return passed, problems, defects


class Census(SpectrumWorkload):
    """Random maps of degree 2, 3 and 4, and four structured maps."""

    classify = True

    def maps(self, seed):
        top = self.size["census_top"]
        seeds = iter(_seeds(seed, 1, 64))
        out = []
        for d, count in self.size["census_random"].items():
            for _ in range(count):
                s = next(seeds)
                out.append((f"random_map({d}, {s})",
                            parser.format_map(fam.random_map(d, s)), top[d]))
        out.append(("lattes", _lattes_text(np.random.default_rng([seed, 2])), top[4]))
        out.append(("z^2-1", "z^2-1", top[2]))  # post-critically finite
        out.append(("z^2+0.25", "z^2+0.25", top[2]))  # parabolic: held cluster
        out.append(("z^2", parser.format_map(fam.power_map(2)), top[2]))
        return out

    def warm_map(self):
        return parser.format_map(fam.random_map(3, WARM_SEED)), self.size["census_top"][3]


class Deep(SpectrumWorkload):
    """Random quadratics at levels 1..9: few, large levels."""

    def maps(self, seed):
        top = self.size["deep_top"]
        return [(f"random_map(2, {s})", parser.format_map(fam.random_map(2, s)), top)
                for s in _seeds(seed, 4, self.size["deep_maps"])]

    def warm_map(self):
        return parser.format_map(fam.random_map(2, WARM_SEED)), self.size["deep_warm_top"]


# ---------------------------------------------------------------------------
# hunt: a collision hunt through the CLI against a pre-filled store
# ---------------------------------------------------------------------------

@dataclass
class Step:
    kind: str  # add, query, readd or scan
    argv: list
    group: int | None = None  # planted group the map belongs to
    member: int | None = None
    key: tuple = ()  # (degree, max_period) of the map
    points: int = 0  # periodic points the command's spectrum holds


@dataclass
class HuntInputs:
    template: bytes  # the pre-filled store every pass starts from
    plan: list
    groups: int


class Hunt:
    """catalog add / query / scan commands run in-process through cli.main."""

    def __init__(self, size):
        self.size = size
        self.store = None

    def _planted(self, seed):
        """Groups of maps with equal spectra, and unrelated random cubics."""
        seeds = iter(_seeds(seed, 5, 64))
        fmt = parser.format_map
        groups = []
        for _ in range(self.size["flip_pairs"]):
            pair = fam.elementary_transform(fam.random_map(2, next(seeds)),
                                            fam.random_map(2, next(seeds)))
            groups.append([(fmt(pair.f), 4, 3), (fmt(pair.g), 4, 3)])
        for _ in range(self.size["conjugates"]):
            f = fam.random_map(2, next(seeds))
            g = poly.conjugate(f, fam.random_mobius(next(seeds)))
            groups.append([(fmt(f), 2, 3), (fmt(g), 2, 3)])
        rng = np.random.default_rng([seed, 7])
        groups.append([(_lattes_text(rng), 4, 2), (_lattes_text(rng), 4, 2)])
        cubics = [(fmt(fam.random_map(3, next(seeds))), 3, 2)
                  for _ in range(self.size["cubics"])]
        return groups, cubics

    def _prefill(self, seed):
        """A v1 store of earlier degree-2, period-2 entries, none colliding."""
        rng = np.random.default_rng([seed, 6])
        lines = [catalog.HEADER]
        for _ in range(self.size["prefill"]):
            c = _disk(rng)
            text = f"z^2+({c.real:.6f}{c.imag:+.6f}i)"
            levels = []
            for n in (1, 2):
                level = []
                for _ in range(2**n + 1):
                    step = QUANTUM * 2.0 ** int(rng.integers(0, 12))
                    re_q, im_q = (int(v) for v in rng.integers(-10**6, 10**6, size=2))
                    level.append([repr(re_q * step), repr(im_q * step)])
                levels.append(level)
            record = {
                "id": catalog.entry_id(text, 2, 2, QUANTUM),
                "map_text": text,
                "degree": 2,
                "max_period": 2,
                "quantum": QUANTUM,
                "digest": f"{int(rng.integers(0, 2**64, dtype=np.uint64)):016x}",
                "levels": levels,
                "tags": [],
                "created_at": CREATED_AT,
            }
            lines.append(json.dumps(record, separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _argv(self, action, text=None, period=None):
        argv = ["catalog", action, "--store", self.store, "--format", "records"]
        if text is not None:
            argv += ["--map", text, "--max-period", str(period)]
        if action == "add":
            argv += ["--created-at", CREATED_AT]
        return argv

    def setup(self, seed, work_dir):
        self.store = os.path.join(work_dir, "hunt.cat")
        groups, cubics = self._planted(seed)
        plan = []
        # first members go in beside unrelated cubics; each partner is
        # queried before it is added, then some adds are repeated
        for i in range(max(len(groups), len(cubics))):
            if i < len(groups):
                text, d, p = groups[i][0]
                plan.append(Step("add", self._argv("add", text, p), i, 0, (d, p), _points(d, p)))
            if i < len(cubics):
                text, d, p = cubics[i]
                plan.append(Step("add", self._argv("add", text, p), key=(d, p),
                                 points=_points(d, p)))
        for i, group in enumerate(groups):
            for j, (text, d, p) in enumerate(group[1:], start=1):
                plan.append(Step("query", self._argv("query", text, p), i, j, (d, p),
                                 _points(d, p)))
                plan.append(Step("add", self._argv("add", text, p), i, j, (d, p), _points(d, p)))
        again = [g[0] for g in groups][: self.size["readds"] - 1] + cubics[:1]
        for text, d, p in again:
            plan.append(Step("readd", self._argv("add", text, p), key=(d, p),
                             points=_points(d, p)))
        plan.append(Step("scan", self._argv("scan")))
        template = self._prefill(seed)
        with open(self.store, "wb") as fh:
            fh.write(template)
        self._cli(self._argv("query", "z^2-1", 2))  # warm-up, leaves the store as it is
        return HuntInputs(template, plan, len(groups))

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
                error = None if code == 0 else f"exit{code}"
            except Exception as exc:  # counted by type, never hidden
                error = type(exc).__name__
        return out.getvalue(), error

    def run_pass(self, inputs, tracer):
        with open(self.store, "wb") as fh:
            fh.write(inputs.template)  # fresh copy: appends must not drift across passes
        ops = []
        start = time.perf_counter()
        for i, step in enumerate(inputs.plan):
            size_before = os.path.getsize(self.store)
            ref = reference_kernel()
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            text, error = self._cli(step.argv)
            seconds = time.perf_counter() - t0
            ops.append(Op(step.kind, seconds, error,
                          (text, size_before, os.path.getsize(self.store)), ref))
        if tracer:
            tracer.op = None
        wall = time.perf_counter() - start
        with open(self.store, "rb") as fh:
            return ops, wall, fh.read()

    def check(self, inputs, ops):
        """The catalog must answer exactly from the digests the adds
        reported. A planted pair whose equal spectra got different
        digests is a counted fingerprint defect, not a catalog error."""
        v = Verdict()
        added = {}  # (group, member) -> (canonical text, digest)
        stored = {}  # (degree, max_period, digest) -> canonical texts added
        for step, op in zip(inputs.plan, ops):
            problems, defects = [], []
            text, size_before, size_after = op.output
            if op.error is None and step.kind in ("add", "readd"):
                m = re.search(r"^added id=\S+ map=(\S+) digest=(\S+)$", text, re.M)
                if m is None:
                    problems.append(f"add printed no added record: {text[:80]!r}")
                else:
                    stored.setdefault(step.key + (m.group(2),), set()).add(m.group(1))
                    if step.group is not None:
                        added[(step.group, step.member)] = m.groups()
                if step.kind == "readd" and size_after != size_before:
                    problems.append(f"re-add grew the store from {size_before} to {size_after} bytes")
            elif op.error is None and step.kind == "query":
                probe = re.search(r"^query digest=(\S+) hits=(\d+)$", text, re.M)
                hits = re.findall(r"^hit id=\S+ map=(\S+) degree=\S+ max_period=\S+ "
                                  r"digest=(\S+)$", text, re.M)
                if probe is None or int(probe.group(2)) != len(hits):
                    problems.append(f"query printed no matching summary: {text[-80:]!r}")
                else:
                    digest = probe.group(1)
                    want = stored.get(step.key + (digest,), set())
                    if {t for t, _ in hits} != want or any(d != digest for _, d in hits):
                        problems.append(f"query for digest {digest} returned {len(hits)} hits, "
                                        f"{len(want)} added entries have that digest")
                    for (g, j), (member, member_digest) in added.items():
                        if g == step.group and j < step.member and member_digest != digest:
                            defects.append(f"planted group {g}: partner digest {digest} differs "
                                           f"from member digest {member_digest}")
            elif op.error is None and step.kind == "scan":
                found = {}
                for gid, member in re.findall(r"^collision group=(\d+) id=\S+ map=(\S+) ",
                                              text, re.M):
                    found.setdefault(gid, set()).add(member)
                got = {frozenset(members) for members in found.values()}
                want = {frozenset(texts) for texts in stored.values() if len(texts) >= 2}
                if got != want:
                    problems.append(f"scan found {len(got)} groups, the adds imply {len(want)}; "
                                    f"{len(got - want)} unexpected, {len(want - got)} missed")
            v.problems.extend(problems)
            v.defects.extend(defects)
            v.failed.append(op.error or ("check" if problems else "fingerprint" if defects else None))
            v.points.append(step.points if v.failed[-1] is None else 0)
        return v


WORKLOADS = {"census": Census, "deep": Deep, "hunt": Hunt}
