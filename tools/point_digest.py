"""Digest of every periodic point the pipeline finds on a bench workload.

    python3 tools/point_digest.py --workload census --seed 1 2 3

The package is imported from ./src of the checkout this script sits in,
and the inputs are the bench's own (bench/workloads.py, only read).
For hunt they are the planted map texts with their max periods: each
group's members, among them conjugate and elementary_transform outputs,
then the cubics. For every map of the seed's inputs it runs
periodic_point_levels at the map's top level and hashes, level by level,
each point's location, multiplicity and multiplier reprs, or the repr of
the exception the pipeline raised. It prints one sha256 line per seed.
Running it in two checkouts and comparing the lines checks that a change
leaves every periodic point and multiplier identical to the bit.
"""

import os
import sys

# one BLAS thread, as the bench runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from multispec import poly  # noqa: E402
from multispec.spectrum import periodic_point_levels  # noqa: E402


def seed_inputs(name: str, seed: int) -> list[tuple[str, str, int]]:
    """(label, map text, top level) of every map of the seed's workload."""
    workload = workloads.WORKLOADS[name](workloads.FULL)
    if name != "hunt":
        return workload.maps(seed)
    groups, cubics = workload._planted(seed)
    planted = [member for group in groups for member in group] + cubics
    return [(f"planted {i}", text, top) for i, (text, _, top) in enumerate(planted)]


def seed_digest(name: str, seed: int) -> str:
    h = hashlib.sha256()
    for label, text, top in seed_inputs(name, seed):
        h.update(repr((label, text, top)).encode())
        try:
            levels = periodic_point_levels(poly.rational_map_from_text(text), top)
        except Exception as exc:  # recorded, so both trees must raise alike
            h.update(repr(exc).encode())
            continue
        for pps in levels:
            for p in pps.points:
                h.update(repr((p.location, p.multiplicity, p.multiplier)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("census", "deep", "hunt"), required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for seed in args.seed:
        print(f"{args.workload} seed={seed} {seed_digest(args.workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
