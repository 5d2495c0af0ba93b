"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced on tiny inputs and
asserts that each prints exactly the metrics BENCHMARK.json names, with
their units, that the checks pass, and that the hunt's scan finds the
planted collision groups.
"""

import io
import json
import sys

import run

TINY_PLANTED_GROUPS = 3  # one flip pair, one Moebius conjugate pair, two Lattes maps


def main():
    run.load_package()
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    table = {n: (unit, better) for n, unit, better in tracing.per_layer_table()}
    assert table == {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, \
        "BENCHMARK.json per_layer differs from tracing.per_layer_table()"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            code = run.run(name, seed=7, seconds=0.01, trace=trace, size=workloads.TINY, out=buf)
            lines = buf.getvalue().splitlines()
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            assert code == 0 and result["correct"], (name, trace, detail["problems"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], (name, trace, set(got) ^ set(want[trace]))
            for key, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, key)
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                assert metrics["trace.named_frac"] >= 0.9, (name, metrics["trace.named_frac"])
                if name == "hunt":
                    groups = metrics["catalog.catalog_scan_collisions.groups"]
                    assert groups == TINY_PLANTED_GROUPS, groups
                    assert metrics["catalog.catalog_add.noop"] >= 1
                else:
                    assert metrics["spectrum.spectrum.calls"] >= 1
            print(f"ok {name} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
