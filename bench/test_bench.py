"""Checks of the benchmark's own arithmetic.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py      (or: python3 bench/test_bench.py)
"""

import json
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_nested_spans():
    # a [0, 100) contains b [10, 40) and c [50, 90); b contains a nested
    # a [20, 30), so a recurses.  d [200, 210) is a second root.
    names = ["a", "b", "c", "d"]
    rows = [  # (name id, start, end, parent)
        (0, 0, 100, -1),
        (1, 10, 40, 0),
        (0, 20, 30, 1),
        (2, 50, 90, 0),
        (3, 200, 210, -1),
    ]
    out = summarize(
        names,
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows],
    )
    assert out["a"] == {"calls": 2, "self_ns": (100 - 30 - 40) + 10, "incl_ns": 100}
    assert out["b"] == {"calls": 1, "self_ns": 30 - 10, "incl_ns": 30}
    assert out["c"] == {"calls": 1, "self_ns": 40, "incl_ns": 40}
    assert out["d"] == {"calls": 1, "self_ns": 10, "incl_ns": 10}


def test_patch_rebinds_every_alias_and_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Box:
        def mul(self, other):
            return other

        rmul = mul

    mod = types.SimpleNamespace(inner=inner, outer=outer, alias=inner)
    original_mul = Box.mul
    tracer = Tracer()
    assert tracer.patch(inner, "inner", [mod]) == 2
    assert tracer.patch(outer, "outer", [mod]) == 1
    assert tracer.patch(original_mul, "mul", [Box]) == 2
    tracer.current_op = 7
    assert mod.outer(1) == 4 and mod.alias(1) == 2
    Box().rmul(3)
    stats = tracer.summary()
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["mul"]["calls"] == 1
    assert list(tracer.op) == [7, 7, 7, 7]
    assert tracer.parent[1] == 0  # inner ran inside outer
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    tracer.restore()
    assert mod.inner is inner and mod.alias is inner and Box.rmul is original_mul


def test_benchmark_json_names_every_metric():
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, (unit, _) in probes.LAYER_METRICS.items()}
    expected["trace.overhead_s"] = "s"
    assert layer == expected
    assert set(probes.MUST_BE_NONZERO) == set(probes.LAYER_METRICS)


def _busy(ms: float) -> None:
    end = time.perf_counter_ns() + ms * 1e6
    while time.perf_counter_ns() < end:
        pass


def test_speed_sampler_samples_during_an_op_and_tops_up_after():
    from reference import MIN_SAMPLES, SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    _busy(60)
    in_op_ns = sampler.stop()
    in_op = len(sampler.samples_ns)
    assert in_op >= 3 and in_op_ns == sum(sampler.samples_ns)
    assert sampler.mean_ns() > 0 and len(sampler.samples_ns) == max(in_op, MIN_SAMPLES)

    sampler.start()
    assert sampler.stop() == 0  # no time passed, so no sample to take off
    sampler.mean_ns()
    assert len(sampler.samples_ns) == MIN_SAMPLES


def test_cpu_clock_stays_fine_grained_while_sampling():
    # A CPU-time interval timer would make the process CPU clock advance
    # in whole scheduler ticks; a 1 ms op would then read 0 or ~4 ms.
    from reference import SpeedSampler

    sampler = SpeedSampler()
    readings = []
    for _ in range(5):
        sampler.start()
        started = time.process_time_ns()
        _busy(1)
        readings.append(time.process_time_ns() - started)
        sampler.stop()
    assert sorted(readings)[2] > 100_000, readings


def test_tail_percentile_leaves_ten_beyond():
    import run

    assert run.tail_percentile(111) == 90
    assert run.tail_percentile(5) == 100  # too few ops: the largest
    for n in (11, 15, 63, 111, 212, 1000):
        pct = run.tail_percentile(n)
        assert n - run._rank(pct, n) >= 10 > n - run._rank(pct + 1, n)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
