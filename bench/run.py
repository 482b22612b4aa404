"""Cold-start benchmark for sclab.  Run from the repository root:

    python3 bench/run.py --workload gamma-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all      # every workload, both runs

Each group of ops runs in a fresh child interpreter (``child.py``), one at
a time, and every op's verdict is checked.  ``--trace 0`` samples the
workload's groups for about ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass
and reports the per-layer metrics.  Times are CPU times scaled to the
reference speed (``reference.py``).  The last line of stdout is the JSON
result.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it
CHEAP_S = 1.0  # groups whose child takes less than this get extra samples

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int) -> int:
    """Highest integer percentile P whose nearest-rank value has at least
    TAIL_BEYOND of n values above it; 100 (the largest) when n is too
    small for any."""
    for pct in range(99, 0, -1):
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct
    return 100


def _rank(pct: int, n: int) -> int:
    return max(1, -(-pct * n // 100))


def run_child(group: dict, traced: bool, deadline: float) -> dict:
    """Run one group in a fresh interpreter.  A child that crashes, hangs
    or prints garbage fails every op of its group."""
    ops = group["ops"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    payload = json.dumps({"ops": ops, "trace": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=payload, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        return {
            "group": group["name"], "ops": [[0, f"child failed: {exc}"] for _ in ops],
            "setup_ns": None, "kernel_ns": [], "maxrss_kb": 0, "trace": None,
        }
    # Each time, scaled to the reference speed by the kernel time sampled
    # while it ran (see reference.py).
    nominal_ns = reference.NOMINAL_S * 1e9
    result["group"] = group["name"]
    result["setup_ns"] = result.pop("setup_s") * 1e9 * nominal_ns / result["setup_kernel_ns"]
    result["kernel_ns"] = [kernel_ns for _, _, kernel_ns in result["ops"]]
    result["ops"] = [[ns * nominal_ns / kernel_ns, err] for ns, err, kernel_ns in result["ops"]]
    return result


def run_pass(plan: list, traced: bool, deadline: float) -> list[dict]:
    return [run_child(group, traced, deadline) for group in plan]


def failures(children: list[dict]) -> list[str]:
    return [
        f"{child['group']}: op {i}: {err}"
        for child in children
        for i, (_, err) in enumerate(child["ops"])
        if err
    ]


def measure(plan: list, seconds: int, deadline: float) -> list[list[dict]]:
    """Untraced samples of every group, round by round.  The first round
    runs every group, and so does each next one that fits in ``seconds``.
    After that, while a round of only the cheap groups fits, those run
    again, so that short ops are timed in many stretches of the run
    rather than a few.  Returns the child results per group."""
    samples = [[] for _ in plan]
    child_s = [[] for _ in plan]
    started = time.monotonic()
    chosen = list(range(len(plan)))
    while chosen:
        for i in chosen:
            t0 = time.monotonic()
            samples[i].append(run_child(plan[i], False, deadline))
            child_s[i].append(time.monotonic() - t0)
        typical = [statistics.median(t) for t in child_s]
        left = min(seconds - (time.monotonic() - started), deadline - time.monotonic())
        cheap = [i for i, t in enumerate(typical) if t < CHEAP_S]
        if sum(typical) <= left:
            chosen = list(range(len(plan)))
        elif cheap and sum(typical[i] for i in cheap) <= left:
            chosen = cheap
        else:
            chosen = []
    return samples


def op_times_ms(samples: list[list[dict]]) -> list[float]:
    """Each op's median time over its samples, in plan order."""
    return [
        statistics.median(child["ops"][j][0] for child in group) / 1e6
        for group in samples
        for j in range(len(group[0]["ops"]))
    ]


def end_to_end(samples: list[list[dict]]) -> dict:
    children = [child for group in samples for child in group]
    op_ms = op_times_ms(samples)
    ranked = sorted(op_ms)
    setups = [c["setup_ns"] / 1e9 for c in children if c["setup_ns"] is not None]
    values = {
        "setup_s": statistics.median(setups) if setups else 0.0,  # every child failed
        "wall_s": sum(op_ms) / 1e3,
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": ranked[_rank(tail_percentile(len(op_ms)), len(op_ms)) - 1],
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(workload: str, traced: list[dict], untraced_wall_s: float):
    import probes

    metrics = probes.layer_metrics(*probes.merge([c["trace"] for c in traced if c["trace"]]))
    traced_wall_s = sum(ns for child in traced for ns, _ in child["ops"]) / 1e9
    metrics["trace.overhead_s"] = {"value": traced_wall_s - untraced_wall_s, "unit": "s"}
    return metrics, probes.zero_metrics(workload, metrics)


def environment(seed: int) -> dict:
    from workloads import DEVELOPMENT_SEED

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "development_seed": DEVELOPMENT_SEED,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")


def run_workload(name: str, seed: int, seconds: int, report_e2e: bool, report_layers: bool):
    """Measure one workload; returns (metrics, ops attempted, failed ops,
    self-check findings).  The per-layer metrics come from one traced pass,
    compared with the untraced samples for ``trace.overhead_s``."""
    from workloads import WORKLOADS

    plan = WORKLOADS[name](seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    run_child({"name": "warm-up", "ops": []}, False, deadline)  # untimed: byte-compile, file cache

    if report_e2e:
        samples = measure(plan, seconds, deadline)
    else:
        samples = [[child] for child in run_pass(plan, False, deadline)]
    children = [child for group in samples for child in group]
    bad = failures(children)
    attempted = sum(len(child["ops"]) for child in children)
    n_ops = sum(len(group["ops"]) for group in plan)
    print(f"workload {name}  seed {seed}  ops {n_ops}  samples {attempted} "
          f"(each group {min(map(len, samples))} to {max(map(len, samples))} times)  "
          f"failed_ops {len(bad)}")
    metrics = {}
    if report_e2e:
        metrics = end_to_end(samples)
        _print_metrics(
            f"end-to-end (untraced; CPU time at the reference speed; each op at "
            f"its median; op_tail_ms is p{tail_percentile(n_ops)} of {n_ops} ops)",
            metrics,
        )
        kernel_us = [ns / 1e3 for child in children for ns in child["kernel_ns"]]
        low, mid, high = statistics.quantiles(kernel_us, n=4)
        print(f"  reference kernel while the ops ran: median {mid:.1f} us, quartiles "
              f"{low:.1f} to {high:.1f} us, over {len(kernel_us)} ops; times are scaled "
              f"to {reference.NOMINAL_S * 1e6:g} us")
    checks = []
    if report_layers:
        traced = run_pass(plan, True, deadline)
        bad += failures(traced)
        attempted += n_ops
        layer, zero = per_layer(name, traced, sum(op_times_ms(samples)) / 1e3)
        metrics.update(layer)
        _print_metrics("per-layer (traced; .ms is self time)", layer)
        spans = sum(c["trace"]["spans_recorded"] for c in traced if c["trace"])
        print(f"  spans recorded: {spans}")
        checks = [f"self-check: per-layer metric {m} is 0 on {name}" for m in zero]
    for line in bad + checks:
        print(f"FAILED {line}", file=sys.stderr)
    return metrics, attempted, bad, checks


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports sclab

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    every = args.workload == "all"
    names = list(WORKLOADS) if every else [args.workload]
    metrics, attempted, failed, checks = {}, 0, 0, []
    for name in names:
        m, a, bad, c = run_workload(
            name, args.seed, args.seconds, every or not args.trace, every or bool(args.trace)
        )
        metrics.update({(f"{name}:" if every else "") + k: v for k, v in m.items()})
        attempted += a
        failed += len(bad)
        checks += c
    print(json.dumps({"environment": environment(args.seed)}))
    correct = not failed and not checks
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "sclab" / "__init__.py").is_file():
        print(f"error: no sclab package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
