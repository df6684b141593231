"""Pipeline benchmark: the paper's four-step pipeline, end to end.

Run one workload, from the root of a checkout::

    python3 benchmarks/pipeline/run.py --workload pipeline-cold --seed 0 --seconds 20 --trace 0

The workload runs in this one process, with no worker pool and no
extra threads.  After its one-off inputs and ``SETUP_REPEATS`` set-ups
it repeats timed passes until ``--seconds`` have elapsed and at least
the workload's ``min_passes`` have run (see ``run_passes``; a pass is
never cut short).  Every timing is paced -- rescaled by the host's
speed measured next to it (``measure.Pace``) -- and each step is
reported at its median across the passes (``step_medians``).  Every
pass's outputs are checked against ``expected.json``.  The metric
table goes to standard output, and its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half the time untraced and half traced, reports
the per-layer metrics, and writes ``layers.json`` plus a Chrome trace
under ``--trace-dir``.  ``--repin`` recomputes ``expected.json`` and
lists every digest that changed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

import measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 3
#: No pass starts that would end the run after this, so a run ends
#: within 180 s even on a machine slowed several times over.
START_DEADLINE_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in measure.load_catalog()["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=measure.load_catalog()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir",
        type=pathlib.Path,
        default=ROOT / ".bench_trace",
        help="where a traced run writes layers.json and its Chrome trace",
    )
    parser.add_argument("--out", type=pathlib.Path, help="also write the detailed result here")
    parser.add_argument("--repin", action="store_true", help="recompute expected.json")
    args = parser.parse_args(argv)
    if not args.repin and args.workload is None:
        parser.error("--workload is required")
    return args


def run_passes(workload, seconds: float, minimum: int, born: float) -> list:
    """``minimum`` timed passes, then as many more as fit in ``seconds``.

    A pass is never cut short: a next pass starts only if one as long
    as the last still ends within ``seconds``, so a workload whose
    passes are long runs the same number of them every run.
    """
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        now = time.perf_counter()
        if now - born + passes[-1].seconds > START_DEADLINE_S:
            return passes
        if len(passes) >= minimum and now - started + passes[-1].seconds > seconds:
            return passes


def step_medians(passes) -> tuple[list[float], list[float]]:
    """Each operation's and each deploy's median paced time across the passes.

    Every pass repeats the same steps on the same inputs.  Pacing
    takes out the host's slow drifts; the median then drops the
    bursts of contention too short for the pace samples to catch.
    """
    ops = [statistics.median(samples) for samples in zip(*(p.op_seconds for p in passes))]
    deploys = [statistics.median(samples) for samples in zip(*(p.deploy_seconds for p in passes))]
    return ops, deploys


def pass_seconds(passes) -> float:
    """A pass with every step at its median across the passes."""
    ops, deploys = step_medians(passes)
    return sum(ops) + sum(deploys)


def op_tail(ops) -> tuple[str, float]:
    """``(label, seconds)`` of the operations' tail.

    The highest percentile with ten operations beyond it; a run with
    too few operations for any (18 datasets, or one refine) reports
    its slowest.
    """
    try:
        pct, value = measure.tail_percentile(ops)
    except ValueError:
        return "max", max(ops)
    return f"p{pct:g}", value


def write_trace(trace_dir: pathlib.Path, name: str, seed: int, spans, layers: dict) -> None:
    from repro.observability import summarize, write_chrome_trace

    out = trace_dir / f"{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(spans, out / "trace.json")
    payload = {"workload": name, "seed": seed, "metrics": layers,
               "summary": summarize(spans).to_dict()}
    (out / "layers.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def measure_workload(args, workloads, born: float, import_s: float) -> dict:
    from repro import observability as obs

    workload = workloads.make(args.workload, args.seed)
    try:
        workload.make_inputs()
        pace = workload.pace
        setups = []
        for _ in range(SETUP_REPEATS):
            pace.sample()
            started = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - started, started))
        pace.sample()
        setups = [pace.paced(seconds, started) for seconds, started in setups]
        setup_failed = len(workload.failures)
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, 1, born)
            with obs.tracing() as tracer:
                traced = run_passes(workload, args.seconds / 2, 1, born)
            spans = tracer.spans
        else:
            untraced = run_passes(workload, args.seconds, workload.min_passes, born)
            traced, spans = [], []
    finally:
        workload.close()

    every = untraced + traced
    attempted = workload.setup_ops + sum(len(p.op_seconds) for p in every)
    failed = setup_failed + sum(p.failed for p in every)
    if args.trace:
        extras = workload.extras(traced)
        extras["untraced_pass_s"] = pass_seconds(untraced)
        extras["traced_pass_s"] = pass_seconds(traced)
        values = measure.layer_metrics(spans, extras)
        samples = {name: f"{len(traced)} passes" for name in values}
        write_trace(args.trace_dir, args.workload, args.seed, spans, values)
    else:
        ops, deploys = step_medians(untraced)
        tail_label, tail = op_tail(ops)
        values = {
            "setup_s": import_s + statistics.median(setups),
            "pass_s": sum(ops) + sum(deploys),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_tail_ms": tail * 1e3,
            "deploy_p50_ms": statistics.median(deploys) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # n: steps x passes each timing is the median of.
        per_step = f"x{len(untraced)}"
        samples = {"setup_s": f"{len(setups)}", "pass_s": f"{len(ops) + len(deploys)}{per_step}",
                   "op_p50_ms": f"{len(ops)}{per_step}",
                   "op_tail_ms": f"{len(ops)}{per_step} {tail_label}",
                   "deploy_p50_ms": f"{len(deploys)}{per_step}", "peak_rss_mb": "1"}
    return {
        "values": values,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "pace_s": [statistics.median(pace.samples), len(pace.samples)],
        "passes": [
            {"seconds": p.seconds, "op_seconds": p.op_seconds, "deploy_seconds": p.deploy_seconds}
            for p in every
        ],
    }


def _flatten(tree: dict, prefix: str = "") -> dict[str, str]:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}/{key}"))
        else:
            out[f"{prefix}/{key}"] = value
    return out


def repin(workloads) -> int:
    old = _flatten(workloads.load_expected())
    pins = workloads.compute_pins()
    new = _flatten(pins)
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    workloads.EXPECTED_JSON.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_JSON.name}; {len(changed)} digest(s) changed")
    for key in changed:
        print(f"  {key}: {str(old.get(key))[:12]} -> {str(new.get(key))[:12]}")
    return 0


def main(argv=None) -> int:
    born = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pace = measure.Pace()
    pace.sample()
    started = time.perf_counter()
    import workloads  # the program's import cost counts as set-up

    import_s = time.perf_counter() - started
    pace.sample()
    import_s = pace.paced(import_s, started)
    if args.repin:
        return repin(workloads)

    catalog = measure.load_catalog()
    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    result = measure_workload(args, workloads, born, import_s)
    values, samples = result["values"], result["samples"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['passes'])} pass(es), {result['attempted']} operations, "
          f"{result['failed']} failed")
    pace_s, paces = result["pace_s"]
    print(f"  host pace {pace_s * 1e3:.3f} ms (median of {paces}); timings are rescaled "
          f"to a pace of {measure.REF_PACE_S * 1e3:g} ms")
    for m in wanted:
        print(f"  {m['name']:<28s} {values[m['name']]:>14.6g} {m['unit']:<6s} "
              f"n={samples[m['name']]:<12s} ({m['better']} is better)")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "samples": samples, "pace_s": result["pace_s"], "passes": result["passes"],
            "result": line,
        }, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
