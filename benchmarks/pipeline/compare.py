"""Compare two sets of pipeline-benchmark runs.

    python3 benchmarks/pipeline/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/pipeline/compare.py --check-agreement SET_A SET_B

Each directory holds the ``--out`` files of ``run.py`` runs, one JSON
document per run.  Untraced runs are compared per (workload,
end-to-end metric): each side's median and quartiles, the share of
seed-matched pairs the change wins (ties count for neither), and one
verdict, with the bounds read from BENCHMARK.json:

* ``better``: the change wins at least 9 in 10 of at least 10 pairs,
  and its median beats the parent's by more than the parent's
  interquartile distance;
* ``unresolved``: either side's interquartile distance exceeds the
  bound (as a share of its median), unless every change run beats
  every parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

A ``failed_frac`` row per workload compares failed operations against
attempted ones: more failures than the parent is ``worse``.

``--check-agreement`` compares two sets of runs of the same code and
exits 1 unless every verdict is ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import measure

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: pathlib.Path) -> dict[str, list[dict]]:
    """Untraced run documents of one set, by workload, in seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("trace"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda doc: doc["seed"])
    return runs


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent, change, pairs, bound: float, better: str) -> tuple[str, float]:
    """The verdict on one metric and the change's share of pair wins."""
    p1, pm, p3 = measure.quartiles(parent)
    c1, cm, c3 = measure.quartiles(change)
    wins = sum(1 for p, c in pairs if _beats(c, p, better))
    share = wins / len(pairs) if pairs else 0.0
    if (
        len(pairs) >= MIN_PAIRS
        and share >= WIN_SHARE
        and _beats(cm, pm, better)
        and abs(cm - pm) > p3 - p1
    ):
        return "better", share
    dominates = all(_beats(c, p, better) for c in change for p in parent)
    spread = max(measure.relative_spread(parent), measure.relative_spread(change))
    if spread > bound and not dominates:
        return "unresolved", share
    worsening = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    if worsening > bound:
        return "worse", share
    return "unchanged", share


def compare(parent_runs: dict, change_runs: dict, catalog: dict) -> list[dict]:
    rows = []
    for workload in [w["name"] for w in catalog["workloads"]]:
        before, after = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not before or not after:
            continue
        by_seed = {doc["seed"]: doc for doc in before}
        matched = [(by_seed[doc["seed"]], doc) for doc in after if doc["seed"] in by_seed]
        for metric in catalog["end_to_end"]:
            name = metric["name"]

            def value(doc, name=name):
                return doc["result"]["metrics"][name]["value"]

            parent = [value(doc) for doc in before]
            change = [value(doc) for doc in after]
            pairs = [(value(p), value(c)) for p, c in matched]
            outcome, share = verdict(parent, change, pairs, metric["bound"], metric["better"])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": measure.quartiles(parent),
                "change": measure.quartiles(change),
                "wins": share,
                "pairs": len(pairs),
                "verdict": outcome,
            })

        def failed_frac(docs):
            attempted = sum(doc["result"]["attempted"] for doc in docs)
            return sum(doc["result"]["failed"] for doc in docs) / attempted

        parent_failed, change_failed = failed_frac(before), failed_frac(after)
        rows.append({
            "workload": workload,
            "metric": "failed_frac",
            "unit": "frac",
            "parent": (parent_failed,) * 3,
            "change": (change_failed,) * 3,
            "wins": 0.0,
            "pairs": len(matched),
            "verdict": "worse" if change_failed > parent_failed else "unchanged",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14s} {'metric':<12s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'wins':>9s}  verdict"
    ]
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        lines.append(
            f"{row['workload']:<14s} {row['metric']:<12s} "
            f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>30s} "
            f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>30s} "
            f"{row['wins']:>5.0%} /{row['pairs']:<2d} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--check-agreement", action="store_true",
                        help="the two sets ran the same code: every verdict must be unchanged")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), measure.load_catalog())
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    if args.check_agreement:
        disagreeing = [row for row in rows if row["verdict"] != "unchanged"]
        print(f"agreement: {len(rows) - len(disagreeing)}/{len(rows)} unchanged")
        return 1 if disagreeing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
