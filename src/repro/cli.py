"""Command-line entry point: ``repro <command> [options]``.

Static analysis from the shell, over published artefacts::

    repro lint registry.json                 # gate: exit 1 on errors
    repro lint detector.json --fail-on warning --format json
    repro analyze registry.json              # full report, exit 0
    repro simplify detector.json             # canonical predicate form
    repro surface flightgear                 # injection surface of targets
    repro prune 7Z-A2 --scale smoke          # static injection-space prune plan

``lint``/``analyze`` accept any mix of registry documents
(``DetectorRegistry.save`` output), single-detector documents
(``detector_to_json``), bare predicate documents
(``predicate_to_json``), campaign-configuration documents
(``CampaignConfig.to_dict``) and campaign documents
(``CampaignResult.to_dict``); the document shape is sniffed per file,
and a document whose ``format`` names anything else is refused.

The expensive half of the pipeline runs through the orchestrator::

    repro orchestrate 7Z-A1 --scale smoke --jobs 4 --store store/
    repro orchestrate 7Z-A2 --prune static --audit-fraction 0.1

Campaigns compose across runs through the content-addressed store
(only shards of edited modules re-execute; see
:mod:`repro.injection.store`)::

    repro campaign 7Z-A1 --store store/ --scale smoke
    repro store inspect store/
    repro store gc store/ --dry-run

Traces are recorded, summarized and exported with ``trace``::

    repro trace record 7Z-A1 --jobs 4 --out run-trace.jsonl
    repro trace summarize run-trace.jsonl
    repro trace export run-trace.jsonl -o run-trace.chrome.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import warnings

from repro.analysis.lint import (
    LintContext,
    Linter,
    default_rules,
    exit_code,
    render_json,
    render_text,
)
from repro.analysis.redundancy import analyze_registry
from repro.analysis.simplify import simplify_predicate
from repro.analysis.surface import analyze_target_package
from repro.core.serialize import (
    SerializationError,
    detector_from_dict,
    predicate_from_dict,
)
from repro.runtime.registry import DetectorRegistry, RegistryWarning

__all__ = ["main"]


def _load_documents(paths: list[str]) -> LintContext:
    """Build one lint context from a mix of artefact documents."""
    context = LintContext()
    for raw in paths:
        path = pathlib.Path(raw)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise SerializationError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SerializationError(f"{path}: invalid JSON: {exc}") from exc
        if isinstance(payload, dict) and payload.get("format") == "repro.runtime.registry":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegistryWarning)
                registry = DetectorRegistry.from_dict(payload, check=False)
            if context.registry is not None:
                raise SerializationError(
                    f"{path}: only one registry document per run"
                )
            context.registry = registry
            for entry in registry.latest():
                context.predicates[_unique(context, entry.name)] = (
                    entry.detector.predicate
                )
        elif (
            isinstance(payload, dict)
            and payload.get("format") == "repro.injection.campaign"
        ):
            # A full campaign document (repro sample/orchestrate
            # output): lint its config, and its sampling report when
            # the campaign was sampled.
            from repro.injection.campaign import CampaignConfig

            subject = path.stem
            try:
                context.campaigns[subject] = CampaignConfig.from_dict(
                    payload["config"]
                )
            except (KeyError, ValueError) as exc:
                raise SerializationError(
                    f"{path}: invalid campaign document: {exc}"
                ) from exc
            if payload.get("sampling") is not None:
                context.sampling[subject] = payload["sampling"]
            if payload.get("store"):
                context.stores[subject] = payload["store"]
        elif (
            isinstance(payload, dict)
            and "module" in payload
            and "injection_location" in payload
        ):
            from repro.injection.campaign import CampaignConfig

            subject = path.stem
            try:
                context.campaigns[subject] = CampaignConfig.from_dict(payload)
            except (KeyError, ValueError) as exc:
                raise SerializationError(
                    f"{path}: invalid campaign configuration: {exc}"
                ) from exc
        elif isinstance(payload, dict) and "format" in payload:
            raise SerializationError(
                f"{path}: unsupported document format "
                f"'{payload['format']}'"
            )
        elif isinstance(payload, dict) and "predicate" in payload:
            detector = detector_from_dict(payload)
            context.predicates[_unique(context, detector.name)] = (
                detector.predicate
            )
        else:
            context.predicates[_unique(context, path.stem)] = (
                predicate_from_dict(payload)
            )
    return context


def _unique(context: LintContext, name: str) -> str:
    if name not in context.predicates:
        return name
    suffix = 2
    while f"{name}#{suffix}" in context.predicates:
        suffix += 1
    return f"{name}#{suffix}"


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in default_rules():
            doc = (rule.__doc__ or "").strip().split("\n")[0]
            print(f"{rule.name:24s} {doc}")
        return 0
    if not args.paths:
        print("error: no documents to lint", file=sys.stderr)
        return 2
    context = _load_documents(args.paths)
    linter = Linter(select=args.select or None, ignore=args.ignore or None)
    findings = linter.run(context)
    report = render_json(findings) if args.format == "json" else render_text(findings)
    print(report)
    return exit_code(findings, args.fail_on)


def _cmd_analyze(args: argparse.Namespace) -> int:
    context = _load_documents(args.paths)
    out: dict[str, object] = {"subjects": [], "redundancy": []}
    for subject in sorted(context.predicates):
        result = context.simplification(subject)
        out["subjects"].append(
            {
                "subject": subject,
                "atoms_before": result.atoms_before,
                "atoms_after": result.atoms_after,
                "changed": result.changed,
                "simplified": result.simplified.to_source("state"),
                "verdicts": [
                    {"status": v.status, "detail": v.detail}
                    for v in result.verdicts
                ],
            }
        )
    if context.registry is not None:
        out["redundancy"] = [
            {
                "left": finding.left,
                "right": finding.right,
                "relation": finding.relation.relation,
                "proven": finding.relation.proven,
                "detail": finding.relation.detail,
            }
            for finding in analyze_registry(context.registry)
        ]
    if args.format == "json":
        print(json.dumps(out, indent=2))
        return 0
    for spec in out["subjects"]:
        marker = "~" if spec["changed"] else "="
        print(
            f"{spec['subject']}: {spec['atoms_before']} -> "
            f"{spec['atoms_after']} atoms {marker}"
        )
        print(f"  {spec['simplified']}")
        for verdict in spec["verdicts"]:
            print(f"  [{verdict['status']}] {verdict['detail']}")
    for pair in out["redundancy"]:
        kind = "proven" if pair["proven"] else "evidence"
        print(
            f"{pair['left']} {pair['relation']} {pair['right']} "
            f"({kind}: {pair['detail']})"
        )
    return 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    context = _load_documents(args.paths)
    for subject in sorted(context.predicates):
        result = simplify_predicate(context.predicates[subject])
        print(f"# {subject}: {result.atoms_before} -> {result.atoms_after} atoms")
        print(result.simplified.to_source("state"))
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    report = analyze_target_package(args.package)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "source": report.source,
                    "probes": [
                        {
                            "module": p.module,
                            "location": p.location,
                            "line": p.line,
                            "variables": list(p.variables),
                            "result_discarded": p.result_discarded,
                        }
                        for p in report.probes
                    ],
                    "dead_variables": [
                        {
                            "module": v.module,
                            "location": v.location,
                            "name": v.name,
                            "defined_line": v.defined_line,
                        }
                        for v in report.dead_variables()
                    ],
                },
                indent=2,
            )
        )
        return 0
    for probe in report.probes:
        print(f"{probe}: {', '.join(probe.variables) or '(no variables)'}")
        for variable in report.variables_at(probe.module, probe.location):
            status = (
                "dead"
                if variable.is_dead
                else f"read at {', '.join(map(str, variable.reads))}"
            )
            print(f"  {variable.name}: {status}")
    dead = report.dead_variables()
    print(f"{len(report.probes)} probe(s), {len(dead)} dead variable(s)")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    """Plan (without executing) the static prune of one dataset's
    campaign: per-point verdicts with dataflow provenance."""
    from repro.analysis.prune import plan_prune
    from repro.experiments.datasets import build_target, campaign_config
    from repro.experiments.scale import get_scale
    from repro.injection.campaign import Campaign

    spec = args.spec
    scale_obj = get_scale(args.scale)
    target = build_target(spec.target, scale_obj)
    config = campaign_config(spec, scale_obj)
    plan = plan_prune(Campaign(target, config))
    if args.format == "json":
        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    counts = plan.counts
    print(
        f"{args.dataset} @ {scale_obj.name}: {len(plan.points)} points, "
        f"{plan.runs_planned} runs planned -> {plan.runs_executed} to "
        f"execute, {plan.runs_pruned} pruned "
        f"({plan.pruned_fraction:.0%})"
    )
    print(
        "  verdicts: "
        + ", ".join(f"{counts.get(v, 0)} {v}" for v in sorted(counts))
    )
    for variable, reason in sorted(plan.variable_reasons.items()):
        print(f"  {variable}: {reason}")
    if args.verbose:
        for point in plan.points:
            print(
                f"    {point.variable} bit {point.bit}: {point.verdict}"
                + (f" [{point.class_id}]" if point.class_id else "")
                + f" -- {point.reason}"
            )
    return 0


def _store_arg(args: argparse.Namespace):
    """The campaign store named by ``--store``, or ``None``.  A command
    runs one campaign against it, so no sibling campaign would take
    records handed over by a dual run: hand-off is off."""
    if not args.store:
        return None
    from repro.injection.store import CampaignStore

    return CampaignStore(args.store, hand_off=False)


def _cmd_sample(args: argparse.Namespace) -> int:
    """Run one dataset's campaign in statistical sampling mode and
    report the per-stratum outcome-class estimates."""
    import time

    from repro.experiments.datasets import build_target, campaign_config
    from repro.experiments.scale import get_scale
    from repro.injection.campaign import Campaign
    from repro.injection.sampling import SamplingSpec
    from repro.orchestration.pool import make_pool

    spec = args.spec
    scale_obj = get_scale(args.scale)
    target = build_target(spec.target, scale_obj)
    config = campaign_config(spec, scale_obj).with_prune(args.prune)
    try:
        sampling = SamplingSpec(
            ci=args.ci,
            confidence=args.confidence,
            target_halfwidth=args.target_halfwidth,
            min_cells=args.min_cells,
            round_cells=args.round_cells,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with make_pool(args.jobs) as pool:
        result = Campaign(target, config).run(
            pool=pool, sampling=sampling, store=_store_arg(args)
        )
    seconds = time.perf_counter() - start
    if args.out:
        payload = result.to_dict()
        if args.store:
            payload["store"] = args.store
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2))
    report = result.sampling
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(
        f"{args.dataset} @ {scale_obj.name}: sampled "
        f"{report.cells_sampled} of {report.cells_total} cells "
        f"({report.sampled_fraction:.1%}) in {report.rounds} round(s), "
        f"{seconds:.2f}s [{report.spec.ci}, "
        f"{report.spec.confidence:.0%} CI, target half-width "
        f"{report.spec.target_halfwidth}]"
    )
    for stratum in report.strata:
        rates = ", ".join(
            f"{name}={estimate.rate:.3f} "
            f"[{estimate.low:.3f}, {estimate.high:.3f}]"
            for name, estimate in sorted(stratum.classes.items())
        )
        exact = (
            f" + {stratum.exact_cells} exact" if stratum.exact_cells else ""
        )
        print(
            f"  {stratum.stratum}: n={stratum.sampled}/{stratum.population}"
            f"{exact} ({stratum.stopped}): {rates}"
        )
    return 0


def _run_pipeline(
    args: argparse.Namespace,
    spec,
    prune: str | None = None,
    audit_fraction: float | None = None,
) -> dict:
    """Steps 1-4 on one Table II dataset (``spec``, from
    :func:`main`) through one worker pool: the run behind
    ``repro orchestrate`` and ``repro trace record``.

    :meth:`Methodology.step1_inject` runs the campaign sharded (and
    stored, with ``--store``), and :meth:`Methodology.run` evaluates the
    baseline and searches the scale's refinement grid on the same pool
    and store.  Campaign-shard addresses do not involve the grid, so a
    rerun against the same store reuses every shard, and rerunning a
    killed run resumes it.  ``prune``/``audit_fraction`` override the
    dataset's :class:`~repro.injection.campaign.CampaignConfig` fields
    of the same names (:meth:`~repro.injection.campaign.CampaignConfig.with_prune`).
    """
    import time

    from repro import observability as obs
    from repro.core.methodology import Methodology, MethodologyConfig
    from repro.experiments.datasets import build_target, campaign_config
    from repro.experiments.scale import get_scale
    from repro.orchestration.pool import make_pool

    scale = get_scale(args.scale)
    methodology = Methodology(
        MethodologyConfig(args.learner, folds=scale.folds, seed=scale.seed)
    )
    store = _store_arg(args)
    started = time.perf_counter()
    with make_pool(args.jobs) as pool, obs.span(
        "orchestrate.run", dataset=args.dataset, scale=scale.name, jobs=pool.jobs
    ):
        target = build_target(spec.target, scale)
        config = campaign_config(spec, scale).with_prune(prune, audit_fraction)
        result = methodology.step1_inject(target, config, pool, store)
        outcome = methodology.run(
            result.to_dataset(args.dataset), scale.grid, pool=pool, store=store
        )
    best = outcome.refinement.best
    return {
        "dataset": args.dataset,
        "scale": scale.name,
        "learner": args.learner,
        "jobs": pool.jobs,
        "seconds": time.perf_counter() - started,
        "campaign": {
            "runs": result.n_runs,
            "failures": result.n_failures,
            "crashes": result.n_crashes,
            "failure_rate": result.failure_rate,
            **result.orchestration,
            **({"prune": result.prune} if result.prune is not None else {}),
        },
        "baseline": outcome.baseline.summary(),
        "refined": best.evaluation.summary(),
        "best_plan": best.plan.describe(),
    }


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    report = _run_pipeline(args, args.spec, args.prune, args.audit_fraction)
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    campaign = report["campaign"]
    print(
        f"{report['dataset']} @ {report['scale']} (learner "
        f"{report['learner']}, jobs {report['jobs']}): "
        f"{report['seconds']:.2f}s"
    )
    print(
        f"  campaign: {campaign['runs']} runs, "
        f"{campaign['failures']} failures ({campaign['crashes']} crashes); "
        f"{campaign['executed']} shard(s) executed, "
        f"{campaign['stored']} from store, "
        f"{len(campaign['quarantined'])} quarantined"
    )
    prune_info = campaign.get("prune")
    if prune_info:
        audit = prune_info.get("audit") or {}
        print(
            f"  prune: {prune_info['runs_pruned']} of "
            f"{prune_info['runs_planned']} runs pruned "
            f"({prune_info['pruned_fraction']:.0%}); "
            f"{audit.get('audited', 0)} audited, "
            f"{audit.get('contradictions', 0)} contradiction(s)"
        )
    for label in ("baseline", "refined"):
        row = report[label]
        print(
            f"  {label}: auc={row['auc']:.3f} tpr={row['tpr']:.3f} "
            f"fpr={row['fpr']:.3f} comp={row['comp']:.1f}"
        )
    print(f"  best plan: {report['best_plan']}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run one dataset's campaign against a persistent store: shards
    whose content address is already stored load instead of executing,
    so re-runs after a module edit only pay for the edited module."""
    import time

    from repro.experiments.datasets import build_target, campaign_config
    from repro.experiments.scale import get_scale
    from repro.injection.campaign import Campaign
    from repro.injection.sampling import SamplingSpec
    from repro.injection.store import CampaignStore
    from repro.orchestration.pool import make_pool

    spec = args.spec
    scale_obj = get_scale(args.scale)
    target = build_target(spec.target, scale_obj)
    config = campaign_config(spec, scale_obj).with_prune(args.prune)
    store = CampaignStore(args.store, hand_off=False)
    start = time.perf_counter()
    with make_pool(args.jobs) as pool:
        result = Campaign(target, config).run(
            pool=pool,
            sampling=SamplingSpec() if args.mode == "sample" else None,
            store=store,
        )
    seconds = time.perf_counter() - start
    if args.out:
        payload = result.to_dict()
        payload["store"] = args.store
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2))
    orchestration = result.orchestration
    counters = orchestration.get("store") or {}
    if args.format == "json":
        print(
            json.dumps(
                {
                    "dataset": args.dataset,
                    "scale": scale_obj.name,
                    "seconds": seconds,
                    "runs": result.n_runs,
                    "failures": result.n_failures,
                    "crashes": result.n_crashes,
                    "orchestration": orchestration,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{args.dataset} @ {scale_obj.name}: {result.n_runs} runs, "
        f"{result.n_failures} failures ({result.n_crashes} crashes), "
        f"{seconds:.2f}s"
    )
    print(
        f"  shards: {orchestration.get('executed', '?')} executed, "
        f"{orchestration.get('stored', 0)} from store, "
        f"{len(orchestration.get('quarantined', ()))} quarantined"
    )
    if counters:
        print(
            f"  store: {counters.get('hits', 0)} hit(s), "
            f"{counters.get('misses', 0)} cold miss(es), "
            f"{counters.get('invalidated', 0)} invalidated, "
            f"{counters.get('writes', 0)} write(s) -> {args.store}"
        )
    else:
        print(
            "  store: target not eligible (no module_sources); ran "
            "storeless"
        )
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from repro.injection.store import CampaignStore

    summary = CampaignStore(args.store).summary()
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"{summary['root']}: {summary['shards']} shard(s), "
        f"{summary['records']} record(s), {summary['stale']} stale"
    )
    for row in summary["slices"]:
        marker = " [stale]" if row["stale"] else ""
        print(
            f"  {row['target']}/{row['module']}: {row['shards']} shard(s), "
            f"{row['records']} record(s){marker}"
        )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.injection.store import CampaignStore

    removed = CampaignStore(args.store).gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{args.store}: {verb} {len(removed)} stale shard(s)")
    for fingerprint in removed:
        print(f"  {fingerprint}")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro import observability as obs

    with obs.tracing_to(args.out):
        report = _run_pipeline(args, args.spec)
    spans = obs.load_trace(args.out)
    summary = obs.summarize(spans)
    if args.format == "json":
        print(
            json.dumps({"report": report, "summary": summary.to_dict()}, indent=2)
        )
        return 0
    print(
        f"{report['dataset']} @ {report['scale']} (jobs {report['jobs']}): "
        f"{report['seconds']:.2f}s -> {args.out}"
    )
    print(obs.render_summary(summary))
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro import observability as obs

    summary = obs.summarize(obs.load_trace(args.trace))
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(obs.render_summary(summary))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro import observability as obs

    spans = obs.load_trace(args.trace)
    out = args.out or f"{args.trace}.chrome.json"
    obs.write_chrome_trace(spans, out)
    print(f"{len(spans)} span(s) -> {out} (open in about:tracing / Perfetto)")
    return 0


def _add_document_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", help="registry/detector/predicate JSON documents"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="static analysis of detector artefacts"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint", help="run lint rules; non-zero exit on findings at --fail-on"
    )
    _add_document_options(lint)
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "info", "never"),
        default="error",
        help="lowest severity that fails the run (default: error)",
    )
    lint.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only these rules (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip these rules (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    lint.set_defaults(func=_cmd_lint)

    analyze = commands.add_parser(
        "analyze", help="full static report: simplification + redundancy"
    )
    _add_document_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    simplify = commands.add_parser(
        "simplify", help="print the canonical form of each predicate"
    )
    simplify.add_argument(
        "paths", nargs="+", help="registry/detector/predicate JSON documents"
    )
    simplify.set_defaults(func=_cmd_simplify)

    surface = commands.add_parser(
        "surface", help="injection-surface report of a target package"
    )
    surface.add_argument(
        "package",
        help='target package (e.g. "flightgear" or a dotted module path)',
    )
    surface.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    surface.set_defaults(func=_cmd_surface)

    prune = commands.add_parser(
        "prune",
        help="static injection-space prune plan for a dataset's campaign",
    )
    prune.add_argument(
        "dataset", help='Table II dataset name (e.g. "7Z-A2")'
    )
    prune.add_argument(
        "--scale", choices=("smoke", "bench", "paper"), default="smoke",
        help="experiment scale (default: smoke)",
    )
    prune.add_argument(
        "--verbose", action="store_true",
        help="print every per-point verdict with its provenance",
    )
    prune.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    prune.set_defaults(func=_cmd_prune)

    sample = commands.add_parser(
        "sample",
        help="statistical sampling campaign with per-stratum interval "
        "estimates",
    )
    sample.add_argument(
        "dataset", help='Table II dataset name (e.g. "7Z-A1")'
    )
    sample.add_argument(
        "--scale", choices=("smoke", "bench", "paper"), default="smoke",
        help="experiment scale (default: smoke)",
    )
    sample.add_argument(
        "--ci", choices=("wilson", "clopper-pearson"), default="wilson",
        help="interval estimator (default: wilson)",
    )
    sample.add_argument(
        "--target-halfwidth", type=float, default=0.05, metavar="W",
        help="early-stop interval half-width target (default: 0.05)",
    )
    sample.add_argument(
        "--confidence", type=float, default=0.95,
        help="two-sided confidence level (default: 0.95)",
    )
    sample.add_argument(
        "--min-cells", type=int, default=32, metavar="N",
        help="per-stratum cell floor before early stop (default: 32)",
    )
    sample.add_argument(
        "--round-cells", type=int, default=256, metavar="N",
        help="cells per stratum per round (default: 256)",
    )
    sample.add_argument(
        "--seed", type=int, default=0,
        help="root seed of the stratified draw order (default: 0)",
    )
    sample.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default: serial)",
    )
    sample.add_argument(
        "--store", default=None, metavar="DIR",
        help="campaign store directory; shards interoperate with "
        "exhaustive campaigns of the same config",
    )
    sample.add_argument(
        "--prune", choices=("none", "static"), default=None,
        help="restrict draws to statically live classes and synthesize "
        "the rest exactly (default: config setting, else none)",
    )
    sample.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full campaign document (records + sampling "
        "report, lintable) to PATH",
    )
    sample.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    sample.set_defaults(func=_cmd_sample)

    campaign = commands.add_parser(
        "campaign",
        help="run a dataset's campaign against a persistent "
        "content-addressed store (delta re-runs after module edits)",
    )
    campaign.add_argument(
        "dataset", help='Table II dataset name (e.g. "7Z-A1")'
    )
    campaign.add_argument(
        "--store", required=True, metavar="DIR",
        help="campaign store directory (created on first run)",
    )
    campaign.add_argument(
        "--scale", choices=("smoke", "bench", "paper"), default="smoke",
        help="experiment scale (default: smoke)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default: serial)",
    )
    campaign.add_argument(
        "--prune", choices=("none", "static"), default=None,
        help="skip statically proven-dead/equivalent injections "
        "(default: config setting, else none)",
    )
    campaign.add_argument(
        "--mode", choices=("exhaustive", "sample"), default="exhaustive",
        help="enumeration mode (default: exhaustive)",
    )
    campaign.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full campaign document (lintable; records the "
        "store path) to PATH",
    )
    campaign.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    campaign.set_defaults(func=_cmd_campaign)

    store = commands.add_parser(
        "store", help="inspect and garbage-collect campaign stores"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    s_inspect = store_commands.add_parser(
        "inspect", help="per-slice shard/record counts and staleness"
    )
    s_inspect.add_argument("store", help="campaign store directory")
    s_inspect.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    s_inspect.set_defaults(func=_cmd_store_inspect)

    s_gc = store_commands.add_parser(
        "gc", help="remove shard generations superseded by module edits"
    )
    s_gc.add_argument("store", help="campaign store directory")
    s_gc.add_argument(
        "--dry-run", action="store_true",
        help="report stale shards without deleting them",
    )
    s_gc.set_defaults(func=_cmd_store_gc)

    orchestrate = commands.add_parser(
        "orchestrate",
        help="run campaign + refinement for a dataset, parallel and resumable",
    )
    orchestrate.add_argument(
        "dataset", help='Table II dataset name (e.g. "7Z-A1")'
    )
    orchestrate.add_argument(
        "--scale", choices=("smoke", "bench", "paper"), default="smoke",
        help="experiment scale (default: smoke)",
    )
    orchestrate.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: serial)",
    )
    orchestrate.add_argument(
        "--store", default=None, metavar="DIR",
        help="campaign store directory; rerunning against it resumes "
        "the run",
    )
    orchestrate.add_argument(
        "--learner", default="c45", help="learner name (default: c45)"
    )
    orchestrate.add_argument(
        "--prune", choices=("none", "static"), default=None,
        help="skip statically proven-dead/equivalent injections "
        "(default: config setting, else none)",
    )
    orchestrate.add_argument(
        "--audit-fraction", type=float, default=None, metavar="FRACTION",
        help="fraction of pruned cells to re-inject as a soundness "
        "audit (default: 0.05)",
    )
    orchestrate.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    orchestrate.set_defaults(func=_cmd_orchestrate)

    trace = commands.add_parser(
        "trace", help="record, summarize and export pipeline traces"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_commands.add_parser(
        "record", help="run an orchestrated dataset with tracing enabled"
    )
    record.add_argument("dataset", help='Table II dataset name (e.g. "7Z-A1")')
    record.add_argument(
        "--scale", choices=("smoke", "bench", "paper"), default="smoke",
        help="experiment scale (default: smoke)",
    )
    record.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: serial)",
    )
    record.add_argument(
        "--store", default=None, metavar="DIR",
        help="campaign store directory; rerunning against it resumes "
        "the run",
    )
    record.add_argument(
        "--learner", default="c45", help="learner name (default: c45)"
    )
    record.add_argument(
        "--out", default="trace.jsonl", metavar="PATH",
        help="trace journal to write (default: trace.jsonl)",
    )
    record.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    record.set_defaults(func=_cmd_trace_record)

    summarize = trace_commands.add_parser(
        "summarize", help="per-phase totals, self-time, counter rollups"
    )
    summarize.add_argument("trace", help="trace journal (JSONL) to summarize")
    summarize.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    summarize.set_defaults(func=_cmd_trace_summarize)

    export = trace_commands.add_parser(
        "export", help="convert a trace journal to Chrome trace-event JSON"
    )
    export.add_argument("trace", help="trace journal (JSONL) to convert")
    export.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output path (default: <trace>.chrome.json)",
    )
    export.set_defaults(func=_cmd_trace_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "dataset"):
        # Every command with a ``dataset`` argument takes a Table II id;
        # it reaches the command resolved, as ``args.spec``.  Imported
        # here: the dataset table imports every target, which the other
        # commands never need.
        from repro.experiments.datasets import UnknownDataset, dataset_spec

        try:
            args.spec = dataset_spec(args.dataset)
        except UnknownDataset as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
