"""Per-variable observation verdicts for instrumented modules.

For every probe site ``state = harness.probe(module, location, {...})``
the analyzer asks, per exposed variable: *how does the rest of the
function observe the value the probe returned?*  It answers with a
:class:`VariableFlow` in one of three states:

* ``dead`` -- the returned state's entry for the variable is never
  read on any path (never subscripted, or the state binding is
  overwritten before any use, or the probe result is discarded): an
  injection cannot propagate, so the run's outcome is the golden
  outcome by construction;
* ``observed`` -- every read of the variable terminates in a pure
  *observation channel* (see :mod:`repro.analysis.dataflow.lattice`):
  the execution's outcome is a function of the channel outputs only;
* ``live`` -- the raw value escapes (identity channel), the state
  dict itself escapes, a key is computed dynamically, or the function
  uses constructs the CFG cannot model: every bit may matter.

Soundness invariant: channels must cover *every* observation of the
value.  The climb from each read site therefore terminates in a
channel at the first composition it cannot prove pure -- the escaping
composed value is itself a sound channel (two injected values with
equal composed results hand identical values to whatever consumes
them).  Reaching definitions attribute reads to the right probe and
follow the value through local aliases, with cycles and depth capped
by falling back to the composed-so-far channel.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import types

from repro.analysis.dataflow.cfg import CFG, UnsupportedConstruct, build_cfg
from repro.analysis.dataflow.lattice import (
    Channel,
    constant_value,
    pure_call_name,
)
from repro.analysis.dataflow.probes import (
    FunctionProbe,
    ProbeSite,
    function_probes,
    iter_target_sources,
    module_functions,
)
from repro.analysis.dataflow.reaching import (
    Definition,
    def_use_chains,
    definitions_of,
    reaching_definitions,
)

__all__ = [
    "VariableFlow",
    "ModuleDataflow",
    "analyze_dataflow",
    "analyze_dataflow_module",
    "analyze_dataflow_package",
]

_MAX_FLOW_DEPTH = 24


@dataclasses.dataclass(frozen=True)
class VariableFlow:
    """How one probe site's variable is observed downstream."""

    module: str
    location: str
    name: str
    defined_line: int
    status: str  # "dead" | "observed" | "live"
    channels: tuple[Channel, ...] = ()
    read_lines: tuple[int, ...] = ()
    reason: str = ""

    @property
    def is_dead(self) -> bool:
        return self.status == "dead"


@dataclasses.dataclass
class ModuleDataflow:
    """Dataflow verdicts for one or more analysed sources."""

    source_name: str
    probes: list[ProbeSite]
    site_flows: list[VariableFlow]  # one per (probe site, variable)

    def merged_with(self, other: "ModuleDataflow") -> "ModuleDataflow":
        return ModuleDataflow(
            source_name=f"{self.source_name}, {other.source_name}",
            probes=self.probes + other.probes,
            site_flows=self.site_flows + other.site_flows,
        )

    def sites_at(self, module: str, location: str) -> list[ProbeSite]:
        return [
            p
            for p in self.probes
            if p.module == module and p.location == str(location)
        ]

    def flows_at(self, module: str, location: str) -> list[VariableFlow]:
        return [
            f
            for f in self.site_flows
            if f.module == module and f.location == str(location)
        ]

    def flow(self, module: str, location: str, name: str) -> VariableFlow | None:
        """Joined verdict for one variable across all its probe sites.

        The join runs toward TOP: any live site wins, channels union
        across observed sites, and a variable missing from any site of
        the key is live (an injection at that site's occurrences would
        violate the instrumentation contract rather than be masked).
        """
        location = str(location)
        sites = self.sites_at(module, location)
        if not sites:
            return None
        if any(name not in site.variables for site in sites):
            return VariableFlow(
                module=module,
                location=location,
                name=name,
                defined_line=sites[0].line,
                status="live",
                reason="not exposed at every probe site of this key",
            )
        flows = [
            f
            for f in self.flows_at(module, location)
            if f.name == name
        ]
        if not flows:
            return None
        if len(flows) == 1:
            return flows[0]
        if any(f.status == "live" for f in flows):
            live = next(f for f in flows if f.status == "live")
            return dataclasses.replace(
                live, reason=f"live at one of {len(flows)} sites: {live.reason}"
            )
        channels: dict[str, Channel] = {}
        read_lines: list[int] = []
        for f in flows:
            for channel in f.channels:
                channels.setdefault(channel.expr, channel)
            read_lines.extend(f.read_lines)
        status = "observed" if channels else "dead"
        return VariableFlow(
            module=module,
            location=location,
            name=name,
            defined_line=flows[0].defined_line,
            status=status,
            channels=tuple(channels.values()),
            read_lines=tuple(sorted(set(read_lines))),
            reason="; ".join(sorted({f.reason for f in flows if f.reason})),
        )


def _parent_map(function: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(function):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


class _FunctionAnalysis:
    """Shared per-function machinery for climbing observations."""

    def __init__(self, function: ast.FunctionDef | ast.AsyncFunctionDef):
        self.function = function
        self.cfg: CFG = build_cfg(function)
        self.defs = definitions_of(self.cfg)
        self.reaching = reaching_definitions(self.cfg, self.defs)
        self.chains = def_use_chains(self.cfg, self.defs, self.reaching)
        self.parents = _parent_map(function)
        # Locally bound names shadow builtins/math: calls to them are
        # never channel-pure.
        self.bound_names = {
            d.name for per_node in self.defs.values() for d in per_node
        }

    def pure_callable(self, func: ast.expr) -> str | None:
        name = pure_call_name(func)
        if name is None:
            return None
        root = name.split(".")[0]
        if root in self.bound_names:
            return None
        return name

    def defs_at(self, node_index: int, name: str) -> list[Definition]:
        return [d for d in self.defs[node_index] if d.name == name]

    def climb(
        self,
        current: ast.expr,
        node_index: int,
        composed: ast.expr,
        visited: frozenset[Definition],
        depth: int,
    ) -> list[Channel]:
        """Observation channels reachable from one read expression.

        ``current`` starts at the read (the ``state["x"]`` subscript);
        ``composed`` is the pure expression describing the value
        ``current`` evaluates to, over the ``__v__`` placeholder.
        Every return path yields channels that cover all observations
        downstream of this read.
        """
        while True:
            if depth > _MAX_FLOW_DEPTH:
                return [self._escape(composed, current)]
            parent = self.parents.get(id(current))
            if parent is None:
                return [self._escape(composed, current)]
            if isinstance(parent, (ast.If, ast.While)) and current is parent.test:
                return [self._bool_channel(composed, current)]
            if isinstance(parent, ast.IfExp) and current is parent.test:
                return [self._bool_channel(composed, current)]
            if isinstance(parent, ast.Assert) and current is parent.test:
                return [self._bool_channel(composed, current)]
            if isinstance(parent, ast.UnaryOp):
                composed = ast.UnaryOp(op=parent.op, operand=composed)
                current = parent
                depth += 1
                continue
            if isinstance(parent, ast.BinOp):
                other = parent.right if current is parent.left else parent.left
                if not constant_value(other)[0]:
                    return [self._escape(composed, current)]
                if current is parent.left:
                    composed = ast.BinOp(left=composed, op=parent.op, right=other)
                else:
                    composed = ast.BinOp(left=other, op=parent.op, right=composed)
                current = parent
                depth += 1
                continue
            if isinstance(parent, ast.Compare) and len(parent.ops) == 1:
                comparator = parent.comparators[0]
                if current is parent.left and constant_value(comparator)[0]:
                    composed = ast.Compare(
                        left=composed, ops=parent.ops, comparators=[comparator]
                    )
                    current = parent
                    depth += 1
                    continue
                if current is comparator and constant_value(parent.left)[0]:
                    composed = ast.Compare(
                        left=parent.left, ops=parent.ops, comparators=[composed]
                    )
                    current = parent
                    depth += 1
                    continue
                return [self._escape(composed, current)]
            if isinstance(parent, ast.Call) and current in parent.args:
                name = self.pure_callable(parent.func)
                others_constant = all(
                    arg is current or constant_value(arg)[0]
                    for arg in parent.args
                )
                if name is not None and others_constant and not parent.keywords:
                    args = [
                        composed if arg is current else arg
                        for arg in parent.args
                    ]
                    composed = ast.Call(
                        func=ast.parse(name, mode="eval").body,
                        args=args,
                        keywords=[],
                    )
                    current = parent
                    depth += 1
                    continue
                return [self._escape(composed, current)]
            if isinstance(parent, ast.Expr):
                # Statement expression: the value is discarded.
                return []
            if isinstance(parent, ast.Assign) and current is parent.value:
                if len(parent.targets) == 1 and isinstance(
                    parent.targets[0], ast.Name
                ):
                    return self._flow_into(
                        parent, parent.targets[0].id, composed, visited, depth
                    )
                return [self._escape(composed, current)]
            if isinstance(parent, ast.NamedExpr) and current is parent.value:
                into = self._flow_into(
                    None,
                    parent.target.id,
                    composed,
                    visited,
                    depth,
                    walrus=parent,
                )
                onward = self.climb(parent, node_index, composed, visited, depth + 1)
                return into + onward
            if isinstance(parent, ast.AugAssign) and current is parent.value:
                # x <op>= composed: the old x is independent state; the
                # stored result is observed as an opaque escape.
                return [self._escape(composed, current)]
            return [self._escape(composed, current)]

    def climb_use(
        self,
        use_node: int,
        name_node: ast.Name,
        composed: ast.expr,
        visited: frozenset[Definition],
        depth: int,
    ) -> list[Channel]:
        parent = self.parents.get(id(name_node))
        if isinstance(parent, ast.AugAssign) and name_node is parent.target:
            # x <op>= rhs reads x; with a constant rhs the stored value
            # stays a pure composition and flows into the new binding.
            if constant_value(parent.value)[0]:
                rebound = ast.BinOp(
                    left=composed, op=parent.op, right=parent.value
                )
                new_defs = self.defs_at(use_node, name_node.id)
                return self._flow_defs(new_defs, rebound, visited, depth)
            return [self._escape(composed, name_node)]
        return self.climb(name_node, use_node, composed, visited, depth)

    def _flow_into(
        self,
        assign: ast.stmt | None,
        name: str,
        composed: ast.expr,
        visited: frozenset[Definition],
        depth: int,
        walrus: ast.expr | None = None,
    ) -> list[Channel]:
        """The composed value is bound to a local: follow its uses."""
        if assign is not None:
            node_index = self.cfg.node_of(assign)
        else:
            node_index = self._node_containing(walrus)
        if node_index is None:
            return [self._escape(composed, walrus or assign)]
        new_defs = [
            d
            for d in self.defs_at(node_index, name)
            if d.value is (assign.value if assign is not None else walrus.value)
        ] or self.defs_at(node_index, name)
        return self._flow_defs(new_defs, composed, visited, depth)

    def _flow_defs(
        self,
        new_defs: list[Definition],
        composed: ast.expr,
        visited: frozenset[Definition],
        depth: int,
    ) -> list[Channel]:
        channels: list[Channel] = []
        for definition in new_defs:
            if definition in visited:
                # Cycle (loop-carried recomposition): treat the value
                # entering the cycle as fully observed.
                channels.append(self._escape(composed, None, definition.line))
                continue
            sub_visited = visited | {definition}
            for use_node, name_node in self.chains.get(definition, ()):
                channels.extend(
                    self.climb_use(
                        use_node, name_node, composed, sub_visited, depth + 1
                    )
                )
        return channels

    def _node_containing(self, expr: ast.expr | None) -> int | None:
        node = expr
        while node is not None:
            index = self.cfg.node_of(node)
            if index is not None:
                return index
            node = self.parents.get(id(node))
        return None

    def _bool_channel(self, composed: ast.expr, site: ast.AST) -> Channel:
        call = ast.Call(
            func=ast.Name(id="bool", ctx=ast.Load()), args=[composed], keywords=[]
        )
        return Channel(_unparse(call), getattr(site, "lineno", 0))

    def _escape(
        self, composed: ast.expr, site: ast.AST | None, line: int | None = None
    ) -> Channel:
        return Channel(
            _unparse(composed),
            line if line is not None else getattr(site, "lineno", 0),
        )


def _unparse(expr: ast.expr) -> str:
    return ast.unparse(ast.fix_missing_locations(expr))


def _placeholder() -> ast.expr:
    return ast.Name(id="__v__", ctx=ast.Load())


def _live_flows(site: ProbeSite, reason: str) -> list[VariableFlow]:
    return [
        VariableFlow(
            module=site.module,
            location=site.location,
            name=name,
            defined_line=site.line,
            status="live",
            reason=reason,
        )
        for name in site.variables
    ]


def _analyze_probe(
    analysis: _FunctionAnalysis, probe: FunctionProbe
) -> list[VariableFlow]:
    site = probe.site
    if site.result_discarded:
        return [
            VariableFlow(
                module=site.module,
                location=site.location,
                name=name,
                defined_line=site.line,
                status="dead",
                reason="probe result discarded: injections cannot reach "
                "the module",
            )
            for name in site.variables
        ]
    node_index = analysis.cfg.node_of(probe.assign)
    if node_index is None:
        return _live_flows(site, "probe assignment not anchored in the CFG")
    state_defs = [
        d
        for d in analysis.defs_at(node_index, site.state_name)
        if isinstance(d.value, ast.Call)
    ]
    if len(state_defs) != 1:
        return _live_flows(site, "ambiguous state binding")
    state_def = state_defs[0]

    # Classify every use of the state dict reached by this probe's
    # binding: a constant-key read, or an escape of the whole dict.
    reads: dict[str, list[tuple[ast.expr, int]]] = {}
    for use_node, name_node in analysis.chains.get(state_def, ()):
        parent = analysis.parents.get(id(name_node))
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is name_node
            and isinstance(parent.ctx, ast.Load)
        ):
            ok, key = constant_value(parent.slice)
            if ok and isinstance(key, str):
                reads.setdefault(key, []).append((parent, use_node))
                continue
            return _live_flows(
                site, f"dynamic state key at line {parent.lineno}"
            )
        grand = analysis.parents.get(id(parent))
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is name_node
            and parent.attr == "get"
            and isinstance(grand, ast.Call)
            and grand.func is parent
            and not grand.keywords
            and 1 <= len(grand.args) <= 2
        ):
            ok, key = constant_value(grand.args[0])
            default_ok = len(grand.args) == 1 or constant_value(grand.args[1])[0]
            if ok and isinstance(key, str) and default_ok:
                reads.setdefault(key, []).append((grand, use_node))
                continue
            return _live_flows(
                site, f"dynamic state key at line {parent.lineno}"
            )
        line = getattr(name_node, "lineno", site.line)
        return _live_flows(
            site, f"state dict escapes at line {line}"
        )

    flows: list[VariableFlow] = []
    for name in site.variables:
        sites_read = reads.get(name, ())
        if not sites_read:
            if analysis.chains.get(state_def):
                reason = f"key {name!r} never read after probe"
            elif _binding_overwritten(analysis, state_def):
                reason = "state binding overwritten before any use"
            else:
                reason = "state never read after probe"
            flows.append(
                VariableFlow(
                    module=site.module,
                    location=site.location,
                    name=name,
                    defined_line=site.line,
                    status="dead",
                    reason=f"{reason} (line {site.line})",
                )
            )
            continue
        channels: dict[str, Channel] = {}
        for read_expr, use_node in sites_read:
            for channel in analysis.climb(
                read_expr,
                use_node,
                _placeholder(),
                frozenset({state_def}),
                0,
            ):
                channels.setdefault(channel.expr, channel)
        read_lines = tuple(
            sorted({expr.lineno for expr, _ in sites_read})
        )
        if not channels:
            flows.append(
                VariableFlow(
                    module=site.module,
                    location=site.location,
                    name=name,
                    defined_line=site.line,
                    status="dead",
                    read_lines=(),
                    reason="all reads discard the value "
                    f"(lines {', '.join(map(str, read_lines))})",
                )
            )
            continue
        identity = next(
            (c for c in channels.values() if c.is_identity), None
        )
        if identity is not None:
            flows.append(
                VariableFlow(
                    module=site.module,
                    location=site.location,
                    name=name,
                    defined_line=site.line,
                    status="live",
                    channels=(identity,),
                    read_lines=read_lines,
                    reason=f"raw value escapes at line {identity.line}",
                )
            )
            continue
        flows.append(
            VariableFlow(
                module=site.module,
                location=site.location,
                name=name,
                defined_line=site.line,
                status="observed",
                channels=tuple(channels.values()),
                read_lines=read_lines,
                reason=f"observed through {len(channels)} pure channel(s)",
            )
        )
    return flows


def _binding_overwritten(
    analysis: _FunctionAnalysis, state_def: Definition
) -> bool:
    """Whether another definition of the state name exists (provenance
    for the 'overwritten before use' reason)."""
    for per_node in analysis.defs.values():
        for definition in per_node:
            if definition.name == state_def.name and definition is not state_def:
                return True
    return False


def analyze_dataflow(source: str, name: str = "<module>") -> ModuleDataflow:
    """Analyse one module's source text."""
    tree = ast.parse(source, filename=name)
    probes: list[ProbeSite] = []
    site_flows: list[VariableFlow] = []
    for function in module_functions(tree):
        found = function_probes(function)
        if not found:
            continue
        try:
            analysis: _FunctionAnalysis | None = _FunctionAnalysis(function)
        except UnsupportedConstruct as exc:
            analysis = None
            unsupported = str(exc)
        for probe in found:
            probes.append(probe.site)
            if analysis is None:
                site_flows.extend(
                    _live_flows(
                        probe.site, f"unsupported construct: {unsupported}"
                    )
                )
            else:
                site_flows.extend(_analyze_probe(analysis, probe))
    return ModuleDataflow(source_name=name, probes=probes, site_flows=site_flows)


def analyze_dataflow_module(module: types.ModuleType) -> ModuleDataflow:
    """Analyse an imported Python module."""
    return analyze_dataflow(inspect.getsource(module), module.__name__)


def analyze_dataflow_package(package: str | types.ModuleType) -> ModuleDataflow:
    """Analyse every submodule of a target package (see
    :func:`repro.analysis.dataflow.probes.iter_target_sources`)."""
    report: ModuleDataflow | None = None
    source_name = package if isinstance(package, str) else package.__name__
    for module_name, source in iter_target_sources(package):
        analysed = analyze_dataflow(source, module_name)
        report = analysed if report is None else report.merged_with(analysed)
    if report is None:
        return ModuleDataflow(source_name=str(source_name), probes=[], site_flows=[])
    return report
