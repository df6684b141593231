"""Target system protocol.

Section III-A models a software system as interconnected modules, each
holding non-composite variables and actions that read/write them.  A
target system in this reproduction is a class that

* names its instrumented modules and declares the machine
  representation of every variable each module exposes at its probes
  (:meth:`TargetSystem.variables_of`);
* executes a numbered, deterministic test case against a harness
  (:meth:`TargetSystem.run`), calling ``harness.probe(module,
  location, state)`` at every instrumented module's entry and exit and
  continuing with the returned (possibly corrupted) state;
* defines its failure specification (:meth:`TargetSystem.is_failure`),
  comparing an injected run's output to the golden run's (Section
  VI-F).

Targets are grey box, as the paper assumes: the harness sees variable
names and values, not the target's semantics.

The resumable step protocol
---------------------------
A target may describe its run as a loop of *units* -- one FlightGear
control-loop iteration, one 7-Zip compress-file or decompress-file,
one Mp3Gain track -- through three methods:

* :meth:`TargetSystem.start` ``(test_case) -> state`` builds the
  initial run state;
* :meth:`TargetSystem.advance` ``(state, harness) -> bool`` executes
  the next unit against the harness, mutating ``state``, and returns
  ``False`` (executing nothing) once every unit has run;
* :meth:`TargetSystem.finish` ``(state) -> output`` derives the
  observable output.

:meth:`TargetSystem.run` is then the loop over the three, and a
resumed run (:meth:`repro.injection.golden.Checkpoint.resume`) is the
same loop from a later state, so the two execute the same code.  The
state must be self-contained and picklable: it may share only immutable values with the target, never
a mutable object the target holds, so ``pickle.loads`` of a snapshot
taken between two units continues exactly as the original run would.

That is what lets a campaign skip the fault-free prefix of an
injected run (:mod:`repro.injection.golden`,
:meth:`~repro.injection.golden.FaultFreeRun.checkpoints`): the prefix
before the injection point is identical to the golden run, so the run
resumes from a snapshot of the fault-free state at the last unit
boundary before the injection instead of replaying the test case from
its start.  A campaign replays in full instead when

* the target only overrides :meth:`run` (toy targets, targets with a
  run that is not the unit loop): :meth:`TargetSystem.resumable` is
  false;
* the campaign overrides ``_make_harness`` or ``_after_run`` (the
  validation campaign), since those hooks observe the prefix;
* no unit boundary has the injection probe's occurrence count equal
  to the injection time, or the sampling probe had already fired past
  it there (a sample the prefix would have recorded).

An injection time past the run's last occurrence resumes from the
final state: the run finishes without an injection, as its replay
would.

A state may define its own pickled form (FlightGear's is flat
scalars, since every check pickles the state), but that form must
carry every field a later unit can read: two states that pickle to
equal bytes are taken to be equal states.
``tests/injection/test_snapshot.py`` checks this for every shipped
target.

A resumed run also stops early once it rejoins the golden run
(:meth:`~repro.injection.golden.Checkpoint.resume`).  The protocol is
what makes that sound: the remaining units see nothing but ``state``
and the harness, and an injection harness whose one flip has fired
returns every probe state unchanged, so all it still carries is its
probe occurrence counts.  Once the flip has fired and the record's
sample is taken, a run whose pickled state and counts equal the
golden run's at the same unit boundary therefore finishes exactly as
the golden run did, and the campaign takes the golden output and
final counts instead of executing the rest.  Everything
that disables resuming disables the stop with it.  A target must
therefore keep in ``state`` everything a later unit reads; a unit
that read other mutable data (a global, an attribute it updates on
the target) would break resuming already.
"""

from __future__ import annotations

import abc
import ast
import inspect
import re
import textwrap

from repro.injection.instrument import Harness, Location, VariableSpec
from repro.mining.cache import ContentCache

__all__ = ["TargetSystem", "TargetError", "normalized_source"]

#: Memory-address tokens in a repr (``<function f at 0x7f...>``):
#: evidence the repr is identity-based and proves nothing about content.
_IDENTITY_REPR = re.compile(r"0x[0-9a-fA-F]{4,}")

#: :func:`normalized_source` results keyed by source text; a registered
#: reuse cache, so ``clear_reuse_caches()`` and
#: ``reuse_caches_disabled()`` govern it.
_NORMALIZED_SOURCES = ContentCache(maxsize=128, name="source")


def normalized_source(unit: object) -> str | None:
    """AST-normalized Python source of a code unit, or ``None``.

    ``unit`` may be a Python module, class, or function (resolved via
    :func:`inspect.getsource`) or a plain source string.  The text is
    parsed and unparsed, so comments, blank lines and formatting drop
    out: two sources normalize equal iff they are the same program.
    This is what makes a comment-only edit a store *hit* while a
    one-character semantic edit is a store *invalidation*.

    ``None`` means the source is unavailable (built-ins, ``exec``'d
    code) or unparsable -- callers must treat the unit as not
    fingerprintable.

    Normalizing is a parse and an unparse, and every store key asks
    for its closure's sources, so results are memoised in
    :data:`_NORMALIZED_SOURCES` under the exact source text -- never
    the module's name, path or mtime, so an edited tree can never hit
    an entry of the old one.
    """
    if isinstance(unit, str):
        text = unit
    else:
        try:
            text = inspect.getsource(unit)
        except (OSError, TypeError):
            return None
    normalized = _NORMALIZED_SOURCES.get(text)
    if normalized is not None:
        return normalized
    try:
        tree = ast.parse(textwrap.dedent(text))
    except (SyntaxError, ValueError):
        return None
    normalized = ast.unparse(tree)
    _NORMALIZED_SOURCES.put(text, normalized)
    return normalized


def _encode_state(value: object) -> object | None:
    """Content-true encoding of one attribute value, or ``None``.

    Scalars and anything else with a content repr encode as that repr;
    containers recurse elementwise (sets sorted, so iteration order
    cannot leak in).  An object whose repr is identity-based but that
    carries a ``__dict__`` (a plain or dataclass-like instance without
    a custom ``__repr__``) encodes as its class plus the recursive
    encoding of its attributes -- equal field values fingerprint
    equal, whatever addresses the instances live at.  Functions,
    methods, modules and classes stay opaque: their identity repr
    really does prove nothing, so the fingerprint bails.
    """
    if isinstance(value, (list, tuple)):
        encoded = [_encode_state(item) for item in value]
        if any(item is None for item in encoded):
            return None
        return [type(value).__name__, encoded]
    if isinstance(value, dict):
        items = []
        for key in sorted(value, key=repr):
            ek = _encode_state(key)
            ev = _encode_state(value[key])
            if ek is None or ev is None:
                return None
            items.append([ek, ev])
        return ["dict", items]
    if isinstance(value, (set, frozenset)):
        encoded = [_encode_state(item) for item in value]
        if any(item is None for item in encoded):
            return None
        return [type(value).__name__, sorted(encoded, key=repr)]
    text = repr(value)
    if not _IDENTITY_REPR.search(text):
        return text
    if (
        isinstance(value, type)
        or inspect.isroutine(value)
        or inspect.ismodule(value)
    ):
        return None
    attrs = getattr(value, "__dict__", None)
    if not isinstance(attrs, dict):
        return None
    fields: dict[str, object] = {}
    for name in sorted(attrs):
        encoded = _encode_state(attrs[name])
        if encoded is None:
            return None
        fields[name] = encoded
    return [
        "object",
        f"{type(value).__module__}.{type(value).__qualname__}",
        fields,
    ]


class TargetError(RuntimeError):
    """Raised for invalid target configuration or test case numbers."""


class TargetSystem(abc.ABC):
    """Abstract instrumented target system."""

    #: Short identifier used in dataset names ("7Z", "FG", "MG").
    name: str = "target"

    @property
    @abc.abstractmethod
    def modules(self) -> tuple[str, ...]:
        """Names of the instrumented modules."""

    @abc.abstractmethod
    def variables_of(
        self, module: str, location: Location | None = None
    ) -> tuple[VariableSpec, ...]:
        """Variable specs exposed at the probes of ``module``.

        Entry and exit probes may expose different variables (a
        module's results only exist at its exit), so callers that
        inject or sample at a specific location pass it; ``None``
        returns the union.
        """

    def start(self, test_case: int) -> object:
        """The initial state of ``test_case``'s run (step protocol).

        Targets that override only :meth:`run` leave this
        unimplemented and are always replayed from the start.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither run() nor the "
            "start/advance/finish step protocol"
        )

    def advance(self, state: object, harness: Harness) -> bool:
        """Execute the next unit of the run against ``harness``.

        Mutates ``state`` and returns ``True``; returns ``False``
        without executing anything once every unit has run.
        """
        raise NotImplementedError

    def finish(self, state: object) -> object:
        """The observable output of a run whose units have all run."""
        raise NotImplementedError

    def run(self, test_case: int, harness: Harness) -> object:
        """Execute ``test_case`` under ``harness`` and return the output.

        The output must be a picklable, equality-comparable value that
        the failure specification can diff against the golden run's.
        A run may raise an exception when an injected fault crashes the
        target; the campaign treats crashes as failures.  The default
        is the step protocol's loop; a target may override it instead.
        """
        state = self.start(test_case)
        while self.advance(state, harness):
            pass
        return self.finish(state)

    def resumable(self) -> bool:
        """Whether :meth:`run` is the step protocol's loop, so a run can
        resume from a state snapshot instead of replaying."""
        cls = type(self)
        return cls.run is TargetSystem.run and cls.start is not TargetSystem.start

    @abc.abstractmethod
    def is_failure(self, golden_output: object, run_output: object) -> bool:
        """The failure specification: did the run violate the spec?"""

    def fingerprint(self) -> str | None:
        """Content fingerprint of this target's configuration.

        Two targets with equal fingerprints run their test cases
        identically (same class, same constructor-derived state), so
        anything deterministically derived from one -- golden runs in
        particular -- can be reused for the other.

        Every instance attribute participates (private ones included:
        they shape behaviour just the same), via :func:`_encode_state`:
        content reprs pass through, containers recurse, and a
        dataclass-like attribute whose repr is identity-based
        (``<Config object at 0x...>``) is hashed through its
        ``__dict__`` instead of bailing.  Attributes that stay opaque
        even then -- functions, lambdas, modules, classes -- make the
        target return ``None``: *not fingerprintable*, and callers
        must skip content-addressed reuse rather than risk a false
        hit.  Targets carrying such state can override this with a
        content-true fingerprint of their own.
        """
        from repro.orchestration.tasks import fingerprint_of

        state = {}
        for attr, value in sorted(vars(self).items()):
            encoded = _encode_state(value)
            if encoded is None:
                return None
            state[attr] = encoded
        return fingerprint_of(
            {
                "class": f"{type(self).__module__}.{type(self).__qualname__}",
                "name": self.name,
                "state": state,
            }
        )

    def module_sources(self, module: str) -> tuple[object, ...] | None:
        """Source closure of one instrumented module, or ``None``.

        The units (Python modules, classes, functions, or plain source
        strings) whose code -- together with the instance state --
        fully determines the records of a campaign injecting into
        ``module``.  This is the compositional-store eligibility hook:
        a target that declares closures gets module-granular
        invalidation (editing one module re-runs only its shards,
        :mod:`repro.injection.store`); the default ``None`` means the
        closure is unknown and the target is not store-eligible.
        Declaring a closure that misses code the module executes
        breaks the store's bit-identity contract, so when in doubt
        return the whole package (coarse but sound -- any edit
        invalidates every module).
        """
        return None

    def shared_state_fingerprint(self) -> str | None:
        """Fingerprint of the instance state shared across modules.

        Store keys combine this with the per-module source closure.
        Defaults to :meth:`fingerprint`; targets whose instance state
        *embeds* per-module sources (so editing one module would churn
        the whole-instance fingerprint and defeat the delta) override
        it to cover only the genuinely shared state.
        """
        return self.fingerprint()

    def module_fingerprint(self, module: str) -> str | None:
        """Content fingerprint of everything (except the failure spec)
        that determines a campaign's records for ``module``.

        Built from the module's declared source closure
        (:meth:`module_sources`, AST-normalized so comment and
        formatting edits do not invalidate) plus
        :meth:`shared_state_fingerprint`.  ``None`` -- not
        store-eligible -- when the target declares no closure, any
        closure unit has no retrievable source, or the shared state is
        not fingerprintable.
        """
        self.check_module(module)
        sources = self.module_sources(module)
        if sources is None:
            return None
        state = self.shared_state_fingerprint()
        if state is None:
            return None
        normalized = [normalized_source(unit) for unit in sources]
        if any(text is None for text in normalized):
            return None
        from repro.orchestration.tasks import fingerprint_of

        return fingerprint_of(
            {"module": module, "state": state, "sources": normalized}
        )

    def failure_fingerprint(self) -> str | None:
        """Fingerprint of the failure specification's source.

        The store key carries it separately from the module closures
        so an edit to :meth:`is_failure` invalidates every module's
        shards (the spec relabels *all* records).  Helpers the spec
        calls must live in the module closures; this only covers the
        method body itself.  ``None`` when the source is unavailable
        (``exec``'d classes), which makes the target store-ineligible.
        """
        source = normalized_source(type(self).is_failure)
        if source is None:
            return None
        from repro.orchestration.tasks import fingerprint_of

        return fingerprint_of({"failure": source})

    def check_module(self, module: str) -> None:
        if module not in self.modules:
            raise TargetError(
                f"{self.name} has no instrumented module {module!r}; "
                f"available: {self.modules}"
            )
