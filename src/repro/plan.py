"""One validated :class:`RunPlan` behind every entry point.

The execution configuration of this package is a matrix of orthogonal
knobs -- ``engine`` (generator vs vectorized), ``rng`` (v1 per-node vs v2
batched node streams), ``graph_rng`` (v1 vs v2 graph sampling),
``graph_source`` (networkx vs direct-to-CSR), ``result`` (legacy dicts vs
struct-of-arrays), plus ``n_jobs`` and the per-protocol kwargs.  They
used to be threaded as loose parameters through ``solve_mis``,
``run_trial``, ``sweep``, ``build_table1``, ``run_trials`` and the CLI,
so every new knob re-touched every signature and invalid combinations
surfaced late (or as raw ``KeyError``/``TypeError``).

:class:`RunPlan` collapses the matrix into one frozen, hashable,
validated dataclass:

* **validated once, at construction** -- algorithm and family names are
  checked against their registries (typos get close-match suggestions),
  knob values against their choice tuples, and knob *combinations*
  against :data:`repro.sim.fast_engine.ENGINE_CAPABILITIES` and
  :func:`repro.graphs.arrays.resolve_graph_source`, with the same
  ``unsupported_reason``-style errors those layers raise (batched
  graph_rng + networkx source, vectorized engine + generator-only
  instrumentation, ...).  A plan that constructs is a plan that runs.
* **one place to add a knob** -- entry points take their subject and
  grid arguments, ``plan=``, and ``**knobs``; :func:`ensure_plan` sends
  every knob named after a field to the plan and every other name to
  ``protocol_kwargs``.  A new knob is a new field here and reaches every
  entry point with no signature edited (subclassing works too:
  serialization iterates ``dataclasses.fields``, so an extended plan
  passed as ``plan=`` flows through unchanged).
* **canonically serializable** -- :meth:`to_json` emits a stable,
  sorted-key, compact JSON form (pinned by tests), :meth:`from_json`
  round-trips it, and :meth:`cache_key` hashes it.  The serialized plan
  is the ``config.plan`` block of every committed ``BENCH_*.json``
  artifact (validated by ``benchmarks/check_artifacts.py``) and the
  service-layer cache key (:mod:`repro.service` keys its result cache on
  ``cache_key()`` + seed): every run is deterministic given
  ``(plan, seed)``.

Entry-point convention
----------------------
Entry points taking a **concrete graph** take it first, algorithm second
(``solve_mis(graph, algorithm)``, ``run_trial(graph, algorithm)``,
``run_trials(graph_factory, algorithm)``); entry points that **build
graphs from a family** take ``(algorithm, family)``
(``sweep(algorithm, family)``).  Everything else is keyword-only: the
grid (``seeds``/``sizes``/``trials``/``seed0``), live objects
(``trace``, ``energy_model``), ``plan=``, or a knob.  Loose knobs and
``plan=`` are exclusive, and the knobs left out take the entry point's
default profile: :data:`SINGLE_RUN` for single runs, ``result="legacy"``
for the batch runner, :class:`RunPlan`'s own defaults for sweeps and
tables.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

from ._registry import unknown_name_error
from .graphs.arrays import DEFAULT_GRAPH_RNG, make_family, resolve_graph_source
from .sim.array_result import (
    resolve_dtype_kind,
    resolve_result_kind,
    validate_result_kind,
)
from .sim.batch import resolve_engine
from .sim.rng import DEFAULT_STREAM, validate_stream

#: Version of the serialized plan format.  Bump only on a breaking change
#: to the canonical form; :meth:`RunPlan.from_dict` rejects unknown
#: versions instead of guessing.
PLAN_VERSION = 1

P = TypeVar("P", bound="RunPlan")


@dataclass(frozen=True)
class RunPlan:
    """The full execution configuration of one (or many) MIS runs.

    Frozen and hashable: equal plans hash equally, so a plan (or its
    :meth:`cache_key`) can key caches, sweep manifests, and artifact
    config blocks.  Construction validates every field and every
    supported combination; see the module docstring.

    The fields (the knob table in ``docs/api.md`` lists the same):

    * ``algorithm`` -- one of :func:`repro.api.algorithm_names`.
    * ``family``/``n``/``seed`` -- the *subject* when the plan builds its
      own graphs (:meth:`build_graph`, the CLI, sweeps); entry points
      called with an explicit graph object leave ``family`` ``None``.
      ``seed`` is the master seed of every per-node random stream.
    * ``engine`` -- ``"generators"`` (the reference engine; the only one
      filling ``result.protocols``), ``"vectorized"`` (numpy engines,
      identical results) or ``"auto"`` (vectorized when eligible).
    * ``rng`` -- per-node stream format, ``"pernode"`` (v1) or
      ``"batched"`` (v2); same seed, different execution
      (:mod:`repro.sim.rng`).
    * ``graph_rng``/``graph_source`` -- how family graphs are sampled
      and built (:mod:`repro.graphs.arrays`); family plans only.
    * ``result`` -- ``"legacy"`` (:class:`RunResult`), ``"arrays"``
      (:class:`repro.sim.array_result.ArrayRunResult`) or ``"auto"``
      (arrays exactly when a vectorized engine runs).
    * ``dtype`` -- array-result column dtypes, ``"default"`` or
      ``"narrow"`` (:data:`repro.sim.array_result.DTYPE_KINDS`).
    * ``n_jobs`` -- batch worker processes (``None``/``1``: in process).
    * ``max_rounds``/``congest_bit_limit`` -- round cap and CONGEST bit
      budget (the latter generator-only).
    * ``protocol_kwargs`` -- forwarded to the algorithm's protocol
      constructor (``depth=``, ``coin_bias=``, ``greedy_constant=``,
      ``max_phases=``); names it does not take are rejected here.
      Stored as a sorted tuple of ``(name, value)`` pairs (hashable);
      pass a plain dict, it is normalized.
    """

    algorithm: str = "fast-sleeping"
    family: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = 0
    engine: str = "auto"
    rng: str = DEFAULT_STREAM
    graph_rng: str = DEFAULT_GRAPH_RNG
    graph_source: str = "auto"
    result: str = "auto"
    dtype: str = "default"
    n_jobs: Optional[int] = None
    max_rounds: Optional[int] = None
    congest_bit_limit: Optional[int] = None
    protocol_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.protocol_kwargs, Mapping):
            object.__setattr__(
                self,
                "protocol_kwargs",
                tuple(sorted(self.protocol_kwargs.items())),
            )
        else:
            object.__setattr__(
                self, "protocol_kwargs", tuple(self.protocol_kwargs)
            )
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        from .api import _registry  # lazy: api imports this module

        registry = _registry()
        if self.algorithm not in registry:
            raise unknown_name_error("algorithm", self.algorithm, registry)
        validate_stream(self.rng)
        validate_result_kind(self.result)
        resolve_dtype_kind(self.dtype)
        for name, value in (
            ("n", self.n),
            ("seed", self.seed),
            ("n_jobs", self.n_jobs),
            ("max_rounds", self.max_rounds),
            ("congest_bit_limit", self.congest_bit_limit),
        ):
            if value is not None and not isinstance(value, int):
                raise ValueError(
                    f"{name} must be an int or None, got {value!r}"
                )
        if self.n is not None and self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.n_jobs is not None and self.n_jobs < 1:
            raise ValueError(
                f"n_jobs={self.n_jobs} is not a valid worker count: pass "
                f"n_jobs=None (or 1) for sequential execution, or an "
                f"explicit positive worker count (e.g. "
                f"n_jobs=os.cpu_count() for one worker per CPU) -- "
                f"0/negative values are no longer silently coerced"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be >= 1 or None, got {self.max_rounds}"
            )
        if self.congest_bit_limit is not None and self.congest_bit_limit < 1:
            raise ValueError(
                f"congest_bit_limit must be >= 1 or None, got "
                f"{self.congest_bit_limit}"
            )
        for key, _ in self.protocol_kwargs:
            if not isinstance(key, str):
                raise ValueError(
                    f"protocol kwarg names must be strings, got {key!r}"
                )
        if self.family is not None:
            # Validates the family name (close-match suggestions), the
            # graph_source/graph_rng names, and their combination.
            resolve_graph_source(self.graph_source, self.family, self.graph_rng)
        else:
            if self.graph_source != "auto":
                raise ValueError(
                    f"graph_source={self.graph_source!r} applies only to "
                    f"family-sampled graphs; set family= (and n=) in the "
                    f"plan, or leave graph_source='auto' when the graph "
                    f"is supplied by the caller"
                )
            if self.graph_rng != DEFAULT_GRAPH_RNG:
                raise ValueError(
                    f"graph_rng={self.graph_rng!r} applies only to "
                    f"family-sampled graphs; set family= (and n=) in the "
                    f"plan, or leave graph_rng={DEFAULT_GRAPH_RNG!r} when "
                    f"the graph is supplied by the caller"
                )
        # Validates the engine name and rejects unsupported engine x
        # (algorithm, instrumentation, protocol-kwarg) combinations with
        # fast_engine.unsupported_reason's message.
        resolve_engine(
            self.engine,
            self.algorithm,
            congest_bit_limit=self.congest_bit_limit,
            **self.protocol_dict(),
        )
        if self.protocol_kwargs:
            protocol = registry[self.algorithm]
            accepted = _protocol_parameters(protocol)
            for key, _ in self.protocol_kwargs:
                if key not in accepted:
                    raise unknown_name_error(
                        f"{self.algorithm} protocol kwarg", key, accepted,
                        hint=f"protocol kwargs are passed to "
                        f"{protocol.__name__}()",
                    )

    # -- resolution ----------------------------------------------------

    def protocol_dict(self) -> Dict[str, Any]:
        """The protocol kwargs as a plain dict (engines consume this)."""
        return dict(self.protocol_kwargs)

    @property
    def resolved_engine(self) -> str:
        """The concrete engine that will run: generators or vectorized."""
        return resolve_engine(
            self.engine,
            self.algorithm,
            congest_bit_limit=self.congest_bit_limit,
            **self.protocol_dict(),
        )

    @property
    def resolved_result(self) -> str:
        """The concrete result kind that will be built: legacy or arrays."""
        return resolve_result_kind(self.result, self.resolved_engine)

    @property
    def resolved_graph_source(self) -> Optional[str]:
        """The concrete graph source (``None`` for caller-supplied graphs)."""
        if self.family is None:
            return None
        return resolve_graph_source(
            self.graph_source, self.family, self.graph_rng
        )

    def replace(self: P, **changes: Any) -> P:
        """A new plan with ``changes`` applied -- re-validated on construction.

        The ``dataclasses.replace`` wrapper is how sweeps derive per-size
        or per-algorithm variants from one base plan
        (``plan.replace(algorithm="luby")``).
        """
        return replace(self, **changes)

    def build_graph(self, seed: Optional[int] = None) -> Any:
        """Sample this plan's seeded family graph from its resolved source.

        Requires ``family`` and ``n``; ``seed`` defaults to the plan's
        own.  Returns a :class:`repro.graphs.csr.GraphArrays` when
        the resolved source is ``"arrays"``, a ``networkx.Graph``
        otherwise (same seeded edge set under ``graph_rng="legacy"``).
        """
        if self.family is None or self.n is None:
            raise ValueError(
                "plan carries no graph spec (family=None or n=None); set "
                "both to build graphs from it, or pass a graph object to "
                "the entry point directly"
            )
        return make_family(
            self.family,
            self.n,
            seed=self.seed if seed is None else seed,
            graph_source=self.graph_source,
            graph_rng=self.graph_rng,
        )

    # -- canonical serialization ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready dict form (includes ``plan_version``).

        Iterates ``dataclasses.fields``, so subclasses with extra knobs
        serialize without overriding anything.

        Fields added after version 1 shipped (currently: ``dtype``) are
        **elided at their default value** -- the canonical JSON, hence
        ``cache_key()`` and every committed artifact's ``config.plan``
        block, is byte-identical to what earlier releases produced unless
        the new knob is actually exercised.  That is the version-stable
        evolution rule: a new knob only changes serialized identity for
        plans that use it (``from_dict`` fills absent fields from the
        dataclass defaults), so no ``plan_version`` bump or artifact
        regeneration is needed.
        """
        data: Dict[str, Any] = {"plan_version": PLAN_VERSION}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "dtype" and value == "default":
                continue
            if field.name == "protocol_kwargs":
                value = dict(value)
            data[field.name] = value
        return data

    def to_json(self) -> str:
        """The **canonical** serialized plan: compact, sorted-key JSON.

        This string is the promise: equal plans produce byte-identical
        JSON across processes and sessions (pinned by a golden test), so
        it can key caches and be diffed in committed artifacts.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls: Type[P], data: Mapping[str, Any]) -> P:
        """Rebuild (and re-validate) a plan from :meth:`to_dict` output."""
        payload = dict(data)
        version = payload.pop("plan_version", None)
        if version != PLAN_VERSION:
            raise ValueError(
                f"unsupported plan_version {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"serialized plan carries unknown field(s) {unknown} "
                f"for {cls.__name__} (known: {sorted(known)})"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls: Type[P], text: str) -> P:
        """Rebuild (and re-validate) a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """SHA-256 of the canonical JSON -- the service-layer cache key."""
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()


#: Every loose keyword an entry point receives under one of these names
#: configures the plan; any other name is a protocol kwarg.
PLAN_FIELDS = frozenset(field.name for field in fields(RunPlan))

#: The default profile of single runs -- ``solve_mis``, ``run_trial`` and
#: the CLI commands without engine/result flags (``tree``, ``energy``).
#: Their callers read ``result.protocols``, which only the generator
#: engine's legacy result carries.
SINGLE_RUN: Mapping[str, Any] = MappingProxyType(
    {"engine": "generators", "result": "legacy"}
)


@lru_cache(maxsize=None)
def _protocol_parameters(protocol: Callable[..., Any]) -> frozenset:
    """The keyword names ``protocol``'s constructor takes.  Cached: plans
    are built per trial by sweeps and the service, and one signature
    inspection costs more than a whole plan construction."""
    return frozenset(inspect.signature(protocol).parameters)


def ensure_plan(
    name: str,
    plan: Optional[RunPlan],
    knobs: Mapping[str, Any],
    **defaults: Any,
) -> RunPlan:
    """The one path from an entry point's loose ``**knobs`` to its plan.

    With ``plan=None``, every knob named after a :class:`RunPlan` field
    sets that field, every other name becomes a protocol kwarg, and
    ``defaults`` (the entry point's default profile) fill the fields
    left out.  With a plan, any loose knob at all is an error -- even
    one equal to a default: the plan is the single source of truth, and
    mixing the two silently would resurrect exactly the foot-guns the
    plan exists to kill.
    """
    if plan is None:
        config = {key: value for key, value in knobs.items() if key in PLAN_FIELDS}
        extra = {key: value for key, value in knobs.items() if key not in PLAN_FIELDS}
        if extra:
            given = dict(config.get("protocol_kwargs", ()))
            twice = sorted(set(given) & set(extra))
            if twice:
                raise ValueError(
                    f"{name}() got protocol kwarg(s) {twice} both loose and "
                    f"inside protocol_kwargs=; pass each once"
                )
            config["protocol_kwargs"] = {**given, **extra}
        return RunPlan(**{**defaults, **config})
    if not isinstance(plan, RunPlan):
        raise TypeError(
            f"{name}() plan= expects a RunPlan, got {type(plan).__name__}"
        )
    if knobs:
        raise ValueError(
            f"{name}() got both plan= and explicit knob(s) "
            f"{sorted(knobs)}; a RunPlan carries the full configuration -- "
            f"derive a variant with plan.replace(...) instead of mixing "
            f"loose keyword knobs in"
        )
    return plan


def reject_grid_knobs(
    name: str, knobs: Mapping[str, Any], **owners: str
) -> None:
    """Refuse the loose knobs a grid entry point sets per trial itself.

    ``owners`` maps each such knob (``seed``, ``n``) to the argument that
    sets it; a loose ``seed=`` next to ``seeds=`` would otherwise land in
    a plan field the grid never reads.
    """
    for knob in sorted(owners):
        if knob in knobs:
            raise TypeError(
                f"{name}() takes no {knob}= knob: {owners[knob]}"
            )
