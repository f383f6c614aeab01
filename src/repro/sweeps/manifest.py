"""Sweep manifests: a declarative, expanded list of trials.

The paper's statistical claims (node-averaged awake complexity, Table 1)
want 10^3..10^4 ``(graph, seed)`` trials per configuration.  At that
scale the unit of scheduling can no longer be "one ``sweep()`` call" --
a killed process must not restart from zero, and several workers must be
able to share one trial pool without re-running each other's work.  The
first ingredient is making the trial pool *declarative*: a
:class:`SweepManifest` is the canonically-serialized, exhaustive list of
trials a sweep consists of, expanded once from a compact spec
(plans x sizes x trial indices) and then immutable.

Each trial is a :class:`TrialSpec`: one validated
:class:`repro.plan.RunPlan` (carrying algorithm, family, ``n``, and every
execution knob) plus one master ``seed`` (seeding both the family graph
and the run, exactly like :func:`repro.analysis.complexity.sweep`, via
the shared :func:`repro.analysis.complexity.trial_seeds` grid).  Its
:attr:`~TrialSpec.key` -- a prefix of ``plan.cache_key()`` plus the seed
-- names the trial everywhere downstream: frontier states, claim files,
and per-trial result artifacts (:mod:`repro.sweeps.frontier`).

The JSON form is canonical (sorted keys, compact separators,
``manifest_version``-stamped) and deduplicates plans: ``plans`` is the
list of serialized :class:`RunPlan` dicts, ``trials`` a list of
``{"plan": <index>, "seed": <int>}`` pairs.  Loading re-validates every
plan against the *current* registries, so a manifest whose recorded
configuration is no longer constructible fails at load instead of
mid-sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from ..plan import RunPlan

#: Version of the serialized manifest format; :meth:`SweepManifest.from_dict`
#: rejects unknown versions instead of guessing.
MANIFEST_VERSION = 1

#: Hex digits of ``plan.cache_key()`` kept in a trial key -- 80 bits,
#: collision-free in practice and short enough for readable filenames
#: (uniqueness over the whole manifest is verified at construction).
KEY_PREFIX_LEN = 20


def trial_key(plan: RunPlan, seed: int) -> str:
    """The trial's stable identity: ``plan.cache_key()`` prefix + seed.

    Keys name frontier states, claim files, and result artifacts, so two
    sweeps of the same manifest -- on different machines, days apart --
    agree on which trial is which.
    """
    return f"{plan.cache_key()[:KEY_PREFIX_LEN]}-{seed}"


@dataclass(frozen=True)
class TrialSpec:
    """One unit of sweep work: a full :class:`RunPlan` plus a master seed.

    ``seed`` seeds both the family graph build and the run, mirroring
    :func:`repro.analysis.complexity.sweep`; the plan's own ``seed``
    field is the spec-level ``seed0`` and does not drive execution.
    """

    plan: RunPlan
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(
                f"trial seed must be an int, got {self.seed!r}"
            )
        if self.plan.family is None or self.plan.n is None:
            raise ValueError(
                "a sweep trial's plan must carry family= and n= (the "
                "trial builds its own graph); got "
                f"family={self.plan.family!r}, n={self.plan.n!r}"
            )

    @cached_property
    def key(self) -> str:
        """Stable trial identity (see :func:`trial_key`); computed once
        per spec, because hashing the plan costs more than a claim."""
        return trial_key(self.plan, self.seed)


class SweepManifest:
    """The immutable, canonically-serialized trial list of one sweep.

    Construct with :meth:`expand` (compact spec -> trials) or
    :meth:`from_dict`/:meth:`load` (deserialization, re-validating every
    plan).  Iterating yields :class:`TrialSpec` in manifest order -- the
    deterministic order workers claim trials in.
    """

    def __init__(
        self, trials: Iterable[TrialSpec], *, name: str = "sweep",
        spec: Mapping[str, Any] = (),
    ) -> None:
        self.name = str(name)
        self.spec: Dict[str, Any] = dict(spec)
        self.trials: Tuple[TrialSpec, ...] = tuple(trials)
        if not self.trials:
            raise ValueError("a sweep manifest must contain >= 1 trial")
        seen: Dict[str, TrialSpec] = {}
        for trial in self.trials:
            other = seen.get(trial.key)
            if other is not None:
                raise ValueError(
                    f"duplicate trial {trial.key!r} in manifest "
                    f"(plan cache_key collision or repeated (plan, seed): "
                    f"seed={trial.seed}, algorithm="
                    f"{trial.plan.algorithm!r}, n={trial.plan.n})"
                )
            seen[trial.key] = trial
        self._by_key = seen

    # -- construction ---------------------------------------------------

    @classmethod
    def expand(
        cls,
        plans: Union[RunPlan, Iterable[RunPlan]],
        *,
        sizes: Sequence[int],
        trials: int,
        seed0: int = 0,
        name: str = "sweep",
    ) -> "SweepManifest":
        """Expand a compact spec into the exhaustive trial list.

        For every base plan, every ``n`` in ``sizes`` gets ``trials``
        trials seeded by the shared
        :func:`repro.analysis.complexity.trial_seeds` grid -- the same
        seeds :func:`repro.analysis.complexity.sweep` would use, so a
        manifest sweep and a plain ``sweep()`` call measure identical
        seeded (graph, run) pairs.
        """
        from ..analysis.complexity import trial_seeds

        if isinstance(plans, RunPlan):
            plans = (plans,)
        base_plans = tuple(plans)
        if not base_plans:
            raise ValueError("expand() needs >= 1 base plan")
        if not sizes:
            raise ValueError("expand() needs >= 1 size")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        expanded: List[TrialSpec] = []
        for base in base_plans:
            for n in sizes:
                sized = base.replace(n=int(n), seed=seed0)
                for seed in trial_seeds(seed0, int(n), trials):
                    expanded.append(TrialSpec(sized, seed))
        spec = {
            "sizes": [int(n) for n in sizes],
            "trials": int(trials),
            "seed0": int(seed0),
        }
        return cls(expanded, name=name, spec=spec)

    # -- lookup ---------------------------------------------------------

    def __iter__(self):
        return iter(self.trials)

    def __len__(self) -> int:
        return len(self.trials)

    def keys(self) -> List[str]:
        """All trial keys, in manifest (= claim) order."""
        return [trial.key for trial in self.trials]

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def trial(self, key: str) -> TrialSpec:
        """The :class:`TrialSpec` named by ``key``."""
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(
                f"trial {key!r} is not in this manifest "
                f"({len(self.trials)} trials, name={self.name!r})"
            ) from None

    # -- canonical serialization ----------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict: deduplicated plans + (plan index, seed) trials."""
        plan_index: Dict[str, int] = {}
        plans: List[Dict[str, Any]] = []
        trial_rows: List[Dict[str, int]] = []
        for trial in self.trials:
            cache_key = trial.plan.cache_key()
            if cache_key not in plan_index:
                plan_index[cache_key] = len(plans)
                plans.append(trial.plan.to_dict())
            trial_rows.append(
                {"plan": plan_index[cache_key], "seed": trial.seed}
            )
        return {
            "manifest_version": MANIFEST_VERSION,
            "name": self.name,
            "spec": dict(self.spec),
            "plans": plans,
            "trials": trial_rows,
        }

    def to_json(self) -> str:
        """Canonical form: compact, sorted-key JSON (stable across runs)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def manifest_key(self) -> str:
        """SHA-256 of the canonical JSON -- the sweep's identity.

        The frontier records it at init and refuses to resume a
        directory against a *different* manifest.
        """
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepManifest":
        """Rebuild (re-validating every plan) from :meth:`to_dict` output."""
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest_version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        plans = [RunPlan.from_dict(entry) for entry in data.get("plans", ())]
        trials: List[TrialSpec] = []
        for row in data.get("trials", ()):
            index = row["plan"]
            if not isinstance(index, int) or not 0 <= index < len(plans):
                raise ValueError(
                    f"trial references unknown plan index {index!r} "
                    f"(manifest carries {len(plans)} plans)"
                )
            trials.append(TrialSpec(plans[index], row["seed"]))
        return cls(
            trials,
            name=data.get("name", "sweep"),
            spec=data.get("spec", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepManifest":
        """Rebuild (and re-validate) from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        """Write the canonical JSON to ``path`` (pretty-printed variant
        kept byte-stable by sorted keys + fixed indent)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        """Read (and re-validate) a manifest written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())
