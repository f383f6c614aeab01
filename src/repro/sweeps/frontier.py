"""The disk-backed trial frontier: ``pending -> claimed -> done/failed``.

A :class:`TrialFrontier` tracks every trial of one
:class:`~repro.sweeps.manifest.SweepManifest` through its lifecycle on
disk, so a killed sweep resumes from where it died instead of from zero,
and several workers (processes, machines sharing a filesystem) can drain
one trial pool without duplicating work.  The design follows execo's
``ParamSweeper`` (get_next/done/skip states persisted on disk) with one
hardening twist: **the per-trial files are the only state**.  A trial is
done when its result artifact exists, failed when only its failure
record does, claimed while a live lease names it, and pending otherwise.

Directory layout::

    <sweep_dir>/
        manifest.json        the immutable trial list (canonical JSON)
        claims/<key>.json    live claims (O_EXCL-created; mtime = lease)
        results/<key>.json   done trials (atomic rename; append-only set)
        failed/<key>.json    failure records

Any other file in the directory, such as a ``frontier.log`` event
journal written by an older version, is ignored: never read, rewritten
or moved.

Crash-consistency invariants
----------------------------
* Every state transition is **one atomic filesystem operation**: a claim
  is an ``O_CREAT | O_EXCL`` create (two workers can never both win), a
  completion is a write-to-temp + ``os.replace`` into ``results/`` (a
  truncated artifact can never exist under its final name), a failure is
  an atomic write into ``failed/``, and a re-issue unlinks the failure
  record.  A crash between any two of them leaves a consistent state.
* **Claims expire.**  A claim is a lease: a worker that died mid-trial
  leaves its claim file behind, and once the file is older than the TTL
  any other worker may break it and re-issue the trial.  Completion
  stays idempotent under the inevitable double-execution race: a re-run
  of an already-done trial verifies the existing artifact byte-for-byte
  (modulo wall-clock keys) and becomes a no-op; a *conflicting* result
  for the same ``(plan.cache_key(), seed)`` raises loudly, because a
  deterministic trial producing two different series is a bug worth a
  crash.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .manifest import SweepManifest, TrialSpec
from .merge import TrialConflict, strip_volatile

#: Frontier states.  ``done`` and ``failed`` are recorded on disk;
#: ``claimed`` is a lease (a live claim file); everything else is pending.
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, CLAIMED, DONE, FAILED)

#: How long a claim lives before any worker may break it (seconds).
#: Generous by default: expiring a *live* worker's claim costs only a
#: duplicated (idempotent) trial, but thrashing claims costs throughput.
#: The ``BENCH_sweep_scaling.json`` measurement sizes the margin: the
#: lease machinery itself is 0.1-0.6 ms per claim and per ``done`` on
#: a 2-CPU Linux box, the same at 12, 240 and 960 trials, so at 15 minutes
#: expiry can only ever fire on a worker that is genuinely gone (or on
#: a single trial running >= 6 orders of magnitude longer than the
#: bookkeeping) -- never on the frontier's own latency.
DEFAULT_CLAIM_TTL = 15 * 60.0


class FrontierCorruption(RuntimeError):
    """An unrecoverable on-disk inconsistency (e.g. manifest mismatch)."""


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp-file + atomic rename."""
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TrialFrontier:
    """Disk-backed claim/complete state over one manifest's trials.

    Create a fresh frontier with :meth:`create`, reattach to an existing
    one with :meth:`open` (the crash-resume path), or call
    :meth:`attach` to do whichever applies.  All methods are safe to
    call from several driver processes sharing the directory; a single
    in-process instance is not thread-safe (drive it from one thread).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        manifest: SweepManifest,
        *,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.claim_ttl = float(claim_ttl)
        self._claims_dir = self.directory / "claims"
        self._results_dir = self.directory / "results"
        self._failed_dir = self.directory / "failed"
        #: key -> DONE/FAILED (pending/claimed are derived, not stored).
        self._recorded: Dict[str, str] = {}
        #: Manifest keys in claim order, and the claim cursor: every key
        #: before ``_cursor`` is recorded.  Only :meth:`reload` and
        #: :meth:`reissue_failed` un-record keys, so only they rewind it.
        self._keys = manifest.keys()
        self._cursor = 0
        self.reload()

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        manifest: SweepManifest,
        *,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> "TrialFrontier":
        """Initialize a fresh sweep directory for ``manifest``.

        Refuses a directory that already carries a frontier (resume those
        with :meth:`open` -- an accidental re-init must never clobber
        partial results).
        """
        directory = Path(directory)
        if (directory / "manifest.json").exists():
            raise FrontierCorruption(
                f"{directory} already contains a sweep frontier; resume "
                f"it with TrialFrontier.open(...) (or repro-mis sweep "
                f"--resume), or point --sweep-dir at a fresh directory"
            )
        directory.mkdir(parents=True, exist_ok=True)
        for sub in ("claims", "results", "failed"):
            (directory / sub).mkdir(exist_ok=True)
        _write_atomic(
            directory / "manifest.json",
            json.dumps(manifest.to_dict(), sort_keys=True, indent=1) + "\n",
        )
        return cls(directory, manifest, claim_ttl=claim_ttl)

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        manifest: Optional[SweepManifest] = None,
        *,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> "TrialFrontier":
        """Reattach to an existing sweep directory (the resume path).

        Loads (and re-validates) the directory's own ``manifest.json``;
        when ``manifest`` is also given, their
        :meth:`~repro.sweeps.manifest.SweepManifest.manifest_key` must
        match -- resuming a frontier against a different trial list is
        an error, not a merge.
        """
        directory = Path(directory)
        path = directory / "manifest.json"
        if not path.exists():
            raise FrontierCorruption(
                f"{directory} is not a sweep frontier (no manifest.json); "
                f"initialize one with TrialFrontier.create(...)"
            )
        recorded = SweepManifest.load(path)
        if manifest is not None and (
            manifest.manifest_key() != recorded.manifest_key()
        ):
            raise FrontierCorruption(
                f"manifest mismatch: {directory} was initialized for "
                f"manifest {recorded.manifest_key()[:12]} "
                f"({len(recorded)} trials, name={recorded.name!r}), not "
                f"{manifest.manifest_key()[:12]} ({len(manifest)} trials, "
                f"name={manifest.name!r}); use a fresh --sweep-dir for a "
                f"new manifest"
            )
        for sub in ("claims", "results", "failed"):
            (directory / sub).mkdir(exist_ok=True)
        return cls(directory, recorded, claim_ttl=claim_ttl)

    @classmethod
    def attach(
        cls,
        directory: Union[str, Path],
        manifest: SweepManifest,
        *,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> "TrialFrontier":
        """:meth:`open` if ``directory`` holds a frontier, else :meth:`create`."""
        if (Path(directory) / "manifest.json").exists():
            return cls.open(directory, manifest, claim_ttl=claim_ttl)
        return cls.create(directory, manifest, claim_ttl=claim_ttl)

    # -- state ----------------------------------------------------------

    def reload(self) -> None:
        """Re-derive trial states from the ``results/`` and ``failed/`` listings.

        A trial is done when ``results/<key>.json`` exists -- so a deleted
        artifact re-issues its trial, because a "done" we cannot produce
        bytes for is not done -- and failed when only ``failed/<key>.json``
        does.  Only file names are listed; no artifact is parsed.  Claims
        are re-checked against ``claims/`` on every :meth:`state` call.
        """
        done = {path.stem for path in self._results_dir.glob("*.json")}
        unknown = sorted(k for k in done if k not in self.manifest)
        if unknown:
            raise FrontierCorruption(
                f"results/ contains artifact(s) for trial(s) not in this "
                f"manifest: {unknown[:5]}{'...' if len(unknown) > 5 else ''}"
                f"; the sweep directory was mixed with another manifest"
            )
        recorded = dict.fromkeys(done, DONE)
        for path in self._failed_dir.glob("*.json"):
            key = path.stem
            if key in self.manifest and key not in recorded:
                recorded[key] = FAILED
        self._recorded = recorded
        self._cursor = 0

    def _claim_meta(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._claims_dir / f"{key}.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except ValueError:
            # A torn claim write: treat as an expired (breakable) claim.
            return {"worker": "<corrupt>", "claimed_at": 0.0}

    def state(self, key: str, now: Optional[float] = None) -> str:
        """The trial's current state (claims re-checked against disk)."""
        self.manifest.trial(key)  # KeyError on unknown trials
        recorded = self._recorded.get(key)
        if recorded is not None:
            return recorded
        meta = self._claim_meta(key)
        if meta is None:
            return PENDING
        now = time.time() if now is None else now
        if now - float(meta.get("claimed_at", 0.0)) > self.claim_ttl:
            return PENDING  # stale lease; claimable
        return CLAIMED

    def states(self, now: Optional[float] = None) -> Dict[str, str]:
        """``key -> state`` for every manifest trial."""
        now = time.time() if now is None else now
        return {
            key: self.state(key, now=now) for key in self.manifest.keys()
        }

    def status(self, now: Optional[float] = None) -> Dict[str, int]:
        """State counts; ``done + failed + claimed + pending == len(manifest)``."""
        counts = {state: 0 for state in STATES}
        for state in self.states(now=now).values():
            counts[state] += 1
        counts["total"] = len(self.manifest)
        return counts

    @property
    def done_count(self) -> int:
        """How many manifest trials this frontier has recorded as done."""
        return sum(1 for state in self._recorded.values() if state == DONE)

    @property
    def is_complete(self) -> bool:
        """Every manifest trial has a result artifact."""
        return self.done_count == len(self.manifest)

    def pending_keys(self, now: Optional[float] = None) -> List[str]:
        """Claimable trials, in manifest order (stale claims count)."""
        now = time.time() if now is None else now
        return [
            key
            for key in self.manifest.keys()
            if self.state(key, now=now) == PENDING
        ]

    # -- transitions ----------------------------------------------------

    def claim(
        self, worker: str = "worker", now: Optional[float] = None
    ) -> Optional[TrialSpec]:
        """Atomically claim the next pending trial; ``None`` when none left.

        The claim file is created with ``O_CREAT | O_EXCL``, so two
        workers racing for the same trial cannot both win; the loser
        simply moves on to the next pending trial.  A stale claim (older
        than ``claim_ttl``) is broken -- unlinked and re-created -- which
        re-issues a crashed worker's trial.

        Trials are tried in manifest order, starting at the claim cursor
        (the first unrecorded trial), so a drain costs amortized O(1)
        per claim in the manifest size.
        """
        now = time.time() if now is None else now
        keys = self._keys
        while self._cursor < len(keys) and keys[self._cursor] in self._recorded:
            self._cursor += 1
        for index in range(self._cursor, len(keys)):
            key = keys[index]
            if key in self._recorded:
                continue
            if self._try_claim(key, worker, now):
                return self.manifest.trial(key)
        return None

    def _try_claim(self, key: str, worker: str, now: float) -> bool:
        path = self._claims_dir / f"{key}.json"
        payload = _canonical(
            {"worker": worker, "pid": os.getpid(), "claimed_at": now}
        )
        for attempt in (0, 1):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                meta = self._claim_meta(key)
                if meta is None:
                    continue  # vanished under us; retry once
                if now - float(meta.get("claimed_at", 0.0)) <= self.claim_ttl:
                    return False  # live claim held elsewhere
                if attempt:
                    return False  # lost the break-stale race
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            return True
        return False

    def release(self, key: str) -> None:
        """Drop a claim without recording an outcome (trial re-pends)."""
        try:
            os.unlink(self._claims_dir / f"{key}.json")
        except FileNotFoundError:
            pass

    def done(self, key: str, payload: Dict[str, Any]) -> bool:
        """Record a completed trial's result artifact; idempotent.

        Returns ``True`` when this call landed the artifact, ``False``
        when an identical artifact already existed (the double-claim
        no-op).  A *different* existing artifact raises
        :class:`~repro.sweeps.merge.TrialConflict`: deterministic trials
        must never produce two series for one ``(cache_key, seed)``.
        """
        self.manifest.trial(key)
        path = self._results_dir / f"{key}.json"
        text = _canonical(payload)
        landed = False
        if path.exists():
            existing = json.loads(path.read_text())
            if _canonical(strip_volatile(existing)) != _canonical(
                strip_volatile(payload)
            ):
                raise TrialConflict(
                    f"conflicting result for trial {key!r}: an artifact "
                    f"with different measured series already exists at "
                    f"{path} (deterministic trials must agree; this is "
                    f"an engine or environment bug, not a merge case)"
                )
        else:
            _write_atomic(path, text + "\n")
            landed = True
        self._recorded[key] = DONE
        self.release(key)
        return landed

    def fail(
        self, key: str, error: str, *, worker: str = "worker"
    ) -> None:
        """Record a failed trial (kept failed until :meth:`reissue_failed`)."""
        self.manifest.trial(key)
        if self._recorded.get(key) == DONE:
            self.release(key)
            return
        _write_atomic(
            self._failed_dir / f"{key}.json",
            _canonical(
                {"trial": key, "error": str(error), "worker": worker,
                 "at": time.time()}
            ) + "\n",
        )
        self._recorded[key] = FAILED
        self.release(key)

    def expire_stale(self, now: Optional[float] = None) -> List[str]:
        """Break every stale claim; returns the re-issued trial keys."""
        now = time.time() if now is None else now
        expired: List[str] = []
        for path in sorted(self._claims_dir.glob("*.json")):
            key = path.stem
            if key not in self.manifest:
                continue
            if self._recorded.get(key) is not None:
                self.release(key)
                continue
            meta = self._claim_meta(key)
            if meta is None:
                continue
            if now - float(meta.get("claimed_at", 0.0)) > self.claim_ttl:
                self.release(key)
                expired.append(key)
        return expired

    def reissue_failed(self) -> List[str]:
        """Move every failed trial back to pending (the resume retry)."""
        reissued: List[str] = []
        for key, state in sorted(self._recorded.items()):
            if state != FAILED:
                continue
            try:
                os.unlink(self._failed_dir / f"{key}.json")
            except FileNotFoundError:
                pass
            del self._recorded[key]
            reissued.append(key)
        if reissued:
            self._cursor = 0
        return reissued

    # -- results --------------------------------------------------------

    def result(self, key: str) -> Dict[str, Any]:
        """The stored result artifact of a done trial."""
        path = self._results_dir / f"{key}.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise KeyError(
                f"trial {key!r} has no result artifact (state: "
                f"{self.state(key)})"
            ) from None

    def iter_results(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``(key, artifact)`` for every done trial, in manifest order."""
        for key in self.manifest.keys():
            if self._recorded.get(key) == DONE:
                yield key, self.result(key)
