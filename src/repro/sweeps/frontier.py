"""The disk-backed trial frontier: ``pending -> claimed -> done/failed``.

A :class:`TrialFrontier` tracks every trial of one
:class:`~repro.sweeps.manifest.SweepManifest` through its lifecycle on
disk, so a killed sweep resumes from where it died instead of from zero,
and several workers (processes, machines sharing a filesystem) can drain
one trial pool without duplicating work.  The design follows execo's
``ParamSweeper`` (get_next/done/skip states persisted on disk) with one
hardening twist: **the per-trial artifacts are the ground truth**, and
everything else is reconstructible from them.

Directory layout::

    <sweep_dir>/
        manifest.json        the immutable trial list (canonical JSON)
        frontier.log         append-only JSONL event journal / fast index
        claims/<key>.json    live claims (O_EXCL-created; mtime = lease)
        results/<key>.json   done trials (atomic rename; append-only set)
        failed/<key>.json    failure records
        frontier.log.corrupt-<N>   quarantined journals (see below)

Crash-consistency invariants
----------------------------
* Every state transition is **one atomic filesystem operation**: a claim
  is an ``O_CREAT | O_EXCL`` create (two workers can never both win), a
  completion is a write-to-temp + ``os.replace`` into ``results/`` (a
  truncated artifact can never exist under its final name), a failure is
  an atomic write into ``failed/``.
* The journal is an **index, not the truth**.  ``frontier.log`` exists so
  a resume does not have to parse 10^4 artifacts; it is reconciled
  against the ``results/`` directory listing on every load.  A torn tail
  line (the crash left a partial append) is detected and repaired in
  place; any deeper corruption (truncation mid-file, garbage bytes, an
  event naming an unknown trial) quarantines the journal to
  ``frontier.log.corrupt-<N>`` and rebuilds it from the artifacts.
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
import warnings
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

#: Journal event types.  ``done``/``failed``/``reissue`` rebuild state;
#: ``claim``/``expired`` are observability breadcrumbs only (claims are
#: always re-derived from the ``claims/`` directory, never the journal).
EVENTS = ("claim", "done", "failed", "expired", "reissue")


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
        self._log_path = self.directory / "frontier.log"
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

    # -- journal --------------------------------------------------------

    def _append_event(self, event: str, key: str, **extra: Any) -> None:
        record = {"event": event, "trial": key, "at": time.time(), **extra}
        with open(self._log_path, "a") as handle:
            handle.write(_canonical(record) + "\n")

    def _parse_journal(
        self, text: str
    ) -> Tuple[List[Dict[str, Any]], Optional[int], Optional[str]]:
        """``(events, repair_offset, corrupt_reason)`` for the journal text.

        ``repair_offset`` is set when only the *final* line is damaged (a
        torn append from a crash): the byte offset to truncate back to.
        ``corrupt_reason`` is set for anything deeper -- the caller
        quarantines and rebuilds.
        """
        events: List[Dict[str, Any]] = []
        offset = 0
        lines = text.split("\n")
        for index, line in enumerate(lines):
            if not line:
                offset += 1  # the split newline
                continue
            is_last = index == len(lines) - 1
            try:
                record = json.loads(line)
                if (
                    not isinstance(record, dict)
                    or record.get("event") not in EVENTS
                    or not isinstance(record.get("trial"), str)
                ):
                    raise ValueError("malformed event record")
            except ValueError:
                if is_last:
                    # Torn tail: the crash interrupted the final append.
                    return events, offset, None
                return events, None, (
                    f"undecodable journal line {index + 1}"
                )
            if record["trial"] not in self.manifest:
                return events, None, (
                    f"journal line {index + 1} names unknown trial "
                    f"{record['trial']!r}"
                )
            events.append(record)
            offset += len(line) + 1
        return events, None, None

    def _quarantine_journal(self, reason: str) -> Path:
        n = 0
        while True:
            target = self.directory / f"frontier.log.corrupt-{n}"
            if not target.exists():
                break
            n += 1
        os.replace(self._log_path, target)
        warnings.warn(
            f"sweep journal {self._log_path} is corrupt ({reason}); "
            f"quarantined to {target.name} and rebuilding the index from "
            f"the per-trial artifacts",
            RuntimeWarning,
            stacklevel=3,
        )
        return target

    def _rebuild_journal(self) -> None:
        """Regenerate ``frontier.log`` from the artifact directories."""
        lines = []
        now = time.time()
        for key in self.manifest.keys():
            state = self._recorded.get(key)
            if state in (DONE, FAILED):
                lines.append(
                    _canonical(
                        {"event": state, "trial": key, "at": now,
                         "rebuilt": True}
                    )
                )
        _write_atomic(
            self._log_path, "".join(line + "\n" for line in lines)
        )

    # -- state ----------------------------------------------------------

    def reload(self) -> None:
        """Re-derive trial states from disk (journal + artifact dirs).

        The journal is the fast path; the ``results/``/``failed/``
        directory listings are the truth it is reconciled against:

        * artifact on disk but absent from the journal (crash between
          the atomic artifact rename and the journal append) -- the
          trial is done; the journal is repaired.
        * journal says done but the artifact is gone (manual deletion,
          partial restore) -- the trial is **re-issued**, because a
          "done" we cannot produce bytes for is not done.
        """
        text = ""
        if self._log_path.exists():
            text = self._log_path.read_text()
        events, repair_offset, corrupt = self._parse_journal(text)
        if corrupt is not None:
            self._quarantine_journal(corrupt)
            events = []
        elif repair_offset is not None:
            _write_atomic(self._log_path, text[:repair_offset])
            warnings.warn(
                f"sweep journal {self._log_path} ended in a torn "
                f"partial line (interrupted append); dropped it and "
                f"kept the {len(events)} complete event(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        elif text and not text.endswith("\n"):
            # The final line parsed but its newline is missing (the crash
            # cut exactly between the line and its terminator); restore it
            # so the next append starts a fresh line instead of
            # concatenating onto -- and corrupting -- this one.
            _write_atomic(self._log_path, text + "\n")
        recorded: Dict[str, str] = {}
        for record in events:
            event, key = record["event"], record["trial"]
            if event == "done":
                recorded[key] = DONE
            elif event == "failed":
                # An artifact in results/ outranks a failure record.
                if recorded.get(key) != DONE:
                    recorded[key] = FAILED
            elif event == "reissue":
                recorded.pop(key, None)
        # Reconcile against the artifact directories (the ground truth).
        done_on_disk = {
            path.stem for path in self._results_dir.glob("*.json")
        }
        unknown = sorted(k for k in done_on_disk if k not in self.manifest)
        if unknown:
            raise FrontierCorruption(
                f"results/ contains artifact(s) for trial(s) not in this "
                f"manifest: {unknown[:5]}{'...' if len(unknown) > 5 else ''}"
                f"; the sweep directory was mixed with another manifest"
            )
        journal_done = {k for k, s in recorded.items() if s == DONE}
        dirty = False
        for key in sorted(done_on_disk - journal_done):
            recorded[key] = DONE
            dirty = True
        for key in sorted(journal_done - done_on_disk):
            recorded.pop(key, None)  # lost artifact: re-issue
            dirty = True
        for path in self._failed_dir.glob("*.json"):
            key = path.stem
            if key in self.manifest and key not in recorded:
                recorded[key] = FAILED
                dirty = True
        self._recorded = recorded
        self._cursor = 0
        if corrupt is not None or dirty:
            self._rebuild_journal()

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
                self._append_event(
                    "expired", key, worker=worker,
                    stale_worker=meta.get("worker"),
                )
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            self._append_event("claim", key, worker=worker)
            return True
        return False

    def release(self, key: str) -> None:
        """Drop a claim without recording an outcome (trial re-pends)."""
        try:
            os.unlink(self._claims_dir / f"{key}.json")
        except FileNotFoundError:
            pass

    def done(
        self, key: str, payload: Dict[str, Any], *, worker: str = "worker"
    ) -> bool:
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
        if self._recorded.get(key) != DONE:
            self._recorded[key] = DONE
            self._append_event("done", key, worker=worker)
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
        self._append_event("failed", key, worker=worker, error=str(error))
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
                self._append_event(
                    "expired", key, stale_worker=meta.get("worker")
                )
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
            self._append_event("reissue", key)
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
