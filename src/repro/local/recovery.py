"""Round-level checkpoints and shard recovery bookkeeping (D15).

The pooled sharded channel (``local/sharded.py``) survives worker deaths by
*surgical* recovery: after every committed round the parent retains a
pickled snapshot of each shard, and when a worker dies or hangs only
that worker is respawned, restored from the last checkpoint, and asked
to redo the failed round.  Because every per-node draw is a pure
function of ``(identity, round)`` (D9), the replayed round is
bit-identical to the one the dead worker never finished — recovery is
correct by construction, not by careful replay.

This module owns the pieces that are independent of any channel:

- :class:`RoundCheckpoint` — committed shard blobs for one round.
- :class:`RecoveryManager` — per-run checkpoint retention, the retry
  budget / exponential-backoff policy, and the recovery log that the
  diagnostics channel (``runner.last_recovery``) samples.
- :class:`CheckpointJournal` — optional spill-to-disk journal
  (``REPRO_CHECKPOINT_DIR``) with atomic temp-file + ``os.replace``
  writes, a magic header and a CRC so a torn or corrupted file is
  rejected instead of resumed from.
- :func:`resume_from_journal` — drive a journalled run to completion
  inline from its last committed round (an operational tool; the live
  channels recover in-process without it).

Environment switches:

``REPRO_CHECKPOINT``         "0" disables per-round checkpointing (the
                             channel then falls back to the legacy
                             restart-from-scratch ladder).  Default on.
``REPRO_CHECKPOINT_DIR``     directory to spill checkpoints to; unset
                             means in-memory only.
"""

import binascii
import os
import pickle
import tempfile

from ..errors import CheckpointCorruptError
from .execution import env_setting

__all__ = [
    "CHECKPOINTS_ENABLED",
    "CHECKPOINT_DIR",
    "MAX_RETRIES",
    "CheckpointJournal",
    "RecoveryManager",
    "RoundCheckpoint",
    "snapshot_blob",
    "resume_from_journal",
]


#: Whether the sharded channel takes per-round checkpoints at all.
CHECKPOINTS_ENABLED = env_setting(os.environ, "REPRO_CHECKPOINT", True, bool)

#: Optional spill directory; ``None`` keeps checkpoints in-memory only.
CHECKPOINT_DIR = env_setting(os.environ, "REPRO_CHECKPOINT_DIR", None)

#: Surgical-respawn budget per run (attempts before escalating).
MAX_RETRIES = 3

#: Sentinel round number of the pre-round-0 checkpoint (the freshly
#: built shards, before any stepping).
INITIAL_ROUND = -1


def snapshot_blob(shard):
    """Pickle one shard's full state, or ``None`` if it won't pickle.

    Both shard flavours are plain slotted objects over picklable state
    (numpy arrays / dicts / the picklable rng sources of D13), so in
    practice this only returns ``None`` for exotic user kernels — and
    those runs simply keep the legacy restart ladder.
    """
    try:
        return pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


class RoundCheckpoint:
    """Committed state of every shard after one completed round.

    ``round_no`` is the last *committed* round — ``INITIAL_ROUND`` (-1)
    means the shards are freshly built and round 0 has not run.
    ``blobs`` maps shard index to the pickled shard; ``reports`` maps
    shard index to the committed round report (used to regenerate the
    inbound payloads a replayed round needs).  ``ledger`` optionally
    carries the driver's committed aggregation state so a journalled
    run can resume without replaying earlier rounds.
    """

    __slots__ = ("round_no", "blobs", "reports", "ledger")

    def __init__(self, round_no, blobs, reports=None, ledger=None):
        self.round_no = round_no
        self.blobs = dict(blobs)
        self.reports = dict(reports) if reports else {}
        self.ledger = ledger

    @property
    def complete(self):
        """True when every shard produced a picklable snapshot."""
        return all(blob is not None for blob in self.blobs.values())

    def restore(self, index):
        """Unpickle shard ``index`` from its committed snapshot."""
        blob = self.blobs.get(index)
        if blob is None:
            raise CheckpointCorruptError(
                f"no checkpoint blob for shard {index} "
                f"at round {self.round_no}"
            )
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise CheckpointCorruptError(
                f"checkpoint blob for shard {index} at round "
                f"{self.round_no} does not unpickle: {exc}"
            ) from exc

    def restore_all(self):
        """Unpickle every shard, ordered by shard index."""
        return [self.restore(i) for i in sorted(self.blobs)]


class RecoveryManager:
    """Per-run checkpoint retention + retry-budget bookkeeping.

    One instance lives inside each sharded channel for the duration of
    a run.  The channel calls :meth:`commit` after every round whose
    reports it delivered to the driver, :meth:`note_failure` each time
    it recovers (or escalates), and reads :meth:`backoff_for` /
    :meth:`budget_left` to pace and bound surgical respawns.
    """

    __slots__ = (
        "k", "enabled", "max_retries", "latest",
        "attempts", "events", "journal",
    )

    def __init__(self, k, *, enabled=None, max_retries=None, journal=None):
        self.k = k
        self.enabled = CHECKPOINTS_ENABLED if enabled is None else enabled
        self.max_retries = MAX_RETRIES if max_retries is None else max_retries
        self.latest = None
        self.attempts = 0
        self.events = []
        self.journal = journal
        if self.journal is None and self.enabled and CHECKPOINT_DIR:
            self.journal = CheckpointJournal(CHECKPOINT_DIR)

    # -- checkpointing -------------------------------------------------

    def commit(self, round_no, blobs, reports=None):
        """Retain the committed state of round ``round_no``.

        ``blobs`` maps shard index -> pickled shard (or ``None`` when a
        shard's state would not pickle; the checkpoint is then marked
        incomplete and surgical recovery declines to use it).
        """
        if not self.enabled:
            return
        self.latest = RoundCheckpoint(round_no, blobs, reports)

    def note_ledger(self, ledger):
        """Attach the driver's committed aggregation state and spill.

        Called once per round *after* the driver absorbed the reports,
        so the journalled checkpoint carries everything a resume needs.
        """
        if self.latest is None:
            return
        self.latest.ledger = ledger
        if self.journal is not None and self.latest.complete:
            self.journal.write(self.latest)

    @property
    def recoverable(self):
        """True when surgical recovery has a usable checkpoint."""
        return (
            self.enabled
            and self.latest is not None
            and self.latest.complete
        )

    # -- retry policy --------------------------------------------------

    def budget_left(self):
        return self.attempts < self.max_retries

    def backoff_for(self, base):
        """Exponential backoff for the *next* attempt (attempt n pays
        ``base * 2**(n-1)`` seconds)."""
        if base <= 0:
            return 0.0
        return base * (2 ** self.attempts)

    def note_failure(self, action, shard, round_no, cause):
        """Record one recovery action for diagnostics.

        ``action`` is one of ``"respawn"``, ``"rebuild"``, ``"inline"``;
        respawn attempts count against the retry budget.
        """
        if action == "respawn":
            self.attempts += 1
        self.events.append(
            {
                "action": action,
                "shard": shard,
                "round": round_no,
                "cause": type(cause).__name__,
            }
        )

    def summary(self):
        """Compact recovery trail, e.g. ``"respawn@r3(s1) inline@r3"``.

        ``None`` when the run never recovered from anything — the
        common case, and the one the diagnostics channel elides.
        """
        if not self.events:
            return None
        parts = []
        for ev in self.events:
            shard = "" if ev["shard"] is None else f"(s{ev['shard']})"
            parts.append(f"{ev['action']}@r{ev['round']}{shard}")
        return " ".join(parts)


# -- spill-to-disk journal ---------------------------------------------

_MAGIC = b"RPCK0001"


class CheckpointJournal:
    """Atomic on-disk checkpoint spill for long alternations.

    One file per journal (``checkpoint.rpck`` inside ``directory``,
    overridable via ``name``), always holding the *latest* committed
    round.  Writes go to a temp file in the same directory and land via
    ``os.replace``, so a reader never observes a torn file; the payload
    carries a magic header and a CRC-32 so a corrupted file raises
    :class:`CheckpointCorruptError` instead of resuming garbage.
    """

    __slots__ = ("path",)

    def __init__(self, directory, name="checkpoint.rpck"):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, name)

    def write(self, checkpoint):
        payload = pickle.dumps(
            {
                "round_no": checkpoint.round_no,
                "blobs": checkpoint.blobs,
                "reports": checkpoint.reports,
                "ledger": checkpoint.ledger,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        crc = binascii.crc32(payload) & 0xFFFFFFFF
        record = _MAGIC + crc.to_bytes(4, "big") + payload
        directory = os.path.dirname(self.path) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(record)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self):
        """Read back the latest checkpoint; raise on any corruption."""
        try:
            with open(self.path, "rb") as handle:
                record = handle.read()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"cannot read checkpoint journal {self.path}: {exc}"
            ) from exc
        if len(record) < len(_MAGIC) + 4 or not record.startswith(_MAGIC):
            raise CheckpointCorruptError(
                f"checkpoint journal {self.path} has a bad header"
            )
        stored = int.from_bytes(
            record[len(_MAGIC):len(_MAGIC) + 4], "big"
        )
        payload = record[len(_MAGIC) + 4:]
        if binascii.crc32(payload) & 0xFFFFFFFF != stored:
            raise CheckpointCorruptError(
                f"checkpoint journal {self.path} failed its CRC check"
            )
        try:
            data = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointCorruptError(
                f"checkpoint journal {self.path} does not unpickle: {exc}"
            ) from exc
        return RoundCheckpoint(
            data["round_no"], data["blobs"], data["reports"],
            data.get("ledger"),
        )


def resume_from_journal(journal, *, cap=None):
    """Drive a journalled batch run to completion inline.

    Loads the journal's latest checkpoint, restores every shard, and
    steps them in-process from the first uncommitted round — the
    operational "pick up a half-finished long alternation" path.  Only
    batch-shard runs journal a ledger today, so this resumes those;
    returns a dict with the committed-ledger keys (``outputs``,
    ``finish_round``, ``rounds``, ``messages``).
    """
    from .sharded import InlineChannel, ShardedKernelLoop

    checkpoint = journal.load()
    if checkpoint.ledger is None:
        raise CheckpointCorruptError(
            "journalled checkpoint carries no driver ledger; "
            "cannot resume without one"
        )
    shards = checkpoint.restore_all()
    ledger = checkpoint.ledger
    labels = ledger["labels"]
    rounds = ledger["rounds"]
    outputs = dict(ledger["outputs"])
    finish_round = dict(ledger["finish_round"])
    messages = ledger["messages"]

    total = sum(sh.own_hi - sh.own_lo for sh in shards)
    kernel = ShardedKernelLoop(InlineChannel(shards), len(shards), total)
    # Re-prime the loop at the committed round: the restored shards
    # already hold round-``rounds`` state, so only the done bookkeeping
    # and the inter-shard reports (a pure function of shard state for
    # batch shards) need rebuilding before stepping can continue.
    kernel.finished = len(outputs)
    kernel.done = kernel.finished >= total
    kernel._reports = [
        ([], [], 0, None, sh._sync_payload()) for sh in shards
    ]
    try:
        while not kernel.done:
            if cap is not None and rounds >= cap:
                break
            finished, results, sent = kernel.step()
            rounds += 1
            messages += sent
            for i, value in zip(finished, results):
                label = labels[i]
                if label not in outputs:
                    outputs[label] = value
                    finish_round[label] = rounds
    finally:
        kernel.close()
    return {
        "outputs": outputs,
        "finish_round": finish_round,
        "rounds": rounds,
        "messages": messages,
    }
