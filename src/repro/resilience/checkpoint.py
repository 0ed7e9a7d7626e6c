"""Atomic between-stage checkpoints for the extraction pipeline.

A checkpoint is one file per (trace, options) pair under the caller's
``checkpoint_dir``, rewritten after every completed stage and replaced
atomically (temp file + fsync + ``os.replace``), so a killed run leaves
either the previous complete checkpoint or the new one — never a torn
file.  Corrupt, unreadable, checksum-failing, version-skewed, or
key-mismatched files are treated as "no checkpoint" and the run starts
from scratch.

File format (``<key>.ckpt``): a pickled header::

    {
        "version": 3,
        "key": <sha256 of trace digest + result-affecting options>,
        "completed": [stage names, in execution order],
        "outcomes": [StageOutcome dicts for the completed stages],
        "sha256": <hex sha256 of the context bytes that follow>,
    }

followed by the context bytes: one pickle of the pipeline context
(partition state, phases, arrays, ...).  Checkpoints are the only
reason the context must be picklable.

``completed``/``outcomes`` list only successfully completed (ok or
fallback) stages — the executor never checkpoints a skipped stage — and
outcome dicts carry their original status plus a ``resumed`` flag.
Version 3 added the context checksum, so a flipped bit in a saved step
value reads as "no checkpoint" instead of being resumed as correct;
older files are discarded like any other version skew.

The context is pickled in a single dump, so object identity within it
(the trace shared by the partition state and the block table) survives
the round trip and a resumed run is bit-identical to an uninterrupted
one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from pathlib import Path
from typing import List, NamedTuple, Optional, Union

CHECKPOINT_VERSION = 3
CHECKPOINT_SUFFIX = ".ckpt"


class Checkpoint(NamedTuple):
    """A checkpoint read back by :func:`load_checkpoint`."""

    completed: List[str]
    outcomes: List[dict]
    #: The saved context, unpickled once while loading.
    ctx: dict
    #: The checksum-verified context bytes ``ctx`` was read from.
    payload: bytes

    def context(self) -> dict:
        """A fresh copy of the saved context."""
        return pickle.loads(self.payload)


def checkpoint_key(trace_digest: str, options_token: str) -> str:
    """Stable key naming one (trace, result-affecting options) pair."""
    return hashlib.sha256(
        (trace_digest + "\n" + options_token).encode()
    ).hexdigest()


def checkpoint_path(directory: Union[str, Path], key: str) -> Path:
    """Path of the checkpoint file for ``key`` under ``directory``."""
    return Path(directory) / f"{key}{CHECKPOINT_SUFFIX}"


def save_checkpoint(directory: Union[str, Path], key: str,
                    completed: List[str], outcomes: List[dict],
                    ctx: dict) -> Path:
    """Atomically write the checkpoint for ``key``; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, key)
    payload = pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": CHECKPOINT_VERSION,
        "key": key,
        "completed": list(completed),
        "outcomes": list(outcomes),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    tmp = directory / f".{key}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed midway: don't litter
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def load_checkpoint(directory: Union[str, Path],
                    key: str) -> Optional[Checkpoint]:
    """Load the checkpoint for ``key``; None when absent or unusable.

    Any defect — missing file, truncation, checksum mismatch, pickle
    corruption, version or key mismatch — reads as "no checkpoint";
    resumability must never turn into a new failure mode.  The checksum
    is verified before the context is unpickled.
    """
    path = checkpoint_path(directory, key)
    try:
        with open(path, "rb") as fh:
            header = pickle.load(fh)
            if (not isinstance(header, dict)
                    or header.get("version") != CHECKPOINT_VERSION
                    or header.get("key") != key):
                return None
            payload = fh.read()
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            return None
        ctx = pickle.loads(payload)
        if not isinstance(ctx, dict):
            return None
        return Checkpoint(list(header["completed"]),
                          list(header["outcomes"]), ctx, payload)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, KeyError, ValueError):
        return None


def discard_checkpoint(directory: Union[str, Path], key: str) -> bool:
    """Remove the checkpoint for ``key``; True if one existed."""
    path = checkpoint_path(directory, key)
    try:
        path.unlink()
        return True
    except OSError:
        return False
