"""Exception hierarchy shared across the package, its one JSON reader, and
its one artifact writer, `write_artifact`, with the JSON layouts `json_text`
and `json_lines`."""

import json
import os
from pathlib import Path
from typing import Iterable, Iterator


class FocusRankError(Exception):
    """A fault of a run's inputs or environment. A function called against
    its contract raises ValueError instead, as Python's own functions do."""


class InvalidInputError(FocusRankError):
    """A fault in a config, an argument or an input artifact: the command
    line exits 1 for it, and 2 for any other error."""


class UnknownNodeError(InvalidInputError):
    """A node id does not exist in the graph being queried."""


class TooFewCommitsError(InvalidInputError):
    """A project has too few diffs for a temporal train/val/test split."""


class TooFewProjectsError(InvalidInputError):
    """Cross-project folding was requested with fewer projects than folds."""


class RemoteUnavailableError(FocusRankError):
    """The remote embedding endpoint could not be reached, kept failing or
    gave a malformed answer."""


class CheckpointFormatError(InvalidInputError):
    """A checkpoint file is corrupted or has an unsupported version."""


class ArtifactFormatError(InvalidInputError):
    """A corpus, split or pair file does not have the expected structure."""


class ConfigInvalidError(InvalidInputError):
    """A run or generator configuration failed validation."""


class MissingArtifactError(InvalidInputError):
    """A command depends on an artifact that has not been produced yet."""


class TrainingDivergedError(FocusRankError):
    """A training or validation loss became NaN or infinite."""


def read_json(data: bytes, where: str, error: type[FocusRankError]):
    """The value that UTF-8 JSON `data` holds; else `error`, naming `where` and why."""
    try:
        value = json.loads(data.decode("utf-8"))
        if b"\\" in data and (b"\\ud" in data or b"\\uD" in data):  # maybe a surrogate escape:
            json.dumps(value, ensure_ascii=False).encode("utf-8")  # no UTF-8 output takes one unpaired
        return value
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deeply, or unpaired
        raise error(f"{where} ({exc})") from exc


def json_text(value) -> str:
    """`value` in the artifacts' JSON layout: indent 1, sorted keys, final newline."""
    return json.dumps(value, indent=1, sort_keys=True) + "\n"


_ROW_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps with a keyword builds one per call


def json_lines(rows: Iterable) -> Iterator[str]:
    """Each row as `json.dumps(row, sort_keys=True)` writes it, on a line of its own."""
    return (_ROW_ENCODER.encode(row) + "\n" for row in rows)


def write_artifact(path, chunks: str | Iterable[str]) -> None:
    """Write `chunks` to `path` whole, creating its directory: they go to a
    hidden `.<name>.<pid>.tmp` sibling, renamed over `path` once all are
    written. On any exception the sibling is removed, so `path` keeps its
    old bytes, or stays absent, and never holds a prefix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:  # not mkstemp, whose file is 0600
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
