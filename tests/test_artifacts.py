"""The one artifact writer: an artifact reaches disk whole or not at all."""

import builtins
import errno
import json
import logging
import os
import shutil
import stat

import pytest

from focusrank import graphs
from focusrank.cli import EXIT_OK, EXIT_RUNTIME, main
from focusrank.errors import ArtifactFormatError, json_lines, json_text, read_json, write_artifact


def test_json_text_is_the_artifact_layout():
    assert json_text({"b": [1], "a": "é"}) == '{\n "a": "\\u00e9",\n "b": [\n  1\n ]\n}\n'


def test_json_lines_writes_the_bytes_of_json_dumps():
    rows = [
        {"b": 'a "quoted" \\ path', "a": "é\u2028\U0001f600"},
        {"z": "\x00\x1f\x7f\n\t", "count": -3, "x": [1.5, None, True]},
        {},
    ]
    assert list(json_lines(rows)) == [json.dumps(row, sort_keys=True) + "\n" for row in rows]


@pytest.mark.parametrize("data, value", [
    (rb'["\ud83d\ude00", "\uD83D\uDE00"]', ["\U0001f600"] * 2),  # a pair is one character
    (rb'["\ud7ff\ue000", "\\ud800"]', ["\ud7ff\ue000", "\\ud800"]),  # not surrogates
    (rb'["x\ud800"]', None),
    (rb'{"\uDC80": 1}', None),
    (rb'[["\ud83dx"]]', None),
])
def test_read_json_refuses_an_unpaired_surrogate(data, value):
    """No UTF-8 artifact or stream can carry one."""
    if value is not None:
        assert read_json(data, "here", ArtifactFormatError) == value
    else:
        with pytest.raises(ArtifactFormatError, match="^here .*surrogates not allowed"):
            read_json(data, "here", ArtifactFormatError)


def test_the_artifact_appears_only_whole(tmp_path):
    path = tmp_path / "made" / "a.json"

    def chunks():
        yield "{"
        # mid-write only the hidden sibling exists, and no `*.json` glob sees it
        assert [p.name for p in path.parent.iterdir()] == [f".a.json.{os.getpid()}.tmp"]
        assert not list(path.parent.glob("*.json"))
        yield "}\n"

    write_artifact(path, chunks())
    assert list(path.parent.iterdir()) == [path]
    assert path.read_text() == "{}\n"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_an_artifact_has_the_mode_open_gives(tmp_path, umask):
    """Not the 0600 of a `tempfile.mkstemp` file."""
    reference, artifact = tmp_path / "reference", tmp_path / "artifact.json"
    artifact.write_text("old\n")
    os.chmod(artifact, 0o600)
    old_umask = os.umask(umask)
    try:
        with open(reference, "w"):
            pass
        write_artifact(artifact, json_text({}))
    finally:
        os.umask(old_umask)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (reference, artifact)}
    assert modes == {0o666 & ~umask}


def write_config(base) -> str:
    """A small run config whose corpus and outputs live under `base`."""
    path = base / "config.json"
    path.write_text(json.dumps({
        "out_dir": str(base / "out"),
        "corpus_dir": str(base / "corpus"),
        "gen": {"projects": 3, "commits_per_project": 6, "seed": 17},
        "balance": {"target_pairs_per_project": 120},
    }))
    return str(path)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A small corpus and its prepared split."""
    base = tmp_path_factory.mktemp("prepared")
    config_path = write_config(base)
    for command in ("gen", "prepare"):
        assert main(["--config", config_path, command]) == EXIT_OK
    return base


class _FullDisk:
    """A text file that writes out the first half of what it is given,
    then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(chunk[: len(chunk) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def _rename_fails(monkeypatch, target):
    def replace(src, dst):
        raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), str(dst))

    monkeypatch.setattr(os, "replace", replace)


def _disk_fills(monkeypatch, target):
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode and target.name in str(file) else fh

    monkeypatch.setattr(builtins, "open", open_)


def _interrupted(monkeypatch, target):
    interrupts = iter([False, True])  # after the project name, before its first version
    real_quote = graphs._quote

    def quote(text):
        if next(interrupts, True):
            raise KeyboardInterrupt
        return real_quote(text)

    monkeypatch.setattr(graphs, "_quote", quote)


@pytest.mark.parametrize(
    "command, relative, fault",
    [
        ("prepare", "out/split.json", _rename_fails),
        ("prepare", "out/split.json", _disk_fills),
        ("gen", "corpus/proj00.json", _interrupted),
    ],
    ids=["rename-fails", "disk-fills-halfway-through-the-split", "interrupt-inside-a-project-file"],
)
def test_a_failed_write_keeps_the_old_artifact(
    prepared, tmp_path, monkeypatch, caplog, command, relative, fault
):
    """The old bytes stay and no temporary file is left. An OSError exits 2
    in one line without a traceback; an interrupt propagates."""
    base = tmp_path / "run"
    shutil.copytree(prepared, base)
    argv = ["--config", write_config(base), command]
    target = base / relative
    target.write_bytes(b"old\n")
    caplog.set_level(logging.INFO, logger="focusrank")
    with monkeypatch.context() as patch:
        fault(patch, target)
        if fault is _interrupted:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == EXIT_RUNTIME
    assert target.read_bytes() == b"old\n"
    assert not list(base.rglob("*.tmp"))
    if fault is not _interrupted:
        (record,) = [r for r in caplog.records if r.name.startswith("focusrank")]
        assert record.levelname == "ERROR" and record.exc_info is None
        assert "\n" not in record.getMessage()
