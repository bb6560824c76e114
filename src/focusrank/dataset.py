"""Labeled anchor/candidate pairs, timeline-respecting splits, and
balancing.

A pair (anchor, candidate) from one diff is positive when the candidate is a
preserved node with at least one direct successor among the diff's changed
nodes, evaluated on the target-version graph so that added successors count.
The label depends on the candidate alone, so one `graphs.Diff` (anchors,
candidates, positives) describes every pair of a diff without listing them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    ArtifactFormatError,
    ConfigInvalidError,
    TooFewCommitsError,
    TooFewProjectsError,
    json_text,
    read_json,
    write_artifact,
)
from .graphs import Diff, ModelGraph, Project

PairKey = tuple[str, int]  # (project, diff_index)
T = TypeVar("T")

#: A split's parts.
SPLIT_PARTS = ("train", "validation", "test")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class LabeledPair:
    project: str
    diff_index: int
    anchor: str
    candidate: str
    label: int


def label_pairs(
    d: Diff,
    g_target: ModelGraph,
    anchors: Iterable[str],
    project: str = "",
) -> list[LabeledPair]:
    """Label every (anchor, preserved candidate) pair of one diff.

    Anchors must be changed nodes of the diff, and `g_target` its own target
    version. A candidate is positive iff one of its direct successors in the
    target version is a changed node.
    """
    if g_target is not d.target:
        raise ValueError("pairs are labeled on the diff's own target version")
    anchors = set(anchors)
    if not anchors:
        raise ValueError("no anchor nodes")
    stray = anchors.difference(d.anchors)
    if stray:
        raise ValueError(f"anchors are not changed nodes: {sorted(stray)}")
    return [replace(p, project=project) for p in ViewPairs([d]) if p.anchor in anchors]


def diff_views(corpus: Mapping[str, Project], keys: Iterable[PairKey]) -> Iterator[Diff]:
    """The diffs of (project, diff index) keys, built one at a time."""
    return (corpus[name].diff_at(index) for name, index in keys)


class ViewPairs(SequenceABC):
    """The labeled pairs of several diffs, diff after diff, looked up by
    index without being listed. Diffs without pairs are left out."""

    def __init__(self, views: Iterable[Diff]):
        self.views = [d for d in views if d.anchors and d.candidates]
        self._starts = [0, *accumulate(len(d.anchors) * len(d.candidates) for d in self.views)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> LabeledPair:
        if not 0 <= i < len(self):
            raise IndexError(i)
        k = bisect_right(self._starts, i) - 1
        d = self.views[k]
        a, c = divmod(i - self._starts[k], len(d.candidates))
        candidate = d.candidates[c]
        return LabeledPair(d.project, d.source_version, d.anchors[a], candidate,
                           int(candidate in d.positives))


def pairs_by_project(views: Iterable[Diff]) -> dict[str, ViewPairs]:
    """The pairs of each project's diffs; projects without a pair are left out."""
    return {name: pairs for name, g in group_by_project(views).items() if (pairs := ViewPairs(g))}


@dataclass
class DatasetSplit:
    """Partition of (project, diff_index) keys into train/validation/test."""

    train: list[PairKey]
    validation: list[PairKey]
    test: list[PairKey]
    mode: str  # "temporal" | "cross_project"


def split_temporal(project_diffs: Sequence[PairKey]) -> DatasetSplit:
    """Per project: all diffs but the last two train, then one val, one test.

    Requires at least three diffs per project so each partition is non-empty.
    """
    by_project: dict[str, list[int]] = {}
    for project, index in project_diffs:
        by_project.setdefault(project, []).append(index)

    train: list[PairKey] = []
    validation: list[PairKey] = []
    test: list[PairKey] = []
    for project in sorted(by_project):
        indices = sorted(by_project[project])
        n = len(indices)
        if n < 3:
            raise TooFewCommitsError(f"project {project}: {n} diffs, need >= 3")
        train.extend((project, i) for i in indices[: n - 2])
        validation.append((project, indices[n - 2]))
        test.append((project, indices[n - 1]))
    return DatasetSplit(train=train, validation=validation, test=test, mode="temporal")


def split_cross_project(
    projects: Mapping[str, int] | Sequence[tuple[str, int]],
    folds: int,
    seed: int,
) -> list[DatasetSplit]:
    """Fold projects into disjoint test groups of ceil(n/folds) projects each.

    `projects` maps project id to its diff count. Train diffs come from the
    remaining projects, except each train project's last diff, which forms
    the validation set. Deterministic given the seed.
    """
    counts = dict(projects)
    names = sorted(counts)
    if folds < 2:
        raise TooFewProjectsError(f"folds must be >= 2, got {folds}")
    if len(names) < folds:
        raise TooFewProjectsError(f"{len(names)} projects for {folds} folds")

    rng = random.Random(f"cross:{seed}")
    rng.shuffle(names)
    group_size = math.ceil(len(names) / folds)

    splits = []
    for fold in range(folds):
        held_out = set(names[fold * group_size : (fold + 1) * group_size])
        if not held_out:
            break
        train: list[PairKey] = []
        validation: list[PairKey] = []
        test: list[PairKey] = []
        for project in sorted(counts):
            indices = list(range(counts[project]))
            if project in held_out:
                test.extend((project, i) for i in indices)
            elif indices:
                train.extend((project, i) for i in indices[:-1])
                validation.append((project, indices[-1]))
        splits.append(
            DatasetSplit(train=train, validation=validation, test=test, mode="cross_project")
        )
    return splits


@dataclass(frozen=True)
class BalanceConfig:
    target_pairs_per_project: int = 400
    seed: int = 7

    def __post_init__(self):
        if self.target_pairs_per_project <= 0:
            raise ConfigInvalidError("target_pairs_per_project must be positive")


def balance(
    pairs_by_project: Mapping[str, Sequence[LabeledPair]],
    cfg: BalanceConfig,
) -> list[LabeledPair]:
    """Resample each project's pairs to exactly the configured size.

    Over-sized groups are down-sampled without replacement (original order
    kept); under-sized groups are up-sampled with replacement. Output is
    concatenated by sorted project id, deterministic given the seed. Groups
    are only indexed, so a `ViewPairs` group is never listed in full.
    """
    out: list[LabeledPair] = []
    target = cfg.target_pairs_per_project
    for project in sorted(pairs_by_project):
        group = pairs_by_project[project]
        n = len(group)
        if not n:
            raise ValueError(project)
        rng = random.Random(f"balance:{cfg.seed}:{project}")
        if n == target:
            out.extend(group)
        elif n > target:
            out.extend(group[i] for i in sorted(rng.sample(range(n), target)))
        else:
            out.extend(group[rng.randrange(n)] for _ in range(target))
    return out


def group_by_project(items: Iterable[T]) -> dict[str, list[T]]:
    """Diffs, pairs or anchor results by their `.project`, in first-seen order."""
    groups: dict[str, list[T]] = {}
    for item in items:
        groups.setdefault(item.project, []).append(item)
    return groups


def save_split(split: DatasetSplit, path) -> None:
    parts = {part: [list(key) for key in getattr(split, part)] for part in SPLIT_PARTS}
    write_artifact(path, json_text({"mode": split.mode, **parts}))


def load_split(path) -> DatasetSplit:
    """Raises ArtifactFormatError, naming the file, unless the mode is known
    and every part lists [project, diff index] entries."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        record = read_json(data, "invalid JSON", ArtifactFormatError)
        if (not isinstance(record, dict) or {"mode", *SPLIT_PARTS} - set(record)
                or record["mode"] not in ("temporal", "cross_project")):
            raise ArtifactFormatError(f"a split manifest has a known mode and lists {SPLIT_PARTS}")
        for part in SPLIT_PARTS:
            keys = record[part]
            if not isinstance(keys, list) or not all(
                isinstance(k, list) and len(k) == 2 and isinstance(k[0], str) and _is_int(k[1])
                for k in keys
            ):
                raise ArtifactFormatError(f"split {part} must list [project, diff] pairs")
        parts = [[tuple(k) for k in record[part]] for part in SPLIT_PARTS]
        twice = [key for key, n in Counter(chain(*parts)).items() if n > 1]
        if twice:  # one diff in two parts leaks between them; twice in one part, it counts double
            raise ArtifactFormatError(f"split lists {list(twice[0])} more than once")
    except ArtifactFormatError as exc:
        raise ArtifactFormatError(f"{path}: {exc}") from None
    return DatasetSplit(*parts, mode=record["mode"])
