"""Deterministic synthetic corpora of versioned model graphs.

Each project starts from a backbone chain carrying filler subtrees plus a
few "concept groups": member nodes that share a concept token in their
labels and sit at a controlled pairwise distance. A commit either plants a
pattern (adds or relabels one successor under every member of one group,
i.e. a dispersed multi-location change) or applies unrelated single-node
noise edits. Both the shared-token signal and the recurring-history signal
are therefore present for rankers to pick up, while noise commits keep the
task non-trivial.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ArtifactFormatError, ConfigInvalidError, json_text, read_json, write_artifact
from .graphs import ModelGraph, Project, save_project

GROUPS_PER_PROJECT = 2
DECOYS_PER_GROUP = 4
GROUP_GAP = 3
BACKBONE_TAIL = 3

DEFAULT_VOCABULARY = (
    "Billing", "Auth", "Search", "Export", "Cache", "Audit", "Queue", "Metric",
)

# Roles of pattern members; disjoint from decoy roles so label tokens alone
# separate the two populations.
MEMBER_ROLES = (
    "Handler", "Adapter", "Gateway", "Worker", "Planner", "Router",
    "Mapper", "Binder", "Loader", "Helper", "Writer", "Reader",
)
DECOY_ROLES = ("Legacy", "Backup", "Mock", "Stub", "Draft", "Probe")

FILLER_HEADS = ("Core", "Util", "Base", "Common", "Shared", "Misc", "Temp", "Grid")
FILLER_TAILS = ("Block", "Part", "Unit", "Item", "Piece", "Slot", "Cell", "Chunk")

# Fixed default seed: chosen so that, at the default noise rate, every
# project's final commit carries a planted pattern and the held-out window
# measures pattern prediction rather than background noise.
DEFAULT_SEED = 144


@dataclass(frozen=True)
class GenConfig:
    projects: int = 8
    commits_per_project: int = 10
    base_nodes: int = 56
    vocabulary: tuple[str, ...] = DEFAULT_VOCABULARY
    pattern_size_c: int = 3
    target_dispersion_s: int = 3
    noise_rate: float = 0.3
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.projects < 1:
            raise ConfigInvalidError("projects must be >= 1")
        if self.commits_per_project < 3:
            raise ConfigInvalidError("commits_per_project must be >= 3 to allow a split")
        if self.pattern_size_c < 2:
            raise ConfigInvalidError("pattern_size_c must be >= 2 (multi-location)")
        if self.target_dispersion_s < 2:
            raise ConfigInvalidError("target_dispersion_s must be >= 2 (multi-location)")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigInvalidError("noise_rate must lie in [0, 1]")
        if len(self.vocabulary) < 2:
            raise ConfigInvalidError("vocabulary needs at least 2 concept tokens")
        if any(not isinstance(v, str) or not v.isalnum() for v in self.vocabulary):
            raise ConfigInvalidError("vocabulary tokens must be non-empty alphanumerics")
        if self._filler_budget() < 2:
            raise ConfigInvalidError(
                "base_nodes too small for the requested pattern size and dispersion"
            )

    def _spacing(self) -> int:
        # Members hang one hop off the backbone, so backbone spacing s-2
        # yields leaf-to-leaf distance s.
        return max(0, self.target_dispersion_s - 2)

    def _backbone_len(self) -> int:
        group_span = (self.pattern_size_c - 1) * self._spacing() + 1
        return GROUPS_PER_PROJECT * group_span + (GROUPS_PER_PROJECT - 1) * GROUP_GAP + BACKBONE_TAIL

    def _filler_budget(self) -> int:
        fixed = self._backbone_len() + GROUPS_PER_PROJECT * (self.pattern_size_c + DECOYS_PER_GROUP)
        return self.base_nodes - fixed


def _member_role(i: int) -> str:
    base = MEMBER_ROLES[i % len(MEMBER_ROLES)]
    return base if i < len(MEMBER_ROLES) else f"{base}{i}"


@dataclass
class _ProjectState:
    """Mutable build state for one project's version history."""

    labels: dict[str, str] = field(default_factory=dict)
    edges: set[tuple[str, str, str]] = field(default_factory=set)
    counter: int = 0
    revisions: dict[str, int] = field(default_factory=dict)

    def add_node(self, label: str) -> str:
        node_id = f"n{self.counter}"
        self.counter += 1
        self.labels[node_id] = label
        return node_id

    def add_edge(self, src: str, dst: str, label: str) -> None:
        self.edges.add((src, dst, label))

    def relabel(self, node_id: str, base: str) -> None:
        rev = self.revisions.get(node_id, 0) + 1
        self.revisions[node_id] = rev
        self.labels[node_id] = f"{base}V{rev}"

    def snapshot(self) -> ModelGraph:
        """The current version. Edges join nodes this state added and no
        node is removed, so the graph skips the constructor's checks."""
        return ModelGraph._unchecked(dict(self.labels), tuple(sorted(self.edges)))


def _build_base(cfg: GenConfig, project_index: int, rng: random.Random):
    state = _ProjectState()
    spacing = cfg._spacing()
    backbone = []
    for i in range(cfg._backbone_len()):
        label = f"{FILLER_HEADS[i % len(FILLER_HEADS)]}{FILLER_TAILS[(i // len(FILLER_HEADS)) % len(FILLER_TAILS)]}"
        backbone.append(state.add_node(label))
    for a, b in zip(backbone, backbone[1:]):
        state.add_edge(a, b, "flows")

    vocab = cfg.vocabulary
    groups = []
    group_span = (cfg.pattern_size_c - 1) * spacing + 1
    for g in range(GROUPS_PER_PROJECT):
        concept = vocab[(project_index * GROUPS_PER_PROJECT + g) % len(vocab)]
        start = g * (group_span + GROUP_GAP)
        # members and decoys take alternating ids so id-order tie-breaks do
        # not systematically favor either population
        members = []
        decoys = []
        for i in range(max(cfg.pattern_size_c, DECOYS_PER_GROUP)):
            if i < cfg.pattern_size_c:
                member = state.add_node(f"{concept}{_member_role(i)}")
                state.add_edge(backbone[start + i * spacing], member, "owns")
                members.append(member)
            if i < DECOYS_PER_GROUP:
                decoy = state.add_node(f"{concept}{DECOY_ROLES[i % len(DECOY_ROLES)]}")
                state.add_edge(backbone[start + (i * spacing) % group_span], decoy, "owns")
                decoys.append(decoy)
        groups.append({
            "concept": concept,
            "members": members,
            "decoys": decoys,
            "children": {},  # member id -> child id, filled by the first plant
        })

    fillers = []
    for _ in range(cfg._filler_budget()):
        label = f"{rng.choice(FILLER_HEADS)}{rng.choice(FILLER_TAILS)}"
        filler = state.add_node(label)
        state.add_edge(rng.choice(backbone), filler, "holds")
        fillers.append(filler)
    return state, backbone, groups, fillers


def _plant(state: _ProjectState, group: dict) -> None:
    concept = group["concept"]
    for i, member in enumerate(group["members"]):
        child = group["children"].get(member)
        if child is None:
            child = state.add_node(f"{concept}Task{i}")
            state.add_edge(member, child, "spawns")
            group["children"][member] = child
        else:
            state.relabel(child, f"{concept}Task{i}")


def _noise(state: _ProjectState, backbone: list, fillers: list, rng: random.Random) -> None:
    n_ops = rng.randint(1, 3)
    relabeled: set[str] = set()
    for _ in range(n_ops):
        if fillers and rng.random() < 0.7:
            target = rng.choice(sorted(set(fillers) - relabeled) or sorted(fillers))
            relabeled.add(target)
            base = state.labels[target].split("V")[0]
            state.relabel(target, base)
        else:
            label = f"{rng.choice(FILLER_HEADS)}{rng.choice(FILLER_TAILS)}"
            filler = state.add_node(label)
            state.add_edge(rng.choice(backbone), filler, "holds")
            fillers.append(filler)


def build_corpus(cfg: GenConfig) -> tuple[dict[str, Project], dict]:
    """Generate all projects in memory plus the ground-truth manifest."""
    corpus: dict[str, Project] = {}
    manifest_projects = []
    for p in range(cfg.projects):
        rng = random.Random(f"gen:{cfg.seed ^ p}")
        state, backbone, groups, fillers = _build_base(cfg, p, rng)
        versions = [state.snapshot()]
        planted_commits = []
        group_by_commit = {}
        for commit in range(cfg.commits_per_project):
            if rng.random() >= cfg.noise_rate:
                g = rng.randrange(GROUPS_PER_PROJECT)
                _plant(state, groups[g])
                planted_commits.append(commit)
                group_by_commit[str(commit)] = g
            else:
                _noise(state, backbone, fillers, rng)
            versions.append(state.snapshot())
        name = f"proj{p:02d}"
        corpus[name] = Project(name=name, versions=versions)
        manifest_projects.append({
            "name": name,
            "file": f"{name}.json",
            "groups": [
                {
                    "concept": g["concept"],
                    "members": list(g["members"]),
                    "decoys": list(g["decoys"]),
                    "children": sorted(g["children"].values()),
                }
                for g in groups
            ],
            "planted_commits": planted_commits,
            "planted_group_by_commit": group_by_commit,
            "last_commit_planted": (cfg.commits_per_project - 1) in planted_commits,
        })
    manifest = {"config": asdict(cfg), "projects": manifest_projects}
    return corpus, manifest


def write_corpus(corpus: Mapping[str, Project], manifest: dict, out_dir) -> list[Path]:
    """Write one JSON file per project plus manifest.json; returns the
    project file paths. Project files that the replaced manifest.json lists
    but this corpus lacks are deleted, so no stale project outlives its run."""
    out = Path(out_dir)
    stale = _listed_files(out / "manifest.json")
    paths = []
    for name in sorted(corpus):
        path = out / f"{name}.json"
        save_project(corpus[name], path)
        paths.append(path)
    for file_name in sorted(stale - {path.name for path in paths}):
        (out / file_name).unlink(missing_ok=True)
    write_artifact(out / "manifest.json", json_text(manifest))
    return paths


def _listed_files(manifest_path: Path) -> set[str]:
    """Project file names a manifest.json lists: plain `*.json` names in its
    directory; empty when the manifest is missing or unreadable."""
    try:
        manifest = read_json(manifest_path.read_bytes(), str(manifest_path), ArtifactFormatError)
        names = {entry["file"] for entry in manifest["projects"]}
    except (OSError, ArtifactFormatError, KeyError, TypeError):
        return set()
    return {
        name for name in names
        if isinstance(name, str) and name.endswith(".json")
        and Path(name).name == name != "manifest.json"
    }


def describe(corpus: Mapping[str, Project]) -> dict:
    """Corpus statistics: sizes, change volume, and pair prevalence."""
    n_versions = 0
    n_nodes = 0
    n_diffs = 0
    n_changed = 0
    total_pairs = 0
    positive_pairs = 0
    for name in sorted(corpus):
        project = corpus[name]
        for g in project.versions:
            n_versions += 1
            n_nodes += len(g)
        for d in map(project.diff_at, range(project.n_diffs)):
            n_diffs += 1
            n_changed += len(d.anchors) + len(d.changed_edges)
            # every (changed, preserved) pair; its label is the candidate's
            total_pairs += len(d.anchors) * len(d.candidates)
            positive_pairs += len(d.anchors) * len(d.positives)
    return {
        "projects": len(corpus),
        "versions": n_versions,
        "mean_nodes_per_version": n_nodes / n_versions if n_versions else 0.0,
        "mean_changes_per_commit": n_changed / n_diffs if n_diffs else 0.0,
        "pairs": total_pairs,
        "positive_pairs": positive_pairs,
        "prevalence": positive_pairs / total_pairs if total_pairs else 0.0,
    }
