"""Versioned model graphs: structural diffs, distances, and change dispersion.

A model version is a labeled directed graph. Nodes carry stable string ids
(identity-based matching across versions) and a text label; edges are
identified by their (src, dst, label) triple and have no identity beyond it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ArtifactFormatError, UnknownNodeError

NodeId = str
EdgeKey = tuple[str, str, str]

#: Distance value for node pairs in different components.
INFINITE = math.inf


class ModelGraph:
    """One immutable model version: labeled nodes plus labeled directed edges.

    The public constructor validates: it raises ValueError when a node id,
    label or edge field is not a string, a node id is empty or repeats, an
    edge endpoint is missing, or the same (src, dst, label) triple appears
    twice. Only graphs built from valid parts (unions, generator snapshots)
    skip the checks, through `_unchecked`. Edges are kept as one ascending
    tuple of triples, whose set `edges` builds on each call. Adjacency sets
    are built by the first `successors` or `distances_from` call, then kept.
    """

    __slots__ = ("_labels", "_edges", "_succ", "_undirected")

    def __init__(
        self,
        nodes: Iterable[tuple[str, str]] | Mapping[str, str],
        edges: Iterable[EdgeKey] = (),
    ):
        pairs = nodes.items() if isinstance(nodes, Mapping) else nodes
        self._labels, self._edges = _valid_parts(pairs, edges)
        self._succ = self._undirected = None

    @classmethod
    def _unchecked(cls, labels: dict[str, str], edges: tuple[EdgeKey, ...]) -> "ModelGraph":
        """The graph over `labels` and the ascending, repeat-free `edges`, kept
        as given without the constructor's checks: only for parts known valid."""
        graph = cls.__new__(cls)
        graph._labels, graph._edges = labels, edges
        graph._succ = graph._undirected = None
        return graph

    @property
    def node_ids(self) -> set[str]:
        return set(self._labels)

    @property
    def edges(self) -> frozenset[EdgeKey]:
        return frozenset(self._edges)

    def label(self, node_id: str) -> str:
        try:
            return self._labels[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def labels(self) -> dict[str, str]:
        return dict(self._labels)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelGraph):
            return NotImplemented
        return self._labels == other._labels and self._edges == other._edges

    def __repr__(self) -> str:
        return f"ModelGraph(nodes={len(self._labels)}, edges={len(self._edges)})"

    def _adjacency(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        if self._succ is None:
            succ = {node_id: set() for node_id in self._labels}
            undirected = {node_id: set() for node_id in self._labels}
            for src, dst, _ in self._edges:
                succ[src].add(dst)
                undirected[src].add(dst)
                undirected[dst].add(src)
            self._succ, self._undirected = succ, undirected
        return self._succ, self._undirected

    def successors(self, node_id: str) -> set[str]:
        if node_id not in self._labels:
            raise UnknownNodeError(node_id)
        return set(self._adjacency()[0][node_id])

    def distances_from(self, source: str) -> dict[str, int]:
        """Hop counts from `source` to every reachable node, edges undirected."""
        if source not in self._labels:
            raise UnknownNodeError(source)
        undirected = self._adjacency()[1]
        dist = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for nxt in undirected[current]:
                if nxt not in dist:
                    dist[nxt] = dist[current] + 1
                    queue.append(nxt)
        return dist


def _valid_parts(pairs, triples, share=None) -> tuple[dict[str, str], tuple[EdgeKey, ...]]:
    """The label dict and ascending edge tuple of (id, label) `pairs` and
    (src, dst, label) `triples`, checked one record at a time, so a fault is
    named in input order. With `share` (a table's `setdefault`), each checked
    id, label and triple is replaced by the table's equal one."""
    labels: dict[str, str] = {}
    for node_id, label in pairs:
        if not isinstance(node_id, str) or not isinstance(label, str):
            raise ValueError(f"node id {node_id!r} and label {label!r} must be strings")
        if not node_id:
            raise ValueError("node ids must be non-empty")
        if node_id in labels:
            raise ValueError(f"duplicate node id {node_id!r}")
        if share:
            node_id, label = share(node_id, node_id), share(label, label)
        labels[node_id] = label
    edge_set: set[EdgeKey] = set()
    keys: list[EdgeKey] = []
    for src, dst, label in triples:
        key = (src, dst, label)
        if not (isinstance(src, str) and isinstance(dst, str) and isinstance(label, str)):
            raise ValueError(f"edge {key!r} fields must be strings")
        if src not in labels:
            raise ValueError(f"edge source {src!r} not a node")
        if dst not in labels:
            raise ValueError(f"edge target {dst!r} not a node")
        if key in edge_set:
            raise ValueError(f"duplicate edge {key!r}")
        edge_set.add(key)
        keys.append(share(key, key) if share else key)
    return labels, tuple(keys) if all(map(lt, keys, keys[1:])) else tuple(sorted(keys))


@dataclass(frozen=True)
class StructuralDiff:
    """Partition of two versions' elements into changed and preserved sets.

    A node present in only one version, or present in both with different
    labels, is changed; an edge is changed when its triple exists in exactly
    one version. Everything else is preserved. Nodes are held as id sets and
    edges as triple sets.
    """

    changed_node_ids: frozenset[str]
    preserved_node_ids: frozenset[str]
    changed_edges: frozenset[EdgeKey]
    preserved_edges: frozenset[EdgeKey]
    source_version: int
    target_version: int

    def changed_nodes(self) -> frozenset[str]:
        return self.changed_node_ids

    def preserved_nodes(self) -> frozenset[str]:
        return self.preserved_node_ids

    def involved_nodes(self) -> set[str]:
        """Changed nodes plus endpoints of changed edges."""
        nodes = set(self.changed_node_ids)
        for src, dst, _ in self.changed_edges:
            nodes.add(src)
            nodes.add(dst)
        return nodes


def diff(m: ModelGraph, n: ModelGraph, source_version: int = 0, target_version: int = 1) -> StructuralDiff:
    """Structural difference between versions m and n, matched by identifier."""
    m_labels, n_labels = m._labels, n._labels
    preserved = frozenset(v for v in m_labels.keys() & n_labels.keys() if m_labels[v] == n_labels[v])
    m_edges, n_edges = m.edges, n.edges
    return StructuralDiff(
        changed_node_ids=frozenset(m_labels.keys() | n_labels.keys()) - preserved,
        preserved_node_ids=preserved,
        changed_edges=m_edges ^ n_edges,
        preserved_edges=m_edges & n_edges,
        source_version=source_version,
        target_version=target_version,
    )


def union_graph(m: ModelGraph, n: ModelGraph) -> ModelGraph:
    """Union of two versions, for distance queries spanning both.

    Labels are irrelevant to distances; where a node's label differs the
    target version wins. Both inputs are valid graphs, so their union is
    one without the constructor's checks.
    """
    edges = m._edges + tuple(set(n._edges).difference(m._edges))
    return ModelGraph._unchecked(m._labels | n._labels, tuple(sorted(edges)))


def union_label(m: ModelGraph, n: ModelGraph, node_id: str) -> str:
    """`union_graph(m, n).label(node_id)` without building the union."""
    return (n if node_id in n else m).label(node_id)


@dataclass(frozen=True)
class ChangeRadius:
    """Size c and dispersion s of a change set.

    c counts changed elements (nodes and edges); s is the maximum pairwise
    shortest-path distance among involved nodes, INFINITE when the involved
    nodes span more than one component.
    """

    c: int
    s: float

    @property
    def is_multi_location(self) -> bool:
        return self.c > 1 and self.s > 1


def change_radius(g_union: ModelGraph, d: StructuralDiff) -> ChangeRadius:
    """Compute (c, s) for a diff on the union graph of its two versions."""
    involved = sorted(d.involved_nodes())
    for node_id in involved:
        if node_id not in g_union:
            raise UnknownNodeError(node_id)
    c = len(d.changed_node_ids) + len(d.changed_edges)
    if len(involved) <= 1:
        return ChangeRadius(c=c, s=0)
    s: float = 0
    for i, u in enumerate(involved):
        dist = g_union.distances_from(u)
        for v in involved[i + 1:]:
            s = max(s, dist.get(v, INFINITE))
            if s == INFINITE:
                return ChangeRadius(c=c, s=INFINITE)
    return ChangeRadius(c=c, s=s)


@dataclass
class Project:
    """A named project: its model versions in commit order, oldest first."""

    name: str
    versions: list[ModelGraph] = field(default_factory=list)

    @property
    def n_diffs(self) -> int:
        return max(0, len(self.versions) - 1)

    def diff_at(self, index: int) -> StructuralDiff:
        """Diff between versions index and index+1."""
        return diff(self.versions[index], self.versions[index + 1],
                    source_version=index, target_version=index + 1)

    def iter_diffs(self) -> Iterator[tuple[int, StructuralDiff]]:
        for index in range(self.n_diffs):
            yield index, self.diff_at(index)


_NODE_FIELDS = itemgetter("id", "label")
_EDGE_FIELDS = itemgetter("src", "dst", "label")


def load_project(path) -> Project:
    """Read a project file: {"project": id, "versions": [{nodes, edges}, ...]}.

    Each version's records are read in one pass and checked as the
    `ModelGraph` constructor checks them; a malformed record raises
    ArtifactFormatError naming the file and the version index, and no graph
    is built from it. The versions of one file share one object per distinct
    node id, label and edge triple.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ArtifactFormatError(f"{path}: not a JSON project file ({exc})") from exc
    name = raw.get("project") if isinstance(raw, dict) else None
    if not isinstance(name, str) or not name:
        raise ArtifactFormatError(f"{path}: not an object with a project id")
    versions = raw.get("versions", [])
    if not isinstance(versions, list):
        raise ArtifactFormatError(f"{path}: versions must be a list")
    shared: dict = {}
    return Project(
        name=name,
        versions=[_version_graph(v, f"{path} version {i}", shared) for i, v in enumerate(versions)],
    )


def _version_graph(raw, where: str, shared: dict) -> ModelGraph:
    """The graph of one version record; `where` names it in errors. Its ids,
    labels and edges are taken from `shared`, where they are first kept."""
    nodes = raw.get("nodes", []) if isinstance(raw, dict) else None
    edges = raw.get("edges", []) if isinstance(raw, dict) else None
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ArtifactFormatError(f"{where} must be an object of node and edge lists")
    try:
        parts = _valid_parts(map(_NODE_FIELDS, nodes), map(_EDGE_FIELDS, edges), shared.setdefault)
    except KeyError as exc:
        raise ArtifactFormatError(f"{where}: a node or edge record has no {exc} key") from exc
    except TypeError as exc:  # indexing a record that is not an object
        raise ArtifactFormatError(f"{where}: a node or edge record is not an object") from exc
    except ValueError as exc:
        raise ArtifactFormatError(f"{where}: {exc}") from exc
    return ModelGraph._unchecked(*parts)


def save_project(project: Project, path) -> None:
    """Write a project file in the format load_project reads: the bytes of a
    sorted-key, compact `json.dumps`, written straight from each version."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"project":{_quote(project.name)},"versions":[')
        for i, g in enumerate(project.versions):
            edges = ",".join(f'{{"dst":{_quote(d)},"label":{_quote(e)},"src":{_quote(s)}}}' for s, d, e in g._edges)
            nodes = ",".join(f'{{"id":{_quote(v)},"label":{_quote(x)}}}' for v, x in sorted(g._labels.items()))
            fh.write(f'{"," if i else ""}{{"edges":[{edges}],"nodes":[{nodes}]}}')
        fh.write("]}\n")


def load_corpus(paths: Sequence) -> dict[str, Project]:
    """Load several project files into a name-keyed corpus."""
    corpus: dict[str, Project] = {}
    path_of = {}
    for path in paths:
        project = load_project(path)
        name = project.name
        if name in corpus:
            raise ArtifactFormatError(f"{path_of[name]} and {path}: duplicate project id {name!r}")
        corpus[name], path_of[name] = project, path
    return corpus
