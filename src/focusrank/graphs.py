"""Versioned model graphs: diffs, distances, and change dispersion.

A model version is a labeled directed graph. Nodes carry stable string ids
(identity-based matching across versions) and a text label; edges are
identified by their (src, dst, label) triple and have no identity beyond it.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

from .errors import ArtifactFormatError, UnknownNodeError, read_json, write_artifact

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
    tuple of triples, whose set `edges` builds on each call.
    `distances_from` builds the undirected adjacency sets on each call.
    """

    __slots__ = ("_labels", "_edges")

    def __init__(
        self,
        nodes: Iterable[tuple[str, str]] | Mapping[str, str],
        edges: Iterable[EdgeKey] = (),
    ):
        pairs = nodes.items() if isinstance(nodes, Mapping) else nodes
        self._labels, self._edges = _valid_parts(pairs, edges)

    @classmethod
    def _unchecked(cls, labels: dict[str, str], edges: tuple[EdgeKey, ...]) -> "ModelGraph":
        """The graph over `labels` and the ascending, repeat-free `edges`, kept
        as given without the constructor's checks: only for parts known valid."""
        graph = cls.__new__(cls)
        graph._labels, graph._edges = labels, edges
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

    def distances_from(self, source: str) -> dict[str, int]:
        """Hop counts from `source` to every reachable node, edges undirected."""
        if source not in self._labels:
            raise UnknownNodeError(source)
        undirected = {node_id: set() for node_id in self._labels}
        for src, dst, _ in self._edges:
            undirected[src].add(dst)
            undirected[dst].add(src)
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
    return labels, tuple(sorted(keys))


@dataclass(frozen=True)
class Diff:
    """One diff of one project: its two versions (the corpus's own graphs,
    not copies) and the values derived from them, each computed on first read.

    Nodes are matched by id. A node in only one version, or in both with
    different labels, is changed (an anchor); the rest are preserved (the
    candidates). An edge is changed when its triple is in one version only.
    The positives are the candidates with a direct successor among the
    anchors in the target version. The labeled pairs are anchors x
    candidates: pair i is (anchors[i // |candidates|], candidates[i %
    |candidates|]), the order `label_pairs` lists them in.
    """

    source: ModelGraph
    target: ModelGraph
    source_version: int = 0  # the target is version source_version + 1
    project: str = ""

    @cached_property
    def candidates(self) -> tuple[str, ...]:
        m, n = self.source._labels, self.target._labels
        return tuple(sorted(v for v in m.keys() & n.keys() if m[v] == n[v]))

    @cached_property
    def anchors(self) -> tuple[str, ...]:
        ids = self.source._labels.keys() | self.target._labels.keys()
        return tuple(sorted(ids.difference(self.candidates)))

    @cached_property
    def changed_edges(self) -> frozenset[EdgeKey]:
        return frozenset(self.source._edges).symmetric_difference(self.target._edges)

    @cached_property
    def positives(self) -> frozenset[str]:
        """Sources of the target's edges from a preserved node into a changed one."""
        m, n = self.source._labels, self.target._labels
        return frozenset(src for src, dst, _ in self.target._edges
                         if m.get(dst) != n[dst] and m.get(src) == n[src])

    @cached_property
    def union(self) -> ModelGraph:
        """Both versions' union, for distances."""
        return union_graph(self.source, self.target)

    def label(self, node_id: str) -> str:
        """The union's label of a node, read without building the union."""
        return (self.target if node_id in self.target else self.source).label(node_id)

    def changed(self, node_id: str) -> bool:  # O(1): builds neither anchors nor candidates
        return self.source._labels.get(node_id) != self.target._labels.get(node_id)

    def changed_nodes(self) -> frozenset[str]:
        return frozenset(self.anchors)


def diff(m: ModelGraph, n: ModelGraph, source_version=0, project="") -> Diff:
    """The diff from version m to version n, nodes matched by identifier."""
    return Diff(m, n, source_version, project)


def union_graph(m: ModelGraph, n: ModelGraph) -> ModelGraph:
    """Union of two versions, for distance queries spanning both.

    Labels are irrelevant to distances; where a node's label differs the
    target version wins. Both inputs are valid graphs, so their union is
    one without the constructor's checks.
    """
    edges = m._edges + tuple(set(n._edges).difference(m._edges))
    return ModelGraph._unchecked(m._labels | n._labels, tuple(sorted(edges)))


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


def change_radius(g_union: ModelGraph, d: Diff) -> ChangeRadius:
    """Compute (c, s) for a diff on the union graph of its two versions; the
    involved nodes are the changed nodes and the changed edges' endpoints."""
    involved = sorted(set(d.anchors).union(*(edge[:2] for edge in d.changed_edges)))
    for node_id in involved:
        if node_id not in g_union:
            raise UnknownNodeError(node_id)
    c = len(d.anchors) + len(d.changed_edges)
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

    def diff_at(self, index: int) -> Diff:
        """Diff between versions index and index+1."""
        return diff(self.versions[index], self.versions[index + 1], index, self.name)


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
    with open(path, "rb") as fh:
        raw = read_json(fh.read(), f"{path}: not a JSON project file", ArtifactFormatError)
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
    sorted-key, compact `json.dumps`, streamed one version at a time."""
    write_artifact(path, _project_chunks(project))


def _project_chunks(project: Project) -> Iterator[str]:
    yield f'{{"project":{_quote(project.name)},"versions":['
    for i, g in enumerate(project.versions):
        edges = ",".join(f'{{"dst":{_quote(d)},"label":{_quote(e)},"src":{_quote(s)}}}' for s, d, e in g._edges)
        nodes = ",".join(f'{{"id":{_quote(v)},"label":{_quote(x)}}}' for v, x in sorted(g._labels.items()))
        yield f'{"," if i else ""}{{"edges":[{edges}],"nodes":[{nodes}]}}'
    yield "]}\n"


def load_corpus(paths: Sequence) -> dict[str, Project]:
    """Load several project files into a name-keyed corpus.

    The paths are cut, in order, into one run of about equal length per
    usable CPU. This process loads the first run while forked workers load the rest.
    The corpus is built and checked in path order, loading here each run no
    worker sent, so the corpus and its errors are a one-process read's.
    """
    runs, workers = _runs(list(paths)), {}
    try:
        for j in range(1, len(runs)):
            try:
                workers[j] = _fork_loader(runs[j])
            except OSError:  # a refused pipe or fork (EAGAIN, EMFILE): the rest load here
                break
        corpus: dict[str, Project] = {}
        path_of = {}
        for j, run in enumerate(runs):
            sent = _received(*workers[j]) if j in workers else None
            workers.pop(j, None)  # only once reaped: an interrupted read leaves it to the finally
            for path, project in zip(run, map(load_project, run) if sent is None else pickle.loads(sent)):
                name = project.name
                if name in corpus:
                    raise ArtifactFormatError(f"{path_of[name]} and {path}: duplicate project id {name!r}")
                corpus[name], path_of[name] = project, path
        return corpus
    finally:  # no worker outlives the call
        for pid, pipe in workers.values():
            pipe.close()
            try:  # an unreaped worker keeps its pid, so only then is the kill safe
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by `_received` before the interrupt
                pass


def _runs(paths: list) -> list[list]:
    """`paths` cut, in order, into k runs of ⌊n/k⌋ or ⌈n/k⌉ of the n files, k
    the usable CPUs, or one run where `os.fork` is missing; generated project
    files differ in size by a few percent, so the runs are of about equal bytes."""
    k = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = len(paths)
    k = min(n, k if hasattr(os, "fork") else 1)
    return [paths[n * j // k : n * (j + 1) // k] for j in range(k)]


def _fork_loader(run: list) -> tuple[int, BinaryIO]:
    """The pid and pipe of a forked worker that sends `run`'s projects as one
    pickle, so their shared parts stay shared, or exits 1 without a word."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker: it never returns into its caller's code
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps([load_project(p) for p in run], pickle.HIGHEST_PROTOCOL))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)  # before the next fork, so that no later worker holds it open
    return pid, open(read_end, "rb")


def _received(pid: int, pipe: BinaryIO) -> bytes | None:
    """What a worker sent, read to EOF, once it is reaped; None unless it exited 0."""
    with pipe:
        data = pipe.read()
    return data if os.waitpid(pid, 0)[1] == 0 else None
