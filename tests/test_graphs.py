"""Graph construction, diffing, distances, and change-radius behavior."""

import errno
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank import datagen, graphs
from focusrank.errors import ArtifactFormatError, UnknownNodeError
from focusrank.graphs import (
    INFINITE,
    ChangeRadius,
    ModelGraph,
    Project,
    change_radius,
    diff,
    load_corpus,
    load_project,
    save_project,
    union_graph,
)


def graph(nodes, edges=()):
    return ModelGraph({n: f"L{n}" for n in nodes}, edges)


def labeled(nodes, edges=()):
    return ModelGraph(dict(nodes), edges)


def labels(g: ModelGraph) -> dict:
    """Each node's label by id, the stored objects themselves."""
    return {v: g.label(v) for v in g.node_ids}


NODE_A = {"id": "A", "label": "x"}


class TestModelGraph:
    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph([("A", "x"), ("A", "y")])

    def test_empty_node_id_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph({"": "x"})

    @pytest.mark.parametrize(
        "nodes, edges",
        [({5: "x"}, ()), ({"A": None}, ()), ([(["A"], "x")], ()), ({"A": "x"}, [("A", "A", 3)])],
    )
    def test_non_string_fields_rejected(self, nodes, edges):
        with pytest.raises(ValueError, match="strings"):
            ModelGraph(nodes, edges)

    def test_edge_endpoint_must_exist(self):
        with pytest.raises(ValueError):
            graph("AB", [("A", "C", "e")])

    def test_duplicate_edge_triple_rejected(self):
        with pytest.raises(ValueError):
            graph("AB", [("A", "B", "e"), ("A", "B", "e")])

    def test_parallel_edges_with_distinct_labels_allowed(self):
        g = graph("AB", [("A", "B", "x"), ("A", "B", "y")])
        assert len(g.edges) == 2

    def test_label_lookup_and_membership(self):
        g = labeled([("A", "Foo")])
        assert g.label("A") == "Foo"
        assert "A" in g and "B" not in g
        with pytest.raises(UnknownNodeError):
            g.label("B")

    def test_equality_is_structural(self):
        a = graph("AB", [("A", "B", "e")])
        b = graph("AB", [("A", "B", "e")])
        assert a == b
        assert a != graph("AB")


def hops(g: ModelGraph, u: str, v: str) -> float:
    """Hop count between u and v on the undirected view, INFINITE across
    components."""
    return g.distances_from(u).get(v, INFINITE)


class TestDistance:
    def test_chain_length(self):
        g = graph("ABC", [("A", "B", "e"), ("B", "C", "e")])
        assert hops(g, "A", "C") == 2

    def test_self_distance_zero(self):
        assert hops(graph("A"), "A", "A") == 0

    def test_disconnected_is_infinite(self):
        g = graph("ABC", [("A", "B", "e")])
        assert hops(g, "A", "C") == INFINITE
        assert hops(g, "A", "C") == math.inf

    def test_undirected_view(self):
        g = graph("AB", [("B", "A", "e")])
        assert hops(g, "A", "B") == 1

    def test_symmetry_and_triangle_inequality(self):
        """Random connected graphs: d(u,v) = d(v,u) and
        d(u,w) <= d(u,v) + d(v,w)."""
        rng = random.Random("distance-props")
        for _ in range(25):
            n = rng.randint(3, 9)
            nodes = [f"v{i}" for i in range(n)]
            edges = {(nodes[i - 1], nodes[i], "e") for i in range(1, n)}
            for _ in range(rng.randint(0, 6)):
                a, b = rng.sample(nodes, 2)
                edges.add((a, b, "x"))
            g = ModelGraph({v: v for v in nodes}, edges)
            u, v, w = (rng.choice(nodes) for _ in range(3))
            assert hops(g, u, v) == hops(g, v, u)
            assert hops(g, u, w) <= hops(g, u, v) + hops(g, v, w)


@st.composite
def random_graphs(draw, texts=("x", "y")):
    """Up to 7 nodes labeled from `texts`, with any edges between them,
    self-loops and parallel edges (distinct labels) included."""
    names = draw(st.lists(st.sampled_from("ABCDEFG"), unique=True, max_size=7))
    labels = {v: draw(st.sampled_from(texts)) for v in names}
    if not names:
        return ModelGraph(labels)
    ends = st.sampled_from(names)
    return ModelGraph(labels, draw(st.sets(st.tuples(ends, ends, st.sampled_from("pq")), max_size=14)))


def bfs_over_edges(g: ModelGraph, source: str) -> dict:
    """Hop counts from `source`, scanning the edge triples level by level."""
    dist, frontier, level = {source: 0}, {source}, 0
    while frontier:
        level += 1
        reached = {b for a, b, _ in g.edges if a in frontier} | {a for a, b, _ in g.edges if b in frontier}
        frontier = reached - dist.keys()
        dist.update(dict.fromkeys(frontier, level))
    return dist


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=random_graphs(), n=random_graphs(), made_by=st.sampled_from(["constructor", "load_project", "union_graph"]))
def test_adjacency_matches_edge_scan(tmp_path_factory, m, n, made_by):
    """`distances_from`, which builds the adjacency sets on each call, agrees
    with a scan of `g.edges` however the graph was made."""
    if made_by == "load_project":
        path = tmp_path_factory.mktemp("graph") / "p.json"
        save_project(Project("p", [m]), path)
        g = load_project(path).versions[0]
        assert g == m
    elif made_by == "union_graph":
        g = union_graph(m, n)  # built without the constructor's checks
        assert g == ModelGraph(labels(m) | labels(n), m.edges | n.edges)
    else:
        g = ModelGraph(list(labels(m).items()), list(m.edges))
    for v in sorted(g.node_ids):
        assert g.distances_from(v) == bfs_over_edges(g, v)


DIFF_FIELDS = ("anchors", "candidates", "changed_edges", "positives")


def diff_sets(d) -> tuple:
    """(changed nodes, preserved nodes, changed edges, positives) as sets."""
    return tuple(set(getattr(d, name)) for name in DIFF_FIELDS)


def brute_force_diff(m: ModelGraph, n: ModelGraph) -> tuple:
    """Literal membership check per element, including label comparison;
    the four sets in the order of `diff_sets`. A positive is a preserved
    node with an edge, in n, into a changed node."""
    changed_nodes, preserved_nodes, changed_edges = set(), set(), set()
    for v in m.node_ids | n.node_ids:
        if v in m and v in n and m.label(v) == n.label(v):
            preserved_nodes.add(v)
        else:
            changed_nodes.add(v)
    for e in m.edges | n.edges:
        if (e in m.edges) != (e in n.edges):
            changed_edges.add(e)
    positives = {
        v for v in preserved_nodes
        if any(src == v and dst in changed_nodes for src, dst, _ in n.edges)
    }
    return changed_nodes, preserved_nodes, changed_edges, positives


class TestDiff:
    def test_added_node_and_edge(self):
        m = graph("AB", [("A", "B", "e")])
        n = graph("ABC", [("A", "B", "e"), ("B", "C", "e")])
        d = diff(m, n)
        assert diff_sets(d) == ({"C"}, {"A", "B"}, {("B", "C", "e")}, {"B"})

    def test_identity_diff_is_empty(self):
        m = graph("AB", [("A", "B", "e")])
        d = diff(m, m)
        assert diff_sets(d) == (set(), m.node_ids, set(), set())

    def test_label_change_marks_node_changed(self):
        m = labeled([("A", "Foo")])
        n = labeled([("A", "Bar")])
        d = diff(m, n)
        assert diff_sets(d) == brute_force_diff(m, n) == ({"A"}, set(), set(), set())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        m=random_graphs(("x", "y", "z")),
        n=random_graphs(("x", "y", "z")),
        order=st.permutations(DIFF_FIELDS + ("union",)),
    )
    def test_matches_brute_force_on_random_graph_pairs(self, m, n, order):
        """Each derived value equals a per-element recount, whichever of them
        is read first; nodes come as ascending tuples."""
        d = diff(m, n)
        expected = dict(zip(DIFF_FIELDS, brute_force_diff(m, n)), union=union_graph(m, n))
        for name in order:
            value = getattr(d, name)
            assert (value if name == "union" else set(value)) == expected[name]
        assert d.anchors == tuple(sorted(expected["anchors"]))
        assert d.candidates == tuple(sorted(expected["candidates"]))
        assert d.changed_nodes() == expected["anchors"]
        assert {v for v in m.node_ids | n.node_ids | {"ghost"} if d.changed(v)} == expected["anchors"]
        assert change_radius(d.union, d).c == len(d.anchors) + len(d.changed_edges)


class TestUnionGraph:
    def test_target_label_wins(self):
        m = labeled([("A", "Old"), ("B", "Keep")], [("A", "B", "e")])
        n = labeled([("A", "New"), ("C", "Added")])
        u = union_graph(m, n)
        assert u.label("A") == "New"
        assert u.label("B") == "Keep"
        assert u.label("C") == "Added"
        assert ("A", "B", "e") in u.edges


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=random_graphs(("", "x", "y")), n=random_graphs(("", "x", "y")))
def test_union_label_is_the_union_graphs_label(m, n):
    """A diff's `label` is its union's, for every node of either version,
    including empty and changed labels, and builds no union; a node in
    neither version is unknown to both."""
    d, u = diff(m, n), union_graph(m, n)
    for v in m.node_ids | n.node_ids:
        assert d.label(v) == u.label(v)
    assert "union" not in vars(d)
    for lookup in (d.label, u.label):
        with pytest.raises(UnknownNodeError):
            lookup("H")


class TestChangeRadius:
    def test_added_leaf_is_single_location(self):
        m = graph("A")
        n = graph("AB", [("A", "B", "e")])
        d = diff(m, n)
        r = change_radius(union_graph(m, n), d)
        assert r == ChangeRadius(c=2, s=1)
        assert not r.is_multi_location

    def test_single_changed_node(self):
        m = labeled([("A", "Foo")])
        n = labeled([("A", "Bar")])
        r = change_radius(union_graph(m, n), diff(m, n))
        assert r.c == 1 and r.s == 0

    def test_chain_endpoints(self):
        chain = [("A", "B", "e"), ("B", "C", "e"), ("C", "D", "e")]
        m = ModelGraph({v: v for v in "ABCD"}, chain)
        n = ModelGraph({"A": "A2", "B": "B", "C": "C", "D": "D2"}, chain)
        r = change_radius(union_graph(m, n), diff(m, n))
        # all-pairs BFS oracle over the involved nodes
        g = union_graph(m, n)
        involved = sorted(diff(m, n).changed_nodes())
        expected = max(hops(g, a, b) for a in involved for b in involved)
        assert r.s == expected == 3
        assert r.is_multi_location

    def test_disconnected_change_set_is_infinite(self):
        m = graph("AB")
        n = labeled([("A", "LA2"), ("B", "LB2")])
        r = change_radius(union_graph(m, n), diff(m, n))
        assert r.s == INFINITE

    def test_multi_location_threshold(self):
        assert ChangeRadius(c=2, s=2).is_multi_location
        assert not ChangeRadius(c=1, s=5).is_multi_location
        assert not ChangeRadius(c=4, s=1).is_multi_location


class TestProjectPersistence:
    def test_round_trip(self, tmp_path):
        p = Project(
            name="demo",
            versions=[graph("AB", [("A", "B", "e")]), graph("ABC", [("A", "B", "e")])],
        )
        path = tmp_path / "demo.json"
        save_project(p, path)
        loaded = load_project(path)
        assert loaded.name == "demo"
        assert loaded.versions == p.versions
        assert loaded.n_diffs == 1

    def test_file_is_one_compact_json_line(self, tmp_path):
        p = Project(name="demo", versions=[graph("AB", [("A", "B", "e")])])
        path = tmp_path / "demo.json"
        save_project(p, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert ", " not in text and ": " not in text
        assert json.loads(text) == {
            "project": "demo",
            "versions": [{
                "nodes": [{"id": "A", "label": "LA"}, {"id": "B", "label": "LB"}],
                "edges": [{"src": "A", "dst": "B", "label": "e"}],
            }],
        }

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "proj",
            {"versions": []},
            {"project": "p", "versions": {"nodes": []}},
            {"project": "p", "versions": [1]},
            {"project": "p", "versions": [{}, None]},
            {"project": "p", "versions": [{"nodes": 5}]},
            {"project": "p", "versions": [{"nodes": [], "edges": "A->B"}]},
        ],
    )
    def test_malformed_structure_is_a_typed_error(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactFormatError):
            load_project(path)

    @pytest.mark.parametrize(
        "nodes, edges, problem",
        [
            ([NODE_A, {"id": "", "label": "bad"}], [], "non-empty"),
            ([NODE_A, {"label": "no-id"}], [], "'id'"),
            ([NODE_A, {"id": "B"}], [], "'label'"),
            ([NODE_A, "junk"], [], "not an object"),
            ([NODE_A, {"id": 5, "label": "x"}], [], "strings"),
            ([NODE_A, {"id": "B", "label": None}], [], "strings"),
            ([NODE_A, {"id": "A", "label": "y"}], [], "duplicate node id 'A'"),
            ([NODE_A], [{"src": "A", "dst": "GONE", "label": "e"}], "'GONE'"),
            ([NODE_A], [{"src": "A"}], "'dst'"),
            ([NODE_A], [["A", "A", "e"]], "not an object"),
            ([NODE_A], [{"src": "A", "dst": "A", "label": 3}], "strings"),
            ([NODE_A], [{"src": "A", "dst": "A", "label": "e"}] * 2, "duplicate edge"),
        ],
    )
    def test_malformed_record_rejects_the_file(self, tmp_path, nodes, edges, problem):
        """One bad record fails the load with the file, the version index
        and the problem in the message; no record is dropped."""
        path = tmp_path / "messy.json"
        versions = [{"nodes": [NODE_A], "edges": []}, {"nodes": nodes, "edges": edges}]
        path.write_text(json.dumps({"project": "messy", "versions": versions}))
        with pytest.raises(ArtifactFormatError) as info:
            load_project(path)
        message = str(info.value)
        assert message.startswith(f"{path} version 1: ") and problem in message

    @pytest.mark.parametrize("data", [b'{"project": "p", "versions": [', b"\xff\xfe{}"])
    def test_file_that_is_not_json_is_a_typed_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ArtifactFormatError, match="not a JSON project file"):
            load_project(path)

    def test_duplicate_project_ids_rejected(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            save_project(Project(name="same", versions=[graph("A")]), path)
        with pytest.raises(ArtifactFormatError, match="same") as info:
            load_corpus(paths)
        assert str(info.value).startswith(f"{paths[0]} and {paths[1]}: ")

    def test_versions_of_one_file_share_equal_elements(self, tmp_path):
        """Equal ids, labels and edge triples across a loaded project's
        versions are one object, a relabeled node's old and new label too.
        (Names are longer than one character, which Python shares anyway.)"""
        a, b, c = "node-a", "node-b", "node-c"
        versions = [
            labeled([(a, "Label x"), (b, "")], [(a, b, "edge")]),
            labeled([(a, "Label x"), (b, a), (c, "")], [(a, b, "edge"), (c, a, "edge")]),
            labeled([(a, "Label y"), (c, "")], [(c, a, "edge"), (a, a, "loop")]),
            labeled([(a, "Label x"), (b, "")], [(a, b, "edge")]),
        ]
        path = tmp_path / "p.json"
        save_project(Project("p", versions), path)
        loaded = load_project(path).versions
        assert loaded == versions
        first: dict = {}
        for g in loaded:
            for part in [*labels(g).keys(), *labels(g).values(), *g.edges]:
                assert first.setdefault(part, part) is part
        assert len(first) == 9

    def test_save_of_a_loaded_file_is_byte_identical(self, tmp_path):
        corpus, _ = datagen.build_corpus(datagen.GenConfig(projects=2, commits_per_project=4))
        for project in corpus.values():
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            save_project(project, first)
            save_project(load_project(first), second)
            assert second.read_bytes() == first.read_bytes()

    def test_diff_at_uses_consecutive_versions(self):
        versions = [graph("A"), graph("AB"), graph("ABC")]
        p = Project(name="p", versions=versions)
        d = p.diff_at(1)
        assert d.source_version == 1 and d.project == "p"
        assert d.source is versions[1] and d.target is versions[2]
        assert d.changed_nodes() == {"C"}


@pytest.fixture
def corpus_files(tmp_path):
    """Six generated project files, in path order."""
    corpus, _ = datagen.build_corpus(datagen.GenConfig(projects=6, commits_per_project=4))
    paths = [tmp_path / f"{name}.json" for name in sorted(corpus)]
    for path in paths:
        save_project(corpus[path.stem], path)
    return paths


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets how many CPUs `load_corpus` may use, and counts its forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forks

    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def loaded_or_error(paths):
    try:
        return load_corpus(paths)
    except Exception as exc:  # compared with the other read's
        return type(exc), str(exc)


class TestCorpusWorkers:
    def test_runs_cut_the_paths_in_order_by_count(self, usable_cpus):
        """k runs of floor(n/k) or ceil(n/k) paths each, whatever the files
        hold: none of them is opened or sized, so these need not exist."""
        for n in range(1, 14):
            paths = [f"missing/proj{i:02d}.json" for i in range(n)]
            for cpus in range(1, 10):
                usable_cpus(cpus)
                runs = graphs._runs(paths)
                k = min(cpus, n)
                assert [p for run in runs for p in run] == paths and len(runs) == k
                assert {len(run) for run in runs} <= {n // k, -(-n // k)}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_workers_read_what_one_process_reads(self, corpus_files, usable_cpus, cpus):
        usable_cpus(1)
        alone = load_corpus(corpus_files)
        forks = usable_cpus(cpus)
        shared = load_corpus(corpus_files)
        assert len(forks) == cpus - 1
        assert_no_child_left()
        assert list(shared) == list(alone) == [p.stem for p in corpus_files]
        for name, project in alone.items():
            assert shared[name].versions == project.versions
        first: dict = {}  # the last project was read by a worker
        for g in shared[corpus_files[-1].stem].versions:
            for part in [*labels(g).keys(), *labels(g).values(), *g.edges]:
                assert first.setdefault(part, part) is part

    @pytest.mark.parametrize("fault", ["malformed record", "not JSON", "duplicate id", "missing file"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_fault_in_a_workers_run_is_the_one_process_error(
        self, corpus_files, usable_cpus, fault, cpus
    ):
        """The last file, which a worker reads, is the one broken file, so
        both reads raise for it."""
        last = corpus_files[-1]
        if fault == "malformed record":
            project = json.loads(last.read_text())
            project["versions"][1]["nodes"][0] = {"id": 5}
            last.write_text(json.dumps(project))
        elif fault == "not JSON":
            last.write_bytes(b'{"project": "p", "versions": [')
        elif fault == "duplicate id":
            last.write_bytes(corpus_files[0].read_bytes())
        else:
            last.unlink()
        usable_cpus(1)
        expected = loaded_or_error(corpus_files)
        assert isinstance(expected, tuple) and str(last) in expected[1]
        forks = usable_cpus(cpus)
        assert loaded_or_error(corpus_files) == expected
        assert forks
        assert_no_child_left()

    def test_the_first_fault_in_path_order_wins(self, corpus_files, usable_cpus):
        corpus_files[1].write_bytes(b"[")
        corpus_files[-1].unlink()
        usable_cpus(2)
        with pytest.raises(ArtifactFormatError, match="not a JSON project file") as info:
            load_corpus(corpus_files)
        assert str(info.value).startswith(str(corpus_files[1]))
        assert_no_child_left()

    def test_a_run_its_worker_did_not_send_is_loaded_here(self, corpus_files, usable_cpus, monkeypatch):
        usable_cpus(1)
        alone = load_corpus(corpus_files)
        parent, load = os.getpid(), graphs.load_project

        def load_in_parent_only(path):
            if os.getpid() != parent:
                os._exit(3)
            return load(path)

        monkeypatch.setattr(graphs, "load_project", load_in_parent_only)
        forks = usable_cpus(2)
        assert load_corpus(corpus_files) == alone
        assert forks
        assert_no_child_left()

    @pytest.mark.parametrize("call", [1, 2])
    @pytest.mark.parametrize("refused", ["fork", "pipe"])
    def test_a_refused_fork_loads_its_runs_here(self, corpus_files, usable_cpus, monkeypatch, refused, call):
        """A pipe or fork refused at the first or a later worker (EAGAIN under a
        process limit, EMFILE): no further fork is tried, the runs that got no
        worker load here, and no descriptor or child is left."""
        usable_cpus(1)
        alone = load_corpus(corpus_files)
        forks = usable_cpus(3)
        real, calls = getattr(os, refused), []

        def refuse_at_call():
            calls.append(1)
            if len(calls) == call:
                raise OSError(errno.EAGAIN if refused == "fork" else errno.EMFILE, "refused")
            return real()

        monkeypatch.setattr(os, refused, refuse_at_call)
        fds = len(os.listdir("/proc/self/fd"))
        assert load_corpus(corpus_files) == alone
        assert len(os.listdir("/proc/self/fd")) == fds
        assert len(calls) == call and len(forks) == call - 1
        assert_no_child_left()

    def test_an_interrupt_after_a_reap_leaves_no_worker(self, corpus_files, usable_cpus, monkeypatch):
        """An interrupt, such as a SIGINT, that lands just after the first
        worker is reaped, before `load_corpus` forgets it, propagates as
        itself: the reaped pid is not killed, and the other worker and every
        pipe are closed and reaped."""
        forks = usable_cpus(3)
        real, reaped = os.waitpid, []

        def reap_then_interrupt(pid, options):
            result = real(pid, options)
            if not reaped:
                reaped.append(pid)
                raise KeyboardInterrupt
            return result

        monkeypatch.setattr(os, "waitpid", reap_then_interrupt)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(KeyboardInterrupt) as info:
            load_corpus(corpus_files)
        assert info.value.__context__ is None
        assert len(forks) == 2 and reaped
        assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_child_left()

    def test_one_usable_cpu_forks_nothing(self, corpus_files, usable_cpus, monkeypatch):
        usable_cpus(1)

        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert list(load_corpus(corpus_files)) == [p.stem for p in corpus_files]

    def test_a_process_without_fork_reads_alone(self, corpus_files, usable_cpus, monkeypatch):
        usable_cpus(4)
        monkeypatch.delattr(os, "fork")
        assert graphs._runs(corpus_files) == [corpus_files]
        assert list(load_corpus(corpus_files)) == [p.stem for p in corpus_files]


# Quotes, backslashes, control and non-BMP characters, besides any other.
json_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f \U0001f600'), st.characters()), max_size=6)


@st.composite
def text_projects(draw):
    """1-3 versions over ids and labels drawn from `json_texts`."""
    pool = draw(st.lists(json_texts.filter(bool), min_size=1, max_size=6, unique=True))
    versions = []
    for _ in range(draw(st.integers(1, 3))):
        nodes = draw(st.dictionaries(st.sampled_from(pool), json_texts, min_size=1))
        ends = st.sampled_from(sorted(nodes))
        versions.append(ModelGraph(nodes, draw(st.sets(st.tuples(ends, ends, json_texts), max_size=8))))
    return Project(draw(json_texts.filter(bool)), versions)


def json_dumps_payload(project: Project) -> dict:
    """The payload a project file is the sorted-key `json.dumps` of."""
    return {
        "project": project.name,
        "versions": [
            {
                "nodes": [{"id": v, "label": label} for v, label in sorted(labels(g).items())],
                "edges": [{"src": s, "dst": d, "label": label} for s, d, label in sorted(g.edges)],
            }
            for g in project.versions
        ],
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(project=text_projects())
def test_save_project_writes_the_json_dumps_bytes(tmp_path_factory, project):
    """The writer escapes each string itself; its bytes are those of
    `json.dumps` over the record dicts, and they load back to equal,
    shared elements."""
    path = tmp_path_factory.mktemp("save") / "p.json"
    save_project(project, path)
    oracle = json.dumps(json_dumps_payload(project), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == oracle.encode("utf-8")
    loaded = load_project(path)
    assert loaded.name == project.name and loaded.versions == project.versions
    first: dict = {}
    for g in loaded.versions:
        for part in [*labels(g).keys(), *labels(g).values(), *g.edges]:
            assert first.setdefault(part, part) is part
