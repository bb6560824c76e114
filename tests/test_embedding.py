"""Label tokenization, hashed embeddings, caching, and the remote client."""

import contextlib
import hashlib
import json
import logging
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.embedding import (
    HashedProvider,
    ProviderConfig,
    RemoteConfig,
    RemoteProvider,
    fnv1a_64,
    fnv1a_64_all,
    make_provider,
    tokenize,
)
from focusrank.cli import EXIT_OK, EXIT_RUNTIME, main
from focusrank.errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    FocusRankError,
    RemoteUnavailableError,
)


class TestTokenize:
    def test_camel_case_splits(self):
        assert tokenize("ValidationSetType") == ["validation", "set", "type"]

    def test_acronym_run_stays_one_token(self):
        assert tokenize("HTTPServer") == ["http", "server"]

    def test_separators_and_digits(self):
        assert tokenize("snake_case_v2") == ["snake", "case", "v2"]
        assert tokenize("dash-and.dot") == ["dash", "and", "dot"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("$$##") == []


class TestFnv1a:
    def test_reference_vectors(self):
        # published 64-bit FNV-1a values
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_stable_and_distinct(self):
        assert fnv1a_64(b"cache") == fnv1a_64(b"cache")
        assert fnv1a_64(b"cache") != fnv1a_64(b"Cache")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.binary(max_size=24), max_size=20))
    def test_vectorized_matches_the_byte_loop(self, items):
        def byte_loop(data: bytes) -> int:
            value = 0xCBF29CE484222325
            for byte in data:
                value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            return value

        assert [int(v) for v in fnv1a_64_all(items)] == [byte_loop(item) for item in items]


def oracle_hashed(text: str, dimension: int) -> np.ndarray:
    """Re-derive the hashed embedding literally: one count per token bucket."""
    counts = np.zeros(dimension)
    for token in tokenize(text):
        counts[fnv1a_64(token.encode("utf-8")) % dimension] += 1.0
    norm = np.linalg.norm(counts)
    return counts / norm if norm else counts


class TestHashedProvider:
    def test_identical_labels_identical_vectors(self):
        provider = HashedProvider(dimension=32)
        a, b = provider.embed(["OrderService", "OrderService"])
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        provider = HashedProvider(dimension=64)
        for vec in provider.embed(["PaymentGateway", "x", "Very Long Label Indeed"]):
            assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-9

    def test_shared_token_gives_positive_cosine_at_d16(self):
        """'ValidationSetType' and 'AggregationType' share the token 'type';
        the bucket-count oracle confirms an overlapping nonzero bucket."""
        provider = HashedProvider(dimension=16)
        a, b = provider.embed(["ValidationSetType", "AggregationType"])
        np.testing.assert_allclose(a, oracle_hashed("ValidationSetType", 16), atol=1e-12)
        np.testing.assert_allclose(b, oracle_hashed("AggregationType", 16), atol=1e-12)
        shared = fnv1a_64(b"type") % 16
        assert a[shared] > 0 and b[shared] > 0
        assert a @ b > 0  # unit-norm rows: their dot product is their cosine

    def test_empty_label_yields_zero_vector_and_warns(self, caplog):
        provider = HashedProvider(dimension=16)
        with caplog.at_level(logging.WARNING, logger="focusrank.embedding"):
            (vec,) = provider.embed([""])
        assert np.array_equal(vec, np.zeros(16))
        assert any("empty" in record.message for record in caplog.records)

    def test_matches_oracle_on_varied_labels(self):
        """Bit for bit: the counts are exact, so hashing a block at once
        changes no arithmetic the per-label oracle does. The labels span
        three blocks, with empty and non-ASCII ones past the first, so each
        block's counts must land in its own rows of the output."""
        provider = HashedProvider(dimension=24)
        labels = ["AuthToken", "token_store", "HTTP2Session", "a b c", "Zzz", "", "Größe_élan"]
        labels += [f"Node{i}Ref" for i in range(provider.max_batch)]
        labels += ["", "ΔeltaNode_naïve", "AuthToken"]
        labels += [f"Edge{i}To{i + 1}" for i in range(provider.max_batch)] + ["café Größe", ""]
        for label, vec in zip(labels, provider.embed(labels)):
            assert vec.tobytes() == oracle_hashed(label, 24).tobytes()

    def test_dimension_floor(self):
        with pytest.raises(ConfigInvalidError):
            HashedProvider(dimension=4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ABCdef_0 ", min_size=0, max_size=12),
            min_size=1,
            max_size=6,
        )
    )
    def test_batch_equals_per_text_embedding(self, labels):
        """Embedding a batch equals embedding each text alone, any order."""
        provider = HashedProvider(dimension=16)
        batch = provider.embed(labels)
        for label, vec in zip(labels, batch):
            (single,) = provider.embed([label])
            assert np.array_equal(vec, single)


FINGERPRINT = "remote:test-model:d=8"  # what remote_provider's defaults give


def store_key(fingerprint: str, text: str) -> bytes:
    """A record's key, derived from the documented layout."""
    prefix = hashlib.sha256(fingerprint.encode("utf-8")).digest()
    return hashlib.sha256(prefix + text.encode("utf-8")).digest()


def pack_record(key: bytes, values) -> bytes:
    """key, little-endian float64 values, CRC-32 of both: a well-formed
    record when `values` has the store's dimension."""
    body = key + np.asarray(values, dtype="<f8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


def record_size(dimension: int = 8) -> int:
    return 32 + 8 * dimension + 4


def store_path(cache_dir, fingerprint: str = FINGERPRINT) -> Path:
    """The documented file name: the fingerprint's SHA-256, 16 hex digits."""
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return Path(cache_dir) / f"embeddings-{digest[:16]}.bin"


def valid_records(path: Path, dimension: int = 8) -> list[bytes]:
    """The records that pass their CRC, read without the code under test."""
    data, size = path.read_bytes(), record_size(dimension)
    records = [data[i : i + size] for i in range(0, len(data) - size + 1, size)]
    return [r for r in records if struct.unpack("<I", r[-4:])[0] == zlib.crc32(r[:-4])]


class TestCache:
    """The remote provider's on-disk store, against the loopback endpoint."""

    def test_cold_then_warm_reads_are_bit_identical(self, endpoint, tmp_path):
        url, script = endpoint
        first = remote_provider(url, cache_dir=str(tmp_path)).embed(["CacheKey", "Other"])
        assert len(script.requests) == 1
        assert valid_records(store_path(tmp_path)) == [
            pack_record(store_key(FINGERPRINT, text), fake_vector(text, 8))
            for text in ["CacheKey", "Other"]
        ]
        second = remote_provider(url, cache_dir=str(tmp_path)).embed(["CacheKey", "Other"])
        assert len(script.requests) == 1
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_fingerprint_keys_cache_entries(self, endpoint, tmp_path):
        url, script = endpoint
        remote_provider(url, dimension=8, cache_dir=str(tmp_path)).embed(["X"])
        script.dimension = 16
        remote_provider(url, dimension=16, cache_dir=str(tmp_path)).embed(["X"])
        assert len(list(tmp_path.glob("embeddings-*.bin"))) == 2
        assert len(script.requests) == 2

    def test_corrupt_entry_recomputed(self, endpoint, tmp_path):
        url, script = endpoint
        provider = remote_provider(url, cache_dir=str(tmp_path))
        (expected,) = provider.embed(["Node"])
        store_path(tmp_path).write_bytes(b"{ not json")
        (again,) = remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert np.array_equal(again, expected)
        assert len(script.requests) == 2
        remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert len(script.requests) == 2

    # a record holding too few values, too many, none, and NaNs under a valid CRC
    @pytest.mark.parametrize("vector", [[0.5, 0.5, 0.5], [1.0] * 9, None, [math.nan] * 8])
    def test_wrong_shape_entry_recomputed_and_rewritten(self, endpoint, tmp_path, vector):
        url, script = endpoint
        (expected,) = remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        path = store_path(tmp_path)
        (record,) = valid_records(path)
        path.write_bytes(pack_record(store_key(FINGERPRINT, "Node"), vector or []))
        (again,) = remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert np.array_equal(again, expected)
        assert len(script.requests) == 2
        assert valid_records(path)[-1] == record
        assert path.stat().st_size % record_size() == 0  # the torn tail was padded
        remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert len(script.requests) == 2

    def test_old_per_text_json_entries_are_ignored(self, endpoint, tmp_path):
        """A cache directory left by the one-JSON-file-per-text format still
        holds its files; they are misses, never read as vectors."""
        url, script = endpoint
        text_sha = hashlib.sha256(b"Node").hexdigest()
        name = hashlib.sha256(f"{FINGERPRINT}\x00{text_sha}".encode()).hexdigest()
        old = {"fingerprint": FINGERPRINT, "text_sha256": text_sha, "vector": [9.0] * 8}
        (tmp_path / f"{name}.json").write_text(json.dumps(old))
        (vec,) = remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert np.array_equal(vec, fake_vector("Node", 8))
        assert len(script.requests) == 1

    def test_records_appended_by_another_provider_become_visible(self, endpoint, tmp_path):
        url, script = endpoint
        reader = remote_provider(url, cache_dir=str(tmp_path))
        reader.embed(["A"])
        remote_provider(url, cache_dir=str(tmp_path)).embed(["B"])
        assert np.array_equal(reader.embed(["A", "B"]), [fake_vector(t, 8) for t in "AB"])
        assert len(script.requests) == 2

    def test_a_store_cut_short_under_a_reader_is_indexed_anew(self, endpoint, tmp_path):
        url, script = endpoint
        reader = remote_provider(url, cache_dir=str(tmp_path))
        reader.embed(["A", "C"])
        store_path(tmp_path).write_bytes(b"")
        remote_provider(url, cache_dir=str(tmp_path)).embed(["B"])  # one record, at offset 0
        assert np.array_equal(reader.embed(["A", "B", "C"]), [fake_vector(t, 8) for t in "ABC"])
        assert len(script.requests) == 2

    def test_last_valid_record_wins(self, endpoint, tmp_path):
        url, script = endpoint
        key = store_key(FINGERPRINT, "Node")
        records = [[1.0] * 8, [2.0] * 8, [math.inf] * 8]
        path = store_path(tmp_path)
        path.write_bytes(b"".join(pack_record(key, values) for values in records))
        (vec,) = remote_provider(url, cache_dir=str(tmp_path)).embed(["Node"])
        assert np.array_equal(vec, [2.0] * 8)
        assert not script.requests

    def test_hashed_provider_ignores_cache_dir(self, tmp_path):
        config = ProviderConfig(kind="hashed", dimension=16, cache_dir=str(tmp_path / "cache"))
        out = make_provider(config).embed(["Node", "Other"])
        assert np.array_equal(out, HashedProvider(dimension=16).embed(["Node", "Other"]))
        assert not (tmp_path / "cache").exists()


STORE_TEXTS = ["A", "B", "C", "D"]


@st.composite
def garbage_stores(draw):
    """A store file for STORE_TEXTS and the texts it holds a valid record
    for: whole records that are good, bit-flipped, NaN under a valid CRC or
    noise, then maybe a torn tail; or else bytes with no record structure."""
    size = record_size()
    if draw(st.booleans()):
        return draw(st.binary(max_size=3 * size)), set()
    chunks, held = [], set()
    for _ in range(draw(st.integers(0, 6))):
        text = draw(st.sampled_from(STORE_TEXTS))
        kind = draw(st.sampled_from(["good", "flipped", "nan", "noise"]))
        good = pack_record(store_key(FINGERPRINT, text), fake_vector(text, 8))
        if kind == "good":
            chunks.append(good)
            held.add(text)
        elif kind == "flipped":
            bit = draw(st.integers(0, 8 * size - 1))
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            chunks.append(bytes(flipped))
        elif kind == "nan":
            chunks.append(pack_record(store_key(FINGERPRINT, text), [math.nan] * 8))
        else:
            chunks.append(draw(st.binary(min_size=size, max_size=size)))
    tail = draw(st.sampled_from(["none", "torn", "noise"]))
    if tail == "torn":
        text = draw(st.sampled_from(STORE_TEXTS))
        good = pack_record(store_key(FINGERPRINT, text), fake_vector(text, 8))
        chunks.append(good[: draw(st.integers(1, size - 1))])
    elif tail == "noise":
        chunks.append(draw(st.binary(min_size=1, max_size=size - 1)))
    return b"".join(chunks), held


@settings(max_examples=80, deadline=None, derandomize=True)
@given(store=garbage_stores())
def test_a_garbage_store_is_a_miss_never_an_error(shared_endpoint, store):
    """Whatever the store file holds, `embed` returns the endpoint's vectors
    and fetches again exactly the texts without a valid record; what it
    fetched is appended so that a fresh provider then finds every text."""
    url, script = shared_endpoint
    script.reply = None
    data, held = store
    with tempfile.TemporaryDirectory() as cache_dir:
        store_path(cache_dir).write_bytes(data)
        script.requests.clear()
        out = remote_provider(url, cache_dir=cache_dir).embed(STORE_TEXTS)
        assert np.array_equal(out, [fake_vector(t, 8) for t in STORE_TEXTS])
        fetched = [t for request in script.requests for t in request["body"]["input"]]
        assert sorted(fetched) == sorted(set(STORE_TEXTS) - held)
        script.requests.clear()
        again = remote_provider(url, cache_dir=cache_dir).embed(STORE_TEXTS)
        assert again.tobytes() == out.tobytes()
        assert not script.requests


_APPENDER = """
import os, sys, time
import numpy as np
from focusrank.embedding import _EmbeddingStore

cache_dir, tag, go = sys.argv[1:]
store = _EmbeddingStore(cache_dir, "remote:test-model:d=8", 8)
while not os.path.exists(go):
    time.sleep(0.001)
for block in range(50):
    texts = [f"{tag}-{block}-{i}" for i in range(3)]
    store.append(texts, np.array([[len(tag) + block + i / 8] * 8 for i in range(3)]))
"""


def test_two_processes_appending_lose_no_record(tmp_path):
    """Two processes append 50 blocks each to one store at once: every
    record either wrote is whole, valid and found by a fresh reader."""
    import focusrank

    env = {**os.environ, "PYTHONPATH": str(Path(focusrank.__file__).parents[1])}
    go = tmp_path / "go"
    tags = ["left", "right!"]
    writers = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, str(tmp_path), tag, str(go)], env=env)
        for tag in tags
    ]
    try:
        go.touch()
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
    finally:
        for writer in writers:
            writer.kill()
            writer.wait()
    path = store_path(tmp_path)
    assert path.stat().st_size == 2 * 50 * 3 * record_size()
    assert len(valid_records(path)) == 2 * 50 * 3
    texts = [f"{tag}-{block}-{i}" for tag in tags for block in range(50) for i in range(3)]
    want = [[len(tag) + block + i / 8] * 8 for tag in tags for block in range(50) for i in range(3)]
    provider = remote_provider("http://127.0.0.1:9/unused", cache_dir=str(tmp_path))
    assert np.array_equal(provider.embed(texts), want)


class TestEmbedMatrix:
    """Both providers return one float64 (len(texts), dimension) array."""

    @pytest.mark.parametrize("texts", [[], ["A"], ["A", "B", "A", ""]])
    def test_hashed_shape_and_rows(self, texts):
        provider = HashedProvider(dimension=16)
        out = provider.embed(texts)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == (len(texts), 16)
        for text, row in zip(texts, out):
            np.testing.assert_allclose(row, oracle_hashed(text, 16), atol=1e-12)

    @pytest.mark.parametrize("cached", [False, True])
    def test_remote_shape_and_rows(self, endpoint, tmp_path, cached):
        url, script = endpoint
        texts = [f"t{i}" for i in range(130)] + ["t0"]
        if cached:  # half the texts come from the cache, half over HTTP
            remote_provider(url, cache_dir=str(tmp_path)).embed(texts[::2])
        out = remote_provider(url, cache_dir=str(tmp_path) if cached else None).embed(texts)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == (131, 8)
        assert np.array_equal(out, np.array([fake_vector(t, 8) for t in texts]))
        assert remote_provider(url).embed([]).shape == (0, 8)


def fake_vector(text: str, dimension: int) -> list[float]:
    digest = text.encode("utf-8")
    return [float(fnv1a_64(digest + bytes([i])) % 97) for i in range(dimension)]


class _Script:
    """Mutable behavior knobs shared between a test and its handler."""

    def __init__(self, dimension: int = 8):
        self.dimension = dimension
        self.fail_next = 0
        self.fail_status = 500
        self.reverse_order = False
        self.drop_key = ""  # omit this key from every response row
        self.stall = False  # hold every request until the test ends
        self.reply = None  # when set: request texts -> response body, sent instead
        self.released = threading.Event()
        self.requests: list[dict] = []


class _Handler(BaseHTTPRequestHandler):
    script: _Script

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self.script.requests.append(
            {"body": body, "authorization": self.headers.get("Authorization")}
        )
        if self.script.stall:
            self.script.released.wait(timeout=10.0)
            return
        if self.script.fail_next > 0:
            self.script.fail_next -= 1
            self.send_response(self.script.fail_status)
            self.end_headers()
            return
        if self.script.reply is not None:
            payload = self.script.reply(body["input"])
        else:
            data = answer(body["input"], self.script.dimension)
            for row in data:
                row.pop(self.script.drop_key, None)
            if self.script.reverse_order:
                data = list(reversed(data))
            payload = json.dumps({"data": data}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def answer(texts: list[str], dimension: int) -> list[dict]:
    """The rows of a well-formed response."""
    return [{"index": i, "embedding": fake_vector(text, dimension)} for i, text in enumerate(texts)]


@contextlib.contextmanager
def serving():
    script = _Script()
    handler = type("Handler", (_Handler,), {"script": script})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # a short poll interval, so that shutdown() at teardown returns promptly
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/embeddings"
    try:
        yield url, script
    finally:
        script.released.set()
        server.shutdown()
        thread.join()
        server.server_close()


@pytest.fixture
def endpoint():
    with serving() as served:
        yield served


@pytest.fixture(scope="module")
def shared_endpoint():
    """One server for every example of a Hypothesis test."""
    with serving() as served:
        yield served


def remote_provider(url: str, dimension: int = 8, auth_env: str = "", cache_dir=None):
    config = ProviderConfig(
        kind="remote",
        dimension=dimension,
        remote=RemoteConfig(endpoint=url, model="test-model", auth_env=auth_env),
        cache_dir=cache_dir,
    )
    return make_provider(config, retry_base_seconds=0.0)


class TestRemoteProvider:
    def test_wire_format_and_values(self, endpoint):
        url, script = endpoint
        provider = remote_provider(url)
        vectors = provider.embed(["Alpha", "Beta"])
        assert script.requests[0]["body"] == {"model": "test-model", "input": ["Alpha", "Beta"]}
        assert np.array_equal(vectors[0], np.array(fake_vector("Alpha", 8)))
        assert np.array_equal(vectors[1], np.array(fake_vector("Beta", 8)))

    def test_batches_cap_at_128_inputs(self, endpoint):
        url, script = endpoint
        provider = remote_provider(url)
        texts = [f"t{i}" for i in range(130)]
        vectors = provider.embed(texts)
        assert len(vectors) == 130
        sizes = [len(req["body"]["input"]) for req in script.requests]
        assert sizes == [128, 2]

    @pytest.mark.parametrize("cached", [False, True], ids=["no-store", "empty-store"])
    def test_a_repeated_miss_is_posted_once(self, endpoint, tmp_path, cached):
        url, script = endpoint
        provider = remote_provider(url, cache_dir=str(tmp_path) if cached else None)
        texts = [f"t{i}" for i in range(130)] + ["t0"]
        vectors = provider.embed(texts)
        assert [len(req["body"]["input"]) for req in script.requests] == [128, 2]
        assert sum(req["body"]["input"].count("t0") for req in script.requests) == 1
        assert np.array_equal(vectors[130], vectors[0])
        assert np.array_equal(vectors[0], np.array(fake_vector("t0", 8)))
        if cached:
            assert len(valid_records(store_path(tmp_path))) == 130

    def test_out_of_order_indices_are_realigned(self, endpoint):
        url, script = endpoint
        script.reverse_order = True
        provider = remote_provider(url)
        vectors = provider.embed(["One", "Two", "Three"])
        assert np.array_equal(vectors[0], np.array(fake_vector("One", 8)))
        assert np.array_equal(vectors[2], np.array(fake_vector("Three", 8)))

    def test_retries_then_succeeds(self, endpoint):
        url, script = endpoint
        script.fail_next = 2
        provider = remote_provider(url)
        (vec,) = provider.embed(["Retry"])
        assert len(script.requests) == 3
        assert np.array_equal(vec, np.array(fake_vector("Retry", 8)))

    def test_persistent_failure_raises(self, endpoint):
        url, script = endpoint
        script.fail_next = 99
        provider = remote_provider(url)
        with pytest.raises(RemoteUnavailableError):
            provider.embed(["Nope"])
        assert len(script.requests) == 3

    def test_client_error_is_not_retried(self, endpoint):
        url, script = endpoint
        script.fail_next = 99
        script.fail_status = 400
        with pytest.raises(RemoteUnavailableError, match="400"):
            remote_provider(url).embed(["Bad"])
        assert len(script.requests) == 1

    @pytest.mark.parametrize("status", [500, 400])
    def test_failed_requests_close_their_sockets(self, endpoint, status, monkeypatch):
        """An HTTPError holds the response and its socket; both the retry
        path (5xx) and the refusal path (4xx) must close it."""
        url, script = endpoint
        script.fail_next = 99
        script.fail_status = status
        errors = []
        urlopen = urllib.request.urlopen

        def recording_urlopen(*args, **kwargs):
            try:
                return urlopen(*args, **kwargs)
            except urllib.error.HTTPError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
        with pytest.raises(RemoteUnavailableError):
            remote_provider(url).embed(["Nope"])
        assert len(errors) == (3 if status == 500 else 1)
        assert all(error.fp.closed for error in errors)

    def test_stalled_endpoint_times_out(self, endpoint):
        url, script = endpoint
        script.stall = True
        provider = remote_provider(url)
        provider.timeout_seconds = 0.2
        start = time.perf_counter()
        with pytest.raises(RemoteUnavailableError):
            provider.embed(["Slow"])
        assert time.perf_counter() - start < 5.0
        assert len(script.requests) == provider.max_attempts

    @pytest.mark.parametrize("key", ["index", "embedding"])
    def test_row_missing_a_key_is_unavailable(self, endpoint, key):
        url, script = endpoint
        script.drop_key = key
        with pytest.raises(RemoteUnavailableError, match=key):
            remote_provider(url).embed(["A", "B"])

    def test_bearer_token_from_environment(self, endpoint, monkeypatch):
        url, script = endpoint
        monkeypatch.setenv("EMBED_TOKEN", "sekret")
        remote_provider(url, auth_env="EMBED_TOKEN").embed(["X"])
        assert script.requests[0]["authorization"] == "Bearer sekret"
        script.requests.clear()
        remote_provider(url).embed(["X"])
        assert script.requests[0]["authorization"] is None

    def test_wrong_dimension_rejected(self, endpoint):
        url, script = endpoint
        provider = remote_provider(url, dimension=16)
        with pytest.raises(DimensionMismatchError):
            provider.embed(["X"])

    def test_finished_batches_stay_cached_when_a_later_one_fails(self, endpoint, tmp_path):
        url, script = endpoint
        texts = [f"t{i}" for i in range(130)]
        script.reply = lambda batch: (
            json.dumps({"data": answer(batch, 8)}).encode("utf-8") if len(batch) == 128 else b"{"
        )
        with pytest.raises(RemoteUnavailableError):
            remote_provider(url, cache_dir=str(tmp_path)).embed(texts)
        assert len(valid_records(store_path(tmp_path))) == 128
        script.reply = None
        remote_provider(url, cache_dir=str(tmp_path)).embed(texts)
        assert [len(req["body"]["input"]) for req in script.requests] == [128, 2, 2]


def _with_row(edit):
    """A reply whose second row is passed through `edit` first."""

    def reply(texts):
        data = answer(texts, 8)
        data[1] = edit(data[1])
        return json.dumps({"data": data}).encode("utf-8")

    return reply


class TestMalformedResponses:
    """Each malformed answer is a RemoteUnavailableError, not an IndexError,
    a NumPy conversion error, or vectors on the wrong texts."""

    @pytest.mark.parametrize(
        "reply",
        [
            _with_row(lambda row: {**row, "embedding": None}),
            _with_row(lambda row: {**row, "embedding": 3.5}),
            _with_row(lambda row: {**row, "embedding": ["x"] * 8}),
            _with_row(lambda row: {**row, "embedding": "abc"}),
            _with_row(lambda row: {**row, "embedding": [True] * 8}),
            _with_row(lambda row: {**row, "embedding": ["1.5"] * 8}),
            _with_row(lambda row: {**row, "index": 0}),
            _with_row(lambda row: {**row, "index": 7}),
            _with_row(lambda row: {**row, "index": 1.0}),
            _with_row(lambda row: {**row, "index": True}),
            _with_row(lambda row: {**row, "embedding": [1.0] * 7 + [None]}),
            lambda texts: json.dumps({"data": [{"index": i + 7, "embedding": [1.0] * 8}
                                               for i in range(len(texts))]}).encode(),
            lambda texts: json.dumps({"data": [{"index": 0, "embedding": None}] * len(texts)}).encode(),
            lambda texts: json.dumps({"data": [{"index": i, "embedding": 1} for i in range(len(texts))]}).encode(),
            lambda texts: json.dumps({"data": answer(texts, 8)[:1]}).encode(),
            lambda texts: json.dumps({"data": {"0": 1}}).encode(),
            lambda texts: json.dumps([1, 2]).encode(),
            lambda texts: b"not json",
            lambda texts: b"[" * 3000,
        ],
        ids=[
            "null-embedding", "scalar-embedding", "string-components", "string-embedding",
            "bool-components", "numeric-string-components",
            "duplicate-index", "index-out-of-range", "float-index", "bool-index",
            "null-component", "indices-7-and-up", "all-null", "all-scalar", "one-row-short",
            "data-object", "list-root", "not-json", "nested-too-deeply",
        ],
    )
    def test_malformed_answer_is_remote_unavailable(self, endpoint, reply):
        url, script = endpoint
        script.reply = reply
        with pytest.raises(RemoteUnavailableError):
            remote_provider(url).embed(["A", "B"])
        assert len(script.requests) == 1  # an answer that arrived is not retried

    def test_uniformly_wrong_width_is_a_dimension_mismatch(self, endpoint):
        url, script = endpoint
        script.reply = lambda texts: json.dumps({"data": answer(texts, 5)}).encode()
        with pytest.raises(DimensionMismatchError, match="dimension 5, expected 8"):
            remote_provider(url).embed(["A", "B"])

    def test_train_with_a_malformed_endpoint_exits_2_in_one_line(self, endpoint, tmp_path, caplog):
        url, script = endpoint
        script.reply = _with_row(lambda row: {**row, "embedding": None})
        config = {
            "out_dir": str(tmp_path / "out"),
            "corpus_dir": str(tmp_path / "corpus"),
            "gen": {"projects": 2, "commits_per_project": 4},
            "provider": {"kind": "remote", "dimension": 8,
                         "remote": {"endpoint": url, "model": "test-model"}},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "gen"]) == EXIT_OK
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        caplog.clear()
        assert main(["--config", str(path), "train"]) == EXIT_RUNTIME
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "malformed endpoint response" in errors[0]


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    _containers,
    max_leaves=5,
)
# what may stand for one embedding component without being a number
not_a_number = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats().map(str),
    st.lists(json_values, max_size=2),
    st.dictionaries(st.text(max_size=3), json_values, max_size=2),
)


@st.composite
def malformed_replies(draw, texts: list[str]):
    """A response body for `texts` that breaks the wire format in one place."""
    data = answer(texts, 8)
    row = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(
        ["bytes", "root", "data", "count", "row", "key", "index", "embedding", "width", "component"]
    ))
    if kind == "bytes":
        return draw(st.sampled_from([b"", b"{", b"[1,", b"\xff\xfe", b"{'data': []}", b"[" * 3000]))
    if kind == "root":
        payload = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    elif kind == "data":
        payload = {"data": draw(json_values.filter(lambda v: not isinstance(v, list)))}
    else:
        if kind == "count":
            data = data[:row] + data[row + 1:] if draw(st.booleans()) else data + [data[row]]
        elif kind == "row":
            data[row] = draw(json_values.filter(lambda v: not isinstance(v, dict)))
        elif kind == "key":
            del data[row][draw(st.sampled_from(["index", "embedding"]))]
        elif kind == "index":
            data[row]["index"] = draw(json_values.filter(lambda v: not (type(v) is int and v == row)))
        elif kind == "embedding":
            data[row]["embedding"] = draw(json_values.filter(lambda v: not isinstance(v, list)))
        elif kind == "width":
            data[row]["embedding"] = draw(st.lists(st.floats(-9, 9), max_size=10).filter(lambda v: len(v) != 8))
        else:
            data[row]["embedding"][draw(st.integers(0, 7))] = draw(not_a_number)
        payload = {"data": data}
    return json.dumps(payload).encode("utf-8")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_malformed_response_raises_a_typed_error(shared_endpoint, data):
    """Whatever breaks in a response, `embed` raises a FocusRankError and
    nothing else, after one POST: an answer that arrived is not retried."""
    url, script = shared_endpoint
    texts = ["A", "B", "C"]
    body = data.draw(malformed_replies(texts))
    script.reply = lambda _: body
    posts = len(script.requests)
    with pytest.raises(FocusRankError):
        remote_provider(url).embed(texts)
    assert len(script.requests) == posts + 1


class TestProviderConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigInvalidError):
            ProviderConfig(kind="psychic").validate()

    def test_remote_requires_endpoint_settings(self):
        with pytest.raises(ConfigInvalidError):
            ProviderConfig(kind="remote").validate()

    def test_make_provider_picks_hashed(self):
        provider = make_provider(ProviderConfig(kind="hashed", dimension=32))
        assert isinstance(provider, HashedProvider)
        assert provider.fingerprint == "hashed:d=32"

    def test_remote_fingerprint_names_model(self):
        config = ProviderConfig(
            kind="remote",
            dimension=8,
            remote=RemoteConfig(endpoint="http://localhost:1/x", model="m1"),
        )
        provider = RemoteProvider(config)
        assert provider.fingerprint == "remote:m1:d=8"
