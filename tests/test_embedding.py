"""Label tokenization, hashed embeddings, caching, and the remote client."""

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.embedding import (
    HashedProvider,
    ProviderConfig,
    RemoteConfig,
    RemoteProvider,
    cosine,
    fnv1a_64,
    make_provider,
    tokenize,
)
from focusrank.errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    RemoteUnavailableError,
    ZeroVectorError,
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


class TestCosine:
    def test_self_similarity_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_is_minus_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert cosine(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            1.0 / math.sqrt(2.0)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.ones(3), np.ones(4))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert cosine(3.7 * a, b) == pytest.approx(cosine(a, 0.25 * b), abs=1e-12)


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
        assert cosine(a, b) > 0

    def test_empty_label_yields_zero_vector_and_warns(self, caplog):
        provider = HashedProvider(dimension=16)
        with caplog.at_level(logging.WARNING, logger="focusrank.embedding"):
            (vec,) = provider.embed([""])
        assert np.array_equal(vec, np.zeros(16))
        assert any("empty" in record.message for record in caplog.records)

    def test_matches_oracle_on_varied_labels(self):
        provider = HashedProvider(dimension=24)
        labels = ["AuthToken", "token_store", "HTTP2Session", "a b c", "Zzz"]
        for label, vec in zip(labels, provider.embed(labels)):
            np.testing.assert_allclose(vec, oracle_hashed(label, 24), atol=1e-12)

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


class TestCache:
    def test_cold_then_warm_reads_are_bit_identical(self, tmp_path):
        cold = HashedProvider(dimension=32, cache_dir=str(tmp_path))
        first = cold.embed(["CacheKey", "Other"])
        assert list(tmp_path.glob("*.json"))
        warm = HashedProvider(dimension=32, cache_dir=str(tmp_path))
        second = warm.embed(["CacheKey", "Other"])
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_fingerprint_keys_cache_entries(self, tmp_path):
        HashedProvider(dimension=32, cache_dir=str(tmp_path)).embed(["X"])
        HashedProvider(dimension=64, cache_dir=str(tmp_path)).embed(["X"])
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_corrupt_entry_recomputed(self, tmp_path):
        provider = HashedProvider(dimension=16, cache_dir=str(tmp_path))
        (expected,) = provider.embed(["Node"])
        (path,) = tmp_path.glob("*.json")
        path.write_text("{ not json")
        (again,) = provider.embed(["Node"])
        assert np.array_equal(again, expected)


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
        data = [
            {"index": i, "embedding": fake_vector(text, self.script.dimension)}
            for i, text in enumerate(body["input"])
        ]
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


@pytest.fixture
def endpoint():
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

    def test_cache_short_circuits_http(self, endpoint, tmp_path):
        url, script = endpoint
        first = remote_provider(url, cache_dir=str(tmp_path)).embed(["Hit", "Miss"])
        assert len(script.requests) == 1
        second = remote_provider(url, cache_dir=str(tmp_path)).embed(["Hit", "Miss"])
        assert len(script.requests) == 1
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


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
