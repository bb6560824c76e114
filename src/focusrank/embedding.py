"""Node-label embeddings: a deterministic hashed provider and a remote client.

The hashed provider tokenizes a label on non-alphanumeric boundaries and
camel-case transitions, hashes each lowercased token into one of d buckets
with 64-bit FNV-1a, accumulates counts, and L2-normalizes. It is fully
offline and stable across processes, so token overlap between labels yields
positive cosine similarity without any external service.

The remote provider speaks the common embeddings-API shape over HTTP POST,
keeps its answers in an on-disk cache when `cache_dir` is set, and exists
for swapping in a hosted model; nothing in the package requires it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalidError, DimensionMismatchError, RemoteUnavailableError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric runs and camel-case."""
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a; portable and stable across runs and platforms."""
    return int(fnv1a_64_all([data])[0])


def fnv1a_64_all(items: Sequence[bytes]) -> np.ndarray:
    """`fnv1a_64` of every byte string, as uint64: one vectorized FNV step
    per byte position, applied to the strings that are that long."""
    lengths = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    live = np.arange(lengths.max(initial=0)) < lengths[:, None]
    data = np.zeros(live.shape, dtype=np.uint64)
    data[live] = np.frombuffer(b"".join(items), dtype=np.uint8)
    value = np.full(len(items), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for byte, alive in zip(data.T, live.T):
        value = np.where(alive, (value ^ byte) * prime, value)  # uint64 wraps mod 2**64
    return value


@dataclass
class RemoteConfig:
    endpoint: str
    model: str
    auth_env: str = ""


@dataclass
class ProviderConfig:
    kind: str = "hashed"  # "hashed" | "remote"
    dimension: int = 256
    remote: Optional[RemoteConfig] = None
    cache_dir: Optional[str] = None  # the remote provider's cache; hashing needs none

    def validate(self) -> None:
        if self.kind not in ("hashed", "remote"):
            raise ConfigInvalidError(f"unknown provider kind {self.kind!r}")
        if self.dimension < 8:
            raise ConfigInvalidError("embedding dimension must be >= 8")
        if self.kind == "remote" and self.remote is None:
            raise ConfigInvalidError("remote provider needs endpoint settings")


class _EmbeddingCache:
    """One JSON file per (provider fingerprint, text) key; writes are atomic
    and idempotent, so concurrent last-writer-wins is safe."""

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, fingerprint: str, text: str) -> Path:
        text_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        key = hashlib.sha256(f"{fingerprint}\x00{text_sha}".encode("utf-8")).hexdigest()
        return self.dir / f"{key}.json"

    def get(self, fingerprint: str, text: str, dimension: int) -> Optional[np.ndarray]:
        """The cached vector, or None when the entry is missing, unreadable,
        or not `dimension` finite numbers."""
        try:
            with open(self._path(fingerprint, text), "r", encoding="utf-8") as fh:
                vector = np.asarray(json.load(fh)["vector"], dtype=np.float64)
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            return None
        return vector if vector.shape == (dimension,) and np.isfinite(vector).all() else None

    def put(self, fingerprint: str, text: str, vector: np.ndarray) -> None:
        path = self._path(fingerprint, text)
        record = {
            "fingerprint": fingerprint,
            "text_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "vector": [float(x) for x in vector],
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)


class HashedProvider:
    """Deterministic bag-of-tokens embedding over FNV-1a bucket hashing."""

    kind = "hashed"
    max_batch = 128

    def __init__(self, dimension: int = 256):
        if dimension < 8:
            raise ConfigInvalidError("embedding dimension must be >= 8")
        self.dimension = dimension
        self.fingerprint = f"hashed:d={dimension}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One float64 row per text: shape (len(texts), dimension). Each row
        counts its label's tokens per bucket and is scaled to unit norm; the
        counts are exact, so summation order does not change a bit of the
        result. Texts are hashed in blocks of `max_batch`, which bounds the
        memory a block's token matrix takes."""
        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        for start in range(0, len(texts), self.max_batch):
            tokens = [tokenize(text) for text in texts[start : start + self.max_batch]]
            rows = np.repeat(np.arange(len(tokens)), [len(toks) for toks in tokens])
            hashes = fnv1a_64_all([tok.encode("utf-8") for toks in tokens for tok in toks])
            cells = rows * self.dimension + (hashes % np.uint64(self.dimension)).astype(np.intp)
            block = np.bincount(cells, minlength=len(tokens) * self.dimension).astype(np.float64)
            block = block.reshape(len(tokens), self.dimension)
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            empty = norms[:, 0] == 0.0
            if empty.any():
                logger.warning("embedding %d empty label(s) -> zero vectors", int(empty.sum()))
            norms[empty] = 1.0
            block /= norms
            out[start : start + len(tokens)] = block
        return out


class RemoteProvider:
    """Client for a hosted embeddings endpoint.

    POSTs {"model": name, "input": [texts]} and reads
    {"data": [{"index": i, "embedding": [...]}]}, whose indices must be
    0..n-1, one each. Requests are batched and retried with exponential
    backoff, except on 4xx answers and bodies that are not JSON, which a
    retry cannot fix; each attempt waits at most `timeout_seconds` for the
    endpoint. The bearer token comes from the environment variable named in
    the config.
    """

    kind = "remote"
    max_batch = 128
    max_attempts = 3
    timeout_seconds = 30.0

    def __init__(self, config: ProviderConfig, retry_base_seconds: float = 0.5):
        config.validate()
        if config.kind != "remote":
            raise ConfigInvalidError("RemoteProvider needs kind='remote'")
        self.dimension = config.dimension
        self.remote = config.remote
        self.fingerprint = f"remote:{config.remote.model}:d={config.dimension}"
        self.retry_base_seconds = retry_base_seconds
        self._cache = _EmbeddingCache(config.cache_dir) if config.cache_dir else None

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One float64 row per text: shape (len(texts), dimension). Cached
        rows are read first; a cache entry that is unreadable or has the
        wrong shape counts as a miss, so it is fetched and rewritten. The
        misses are requested in blocks of `max_batch` texts, each block
        cached as soon as it arrives."""
        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        missing = []
        for i, text in enumerate(texts):
            cached = self._cache.get(self.fingerprint, text, self.dimension) if self._cache else None
            if cached is None:
                missing.append(i)
            else:
                out[i] = cached
        for start in range(0, len(missing), self.max_batch):
            chunk = missing[start : start + self.max_batch]
            out[chunk] = self._post([texts[i] for i in chunk])
            if self._cache:
                for i in chunk:
                    self._cache.put(self.fingerprint, texts[i], out[i])
        return out

    def _post(self, texts: list[str]) -> np.ndarray:
        """The (len(texts), dimension) rows the endpoint returns for one
        request, after retries, once the answer is validated."""
        body = json.dumps({"model": self.remote.model, "input": texts}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.remote.auth_env, "") if self.remote.auth_env else ""
        if token:
            headers["Authorization"] = f"Bearer {token}"

        raw: bytes | None = None
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_base_seconds * 2 ** (attempt - 1))
            request = urllib.request.Request(self.remote.endpoint, data=body, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_seconds) as response:
                    raw = response.read()
                break
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500:
                    raise RemoteUnavailableError(f"endpoint refused the request: {exc}") from exc
                last_error = exc
            except (OSError, http.client.HTTPException) as exc:  # URLError and timeouts are OSErrors
                last_error = exc
            logger.warning("embedding request failed (attempt %d): %s", attempt + 1, last_error)
        if raw is None:
            raise RemoteUnavailableError(str(last_error))
        try:  # an answer that arrived is not retried: it would come back the same
            rows = json.loads(raw.decode("utf-8"))["data"]
            index = [row["index"] for row in rows]
            embeddings = [row["embedding"] for row in rows]
            # NumPy would read JSON true/false and numeric strings as numbers
            if not {type(x) for embedding in embeddings for x in embedding} <= {int, float}:
                raise TypeError("embedding components must be JSON numbers")
            vectors = np.asarray(embeddings, dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RemoteUnavailableError(f"malformed endpoint response ({exc!r})") from exc
        n = len(texts)
        if any(type(i) is not int for i in index) or sorted(index) != list(range(n)):
            raise RemoteUnavailableError(
                f"endpoint returned {len(index)} rows for {n} inputs, not indexed 0..{n - 1} once each"
            )
        if vectors.ndim == 2 and vectors.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"endpoint returned dimension {vectors.shape[1]}, expected {self.dimension}"
            )
        if vectors.shape != (n, self.dimension) or not np.isfinite(vectors).all():
            raise RemoteUnavailableError(
                f"malformed endpoint response: embeddings are not {n} rows of "
                f"{self.dimension} finite numbers"
            )
        return vectors[np.argsort(index)]


def make_provider(config: ProviderConfig, retry_base_seconds: float = 0.5):
    config.validate()
    if config.kind == "hashed":
        return HashedProvider(config.dimension)
    return RemoteProvider(config, retry_base_seconds=retry_base_seconds)
