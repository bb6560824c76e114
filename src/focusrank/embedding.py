"""Node-label embeddings: a deterministic hashed provider and a remote client.

The hashed provider tokenizes a label on non-alphanumeric boundaries and
camel-case transitions, hashes each lowercased token into one of d buckets
with 64-bit FNV-1a, accumulates counts, and L2-normalizes. It is fully
offline and stable across processes, so token overlap between labels yields
positive cosine similarity without any external service.

The remote provider speaks the common embeddings-API shape over HTTP POST
and exists for swapping in a hosted model; nothing in the package requires
it.
"""

from __future__ import annotations

import hashlib
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

from .errors import ConfigInvalidError, DimensionMismatchError, RemoteUnavailableError, ZeroVectorError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric runs and camel-case."""
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a; portable and stable across runs and platforms."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; rejects zero vectors and dimension mismatches."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine undefined for zero vectors")
    return float(np.dot(a, b) / (norm_a * norm_b))


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
    cache_dir: Optional[str] = None

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

    def get(self, fingerprint: str, text: str) -> Optional[np.ndarray]:
        path = self._path(fingerprint, text)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            return np.asarray(record["vector"], dtype=np.float64)
        except (OSError, ValueError, KeyError):
            return None

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

    def __init__(self, dimension: int = 256, cache_dir: Optional[str] = None):
        if dimension < 8:
            raise ConfigInvalidError("embedding dimension must be >= 8")
        self.dimension = dimension
        self._cache = _EmbeddingCache(cache_dir) if cache_dir else None

    @property
    def fingerprint(self) -> str:
        return f"hashed:d={self.dimension}"

    def _embed_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        tokens = tokenize(text)
        if not tokens:
            logger.warning("embedding empty label -> zero vector")
            return vec
        for token in tokens:
            vec[fnv1a_64(token.encode("utf-8")) % self.dimension] += 1.0
        return vec / np.linalg.norm(vec)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            cached = self._cache.get(self.fingerprint, text) if self._cache else None
            if cached is not None:
                if cached.shape != (self.dimension,):
                    raise DimensionMismatchError("cached vector has wrong dimension")
                out.append(cached)
                continue
            vec = self._embed_one(text)
            if self._cache:
                self._cache.put(self.fingerprint, text, vec)
            out.append(vec)
        return out


class RemoteProvider:
    """Client for a hosted embeddings endpoint.

    POSTs {"model": name, "input": [texts]} and reads
    {"data": [{"index": i, "embedding": [...]}]}. Requests are batched and
    retried with exponential backoff, except on 4xx answers, which a retry
    cannot fix; each attempt waits at most `timeout_seconds` for the
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
        self.retry_base_seconds = retry_base_seconds
        self._cache = _EmbeddingCache(config.cache_dir) if config.cache_dir else None

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.remote.model}:d={self.dimension}"

    def _post_batch(self, texts: list[str]) -> list[np.ndarray]:
        body = json.dumps({"model": self.remote.model, "input": texts}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.remote.auth_env, "") if self.remote.auth_env else ""
        if token:
            headers["Authorization"] = f"Bearer {token}"

        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_base_seconds * 2 ** (attempt - 1))
            request = urllib.request.Request(self.remote.endpoint, data=body, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_seconds) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                break
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500:
                    raise RemoteUnavailableError(f"endpoint refused the request: {exc}") from exc
                last_error = exc
            except (OSError, ValueError) as exc:  # URLError and timeouts are OSErrors
                last_error = exc
            logger.warning("embedding request failed (attempt %d): %s", attempt + 1, last_error)
        else:
            raise RemoteUnavailableError(str(last_error))

        try:
            rows = sorted(payload["data"], key=lambda item: item["index"])
            embeddings = [row["embedding"] for row in rows]
        except (KeyError, TypeError) as exc:
            raise RemoteUnavailableError(f"malformed endpoint response ({exc!r})") from exc
        if len(rows) != len(texts):
            raise RemoteUnavailableError(
                f"endpoint returned {len(rows)} vectors for {len(texts)} inputs"
            )
        vectors = []
        for embedding in embeddings:
            vec = np.asarray(embedding, dtype=np.float64)
            if vec.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"endpoint returned dimension {vec.shape[0]}, expected {self.dimension}"
                )
            vectors.append(vec)
        return vectors

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out: list[Optional[np.ndarray]] = [None] * len(texts)
        missing: list[int] = []
        for i, text in enumerate(texts):
            cached = self._cache.get(self.fingerprint, text) if self._cache else None
            if cached is not None:
                out[i] = cached
            else:
                missing.append(i)

        for start in range(0, len(missing), self.max_batch):
            chunk = missing[start : start + self.max_batch]
            vectors = self._post_batch([texts[i] for i in chunk])
            for i, vec in zip(chunk, vectors):
                out[i] = vec
                if self._cache:
                    self._cache.put(self.fingerprint, texts[i], vec)
        return [vec for vec in out]  # type: ignore[return-value]


def make_provider(config: ProviderConfig, retry_base_seconds: float = 0.5):
    config.validate()
    if config.kind == "hashed":
        return HashedProvider(config.dimension, cache_dir=config.cache_dir)
    return RemoteProvider(config, retry_base_seconds=retry_base_seconds)
