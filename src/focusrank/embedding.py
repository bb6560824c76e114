"""Node-label embeddings: a deterministic hashed provider and a remote client.

The hashed provider tokenizes a label on non-alphanumeric boundaries and
camel-case transitions, hashes each lowercased token into one of d buckets
with 64-bit FNV-1a, accumulates counts, and L2-normalizes. It is fully
offline and stable across processes, so token overlap between labels yields
positive cosine similarity without any external service.

The remote provider speaks the common embeddings-API shape over HTTP POST,
keeps its answers in an append-only on-disk store when `cache_dir` is set,
and exists for swapping in a hosted model; nothing in the package requires
it.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import time
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ProviderConfig, RemoteConfig  # noqa: F401  (callers also import them from here)
from .errors import ConfigInvalidError, RemoteUnavailableError, read_json

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric runs and camel-case."""
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


def fnv1a_64_all(items: Sequence[bytes]) -> np.ndarray:
    """64-bit FNV-1a of every byte string, as uint64, portable and stable
    across runs and platforms: one vectorized FNV step per byte position,
    applied to the strings that are that long."""
    lengths = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    live = np.arange(lengths.max(initial=0)) < lengths[:, None]
    data = np.zeros(live.shape, dtype=np.uint64)
    data[live] = np.frombuffer(b"".join(items), dtype=np.uint8)
    value = np.full(len(items), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for byte, alive in zip(data.T, live.T):
        value = np.where(alive, (value ^ byte) * prime, value)  # uint64 wraps mod 2**64
    return value


class _EmbeddingStore:
    """One append-only file of fixed-size records per provider fingerprint.

    A record is a 32-byte key (SHA-256 of the fingerprint's SHA-256 and the
    text), `dimension` little-endian float64 values, and a little-endian
    CRC-32 of the key and the values. The file is indexed once, then only
    the bytes appended since the last read are read, so records another
    process appends become visible. A torn, garbled or non-finite record is
    skipped, which makes its text a miss; the last valid record for a key
    wins. A block of records is one `write` under an exclusive `flock`;
    a torn tail (a writer that died mid-record) is first padded with zeros
    to a record boundary, so that record fails its CRC and the records
    after it stay aligned.
    """

    def __init__(self, cache_dir: str | Path, fingerprint: str, dimension: int):
        digest = hashlib.sha256(fingerprint.encode("utf-8")).digest()
        self.path = Path(cache_dir) / f"embeddings-{digest.hex()[:16]}.bin"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._prefix = digest
        self._body = 32 + 8 * dimension  # the bytes the CRC covers
        self._size = self._body + 4
        self._rows: dict[bytes, np.ndarray] = {}
        self._read = 0  # bytes of the file indexed, a whole number of records

    def _key(self, text: str) -> bytes:
        return hashlib.sha256(self._prefix + text.encode("utf-8")).digest()

    def lookup(self, texts: Sequence[str], out: np.ndarray) -> list[int]:
        """Copy each stored row into `out`; the positions of the misses."""
        self._refresh()
        missing = []
        for i, text in enumerate(texts):
            row = self._rows.get(self._key(text))
            if row is None:
                missing.append(i)
            else:
                out[i] = row
        return missing

    def _refresh(self) -> None:
        """Index the whole records appended since the last read."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)  # no half-written block from a live writer
            size = os.fstat(fd).st_size
            if size < self._read:  # the file shrank (cut or replaced): index it anew
                self._read = 0
            whole = (size - self._read) // self._size * self._size
            data = os.pread(fd, whole, self._read)
        finally:
            os.close(fd)
        count = len(data) // self._size
        self._read += count * self._size
        records = np.frombuffer(data, dtype=np.uint8, count=count * self._size)
        records = records.reshape(count, self._size)
        crcs = records[:, self._body :].copy().view("<u4")[:, 0].tolist()
        vectors = records[:, 32 : self._body].copy().view("<f8")
        finite = np.isfinite(vectors).all(axis=1).tolist()
        view = memoryview(data)
        offsets = range(0, count * self._size, self._size)
        for offset, crc, ok, row in zip(offsets, crcs, finite, vectors):
            if ok and zlib.crc32(view[offset : offset + self._body]) == crc:
                self._rows[data[offset : offset + 32]] = row

    def append(self, texts: Sequence[str], vectors: np.ndarray) -> None:
        """Append one record per (text, row) in a single write."""
        keys = [self._key(text) for text in texts]
        rows = np.array(vectors, dtype="<f8")
        bodies = [key + row.tobytes() for key, row in zip(keys, rows)]
        block = b"".join(body + zlib.crc32(body).to_bytes(4, "little") for body in bodies)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            written = os.write(fd, bytes(-size % self._size) + block)
        finally:
            os.close(fd)
        if size == self._read and written == len(block):
            # nothing was appended since the last read: index this block in place
            self._read += written
            self._rows.update(zip(keys, rows))


class HashedProvider:
    """Deterministic bag-of-tokens embedding over FNV-1a bucket hashing."""

    max_batch = 128

    def __init__(self, dimension: int = 256):
        if dimension < 8:
            raise ValueError("embedding dimension must be >= 8")
        self.dimension = dimension
        self.fingerprint = f"hashed:d={dimension}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One float64 row per text: shape (len(texts), dimension). Each row
        counts its label's tokens per bucket and is scaled to unit norm; the
        counts are exact, so summation order does not change a bit of the
        result. Texts are hashed in blocks of `max_batch`, which bounds the
        memory a block's token matrix takes; each block's counts go
        straight into the output, so no (n, dimension) temporary is made."""
        out = np.zeros((len(texts), self.dimension), dtype=np.float64)
        cells_of = out.reshape(-1)
        for start in range(0, len(texts), self.max_batch):
            tokens = [tokenize(text) for text in texts[start : start + self.max_batch]]
            rows = np.repeat(np.arange(start, start + len(tokens)), [len(toks) for toks in tokens])
            hashes = fnv1a_64_all([tok.encode("utf-8") for toks in tokens for tok in toks])
            cells = rows * self.dimension + (hashes % np.uint64(self.dimension)).astype(np.intp)
            np.add.at(cells_of, cells, 1.0)
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))  # exact: sums of squared counts
        empty = norms == 0.0
        if empty.any():
            logger.warning("embedding %d empty label(s) -> zero vectors", int(empty.sum()))
        norms[empty] = 1.0
        out /= norms[:, None]
        return out


class RemoteProvider:
    """Client for a hosted embeddings endpoint.

    POSTs {"model": name, "input": [texts]} and reads
    {"data": [{"index": i, "embedding": [...]}]}, whose indices must be
    0..n-1, one each. Requests are batched and retried with exponential
    backoff from `retry_base_seconds`, except on 4xx answers and bodies
    that are not JSON, which a retry cannot fix; each attempt waits at most
    `timeout_seconds` for the endpoint. The bearer token comes from the
    environment variable named in the config, and must be printable ASCII.
    """

    max_batch = 128
    max_attempts = 3
    timeout_seconds = 30.0
    retry_base_seconds = 0.5

    def __init__(self, config: ProviderConfig):
        self.dimension = config.dimension
        self.remote = config.remote
        self.fingerprint = f"remote:{config.remote.model}:d={config.dimension}"
        self._store = (
            _EmbeddingStore(config.cache_dir, self.fingerprint, self.dimension)
            if config.cache_dir
            else None
        )

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One float64 row per text: shape (len(texts), dimension). Stored
        rows are read first; a text without a valid record is a miss. Each
        distinct missing text is requested once, in blocks of `max_batch`
        texts, each block appended to the store as soon as it arrives; its
        row then fills every position that holds the text."""
        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        missing = self._store.lookup(texts, out) if self._store else list(range(len(texts)))
        if not missing:
            return out
        distinct: dict[str, int] = {}  # missing text -> its row in `fetched`
        slots = [distinct.setdefault(texts[i], len(distinct)) for i in missing]
        fetched = np.empty((len(distinct), self.dimension), dtype=np.float64)
        requested = list(distinct)
        for start in range(0, len(requested), self.max_batch):
            chunk = requested[start : start + self.max_batch]
            rows = fetched[start : start + len(chunk)]
            rows[...] = self._post(chunk)
            if self._store:
                self._store.append(chunk, rows)
        out[missing] = fetched[slots]
        return out

    def _post(self, texts: list[str]) -> np.ndarray:
        """The (len(texts), dimension) rows the endpoint returns for one
        request, after retries, once the answer is validated."""
        import http.client  # the HTTP stack loads on the first post, not with the package
        import urllib.error
        import urllib.request
        body = json.dumps({"model": self.remote.model, "input": texts}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.remote.auth_env, "") if self.remote.auth_env else ""
        if token:
            if not (token.isascii() and token.isprintable()):  # never echoed: it is a secret
                raise ConfigInvalidError(f"the bearer token in ${self.remote.auth_env} holds "
                                         "a character an HTTP header cannot carry")
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
                exc.close()  # the error holds the response and its socket
                if 400 <= exc.code < 500:
                    raise RemoteUnavailableError(f"endpoint refused the request: {exc}") from exc
                last_error = exc
            except (OSError, http.client.HTTPException) as exc:  # URLError and timeouts are OSErrors
                last_error = exc
            logger.warning("embedding request failed (attempt %d): %s", attempt + 1, last_error)
        if raw is None:
            raise RemoteUnavailableError(str(last_error))
        try:  # an answer that arrived is not retried: it would come back the same
            rows = read_json(raw, "malformed endpoint response", RemoteUnavailableError)["data"]
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
            raise RemoteUnavailableError(
                f"endpoint returned dimension {vectors.shape[1]}, expected {self.dimension}"
            )
        if vectors.shape != (n, self.dimension) or not np.isfinite(vectors).all():
            raise RemoteUnavailableError(
                f"malformed endpoint response: embeddings are not {n} rows of "
                f"{self.dimension} finite numbers"
            )
        return vectors[np.argsort(index)]


def make_provider(config: ProviderConfig):
    if config.kind == "hashed":
        return HashedProvider(config.dimension)
    return RemoteProvider(config)
