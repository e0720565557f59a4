"""Persistent content-addressed artifact store for compiled programs.

The in-process compile cache (:func:`repro.evaluation.runner.compile_workload`
keyed by module fingerprint x compile options x profile) dies with every
process, so campaign and CLI workloads recompile the same programs
forever.  This module promotes it to disk:

* :class:`ArtifactStore` — a content-addressed object store.  The key
  is a JSON-able dict (module fingerprint + the
  :func:`~repro.compiler.pipeline.options_signature` projection of the
  compile options + the frozen profile counts); its canonical JSON
  hashes to the entry id.  Entries are single files written atomically
  (temp file + ``os.replace``), self-verifying (a header records the
  SHA-256 of the pickled payload, re-checked on every read — a
  truncated or bit-flipped entry is deleted and reads as a miss, never
  as a wrong program), and evicted least-recently-used against a byte
  cap.
* :class:`CompileCache` — the tier the evaluation paths consume: an
  in-memory dict in front of an optional :class:`ArtifactStore`.  It
  speaks the same ``get(key)`` / ``cache[key] = value`` protocol as the
  plain dicts :func:`~repro.evaluation.runner.compile_workload` also
  accepts, so every caller (serial evaluation, ``supervised_map`` workers,
  the serve worker pool) reads through the store by construction.

Concurrent writers are safe by design: two processes racing on one key
both write a temp file and ``os.replace`` it into place — the loser's
bytes atomically overwrite the winner's *identical* bytes (compiles are
deterministic), and readers always see one complete entry or none.

See ``docs/serving.md`` for the on-disk layout and the key anatomy.
"""

import hashlib
import json
import os
import pickle
import tempfile

from repro.obs.core import NULL_RECORDER

#: bump when the entry format or pickled object layout changes — old
#: entries then miss instead of unpickling garbage (2: BasicBlock grew
#: __slots__, changing the pickled state shape of compiled programs;
#: 3: Operation holds its unit, is_memory and is_terminator in slots,
#: which an older entry's operations lack)
FORMAT_VERSION = 3

#: default byte cap for a store (512 MiB — thousands of compiled
#: programs at the ~5 KiB each the registry workloads pickle to)
DEFAULT_MAX_BYTES = 512 * 1024 * 1024


def canonical_key(key):
    """Canonical JSON text of a key dict (stable across processes and
    runs: sorted keys, no whitespace variance)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"), default=repr)


def compile_key(fingerprint, options_sig, profile_key=None):
    """The artifact-store key for one compile.

    ``fingerprint`` is the :func:`~repro.evaluation.runner.module_fingerprint`
    content hash, ``options_sig`` the
    :func:`~repro.compiler.pipeline.options_signature` pairs (strategy,
    cut heuristic, optional passes), ``profile_key`` the
    frozen profile counts a ``Pr`` compile consumed (None otherwise).
    ``format`` pins :data:`FORMAT_VERSION` so layout changes invalidate
    old entries wholesale.
    """
    return {
        "format": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "options": [list(pair) for pair in options_sig],
        "profile": (
            None if profile_key is None else [list(p) for p in profile_key]
        ),
    }


def _pickle_stripped(value):
    """Pickle *value*, temporarily detaching the program-level codegen
    cache (:attr:`program._codegen_cache` holds compiled code objects —
    unpicklable, and worthless in another process anyway)."""
    program = getattr(value, "program", None)
    state = getattr(program, "__dict__", None)
    stripped = None
    if state is not None and "_codegen_cache" in state:
        stripped = state.pop("_codegen_cache")
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        if stripped is not None:
            state["_codegen_cache"] = stripped


class ArtifactStore:
    """Content-addressed, size-capped, corruption-detecting object store.

    Layout under *root*::

        objects/<id[:2]>/<id>        one file per entry:
                                     JSON header line + pickled payload

    The header records the key and the SHA-256 of the payload bytes;
    :meth:`get` re-hashes on every read and deletes anything that does
    not verify (torn write, bit rot, truncation) so corruption degrades
    to a recompile, never to a wrong artifact.  Reads touch the entry's
    mtime, which is the LRU clock :meth:`evict` orders by.

    Hit/miss/corruption/eviction tallies land on ``observe`` (counters
    ``store.hit`` / ``store.miss`` / ``store.corrupt`` /
    ``store.evicted``) and on the same-named attributes.
    """

    def __init__(self, root, max_bytes=DEFAULT_MAX_BYTES,
                 observe=NULL_RECORDER):
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.observe = observe
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evicted = 0
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)

    # -- addressing ----------------------------------------------------
    @staticmethod
    def entry_id(key):
        """SHA-256 of the canonical key JSON: the content address."""
        return hashlib.sha256(canonical_key(key).encode()).hexdigest()

    def path_for(self, key):
        """Absolute path of the entry file *key* addresses."""
        entry = self.entry_id(key)
        return os.path.join(self.root, "objects", entry[:2], entry)

    # -- read ----------------------------------------------------------
    @staticmethod
    def _read_verified(path):
        """Read and fully verify one entry file: header format pin,
        SHA-256 of the payload against the recorded digest, and a clean
        unpickle.  Returns the stored value; raises on any defect.
        ``OSError`` means the entry does not exist (a plain miss);
        anything else means corruption.  Shared by :meth:`get` (lazy,
        per-read) and :meth:`scrub` (eager, whole-store walk)."""
        with open(path, "rb") as handle:
            header_line = handle.readline()
            payload = handle.read()
        header = json.loads(header_line)
        if header.get("format") != FORMAT_VERSION:
            raise ValueError("format mismatch")
        if hashlib.sha256(payload).hexdigest() != header.get("digest"):
            raise ValueError("payload digest mismatch")
        return pickle.loads(payload)

    def get(self, key):
        """The stored object for *key*, or None on miss/corruption.

        Every read re-verifies the payload digest recorded in the
        header; an entry that fails (truncated pickle, flipped bit,
        foreign format) is deleted and counted under ``store.corrupt``
        — the caller recompiles, exactly as on a plain miss.
        """
        path = self.path_for(key)
        try:
            value = self._read_verified(path)
        except OSError:
            self.misses += 1
            self.observe.counter("store.miss")
            return None
        except Exception:
            self._discard(path)
            self.corrupt += 1
            self.misses += 1
            self.observe.counter("store.corrupt")
            self.observe.counter("store.miss")
            return None
        try:
            os.utime(path, None)  # LRU clock
        except OSError:
            pass
        self.hits += 1
        self.observe.counter("store.hit")
        return value

    # -- write ---------------------------------------------------------
    def put(self, key, value):
        """Store *value* under *key* atomically, then enforce the cap.

        The entry is written to a temp file in the store root and
        ``os.replace``d into place, so concurrent writers (two worker
        processes racing on the same compile) can never interleave
        bytes and readers can never observe a half-written entry.
        Returns the entry path.
        """
        path = self.path_for(key)
        payload = _pickle_stripped(value)
        header = json.dumps(
            {
                "format": FORMAT_VERSION,
                "digest": hashlib.sha256(payload).hexdigest(),
                "size": len(payload),
                "key": key,
            },
            sort_keys=True,
        ).encode()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".tmp-", dir=self.root
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(header + b"\n" + payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            self._discard(temp_path)
            raise
        self.observe.counter("store.put")
        self.evict()
        return path

    # -- maintenance ---------------------------------------------------
    def entries(self):
        """Every entry as ``(path, size_bytes, mtime)``, LRU first."""
        found = []
        objects = os.path.join(self.root, "objects")
        for directory, _subdirs, names in os.walk(objects):
            for name in names:
                path = os.path.join(directory, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # evicted/replaced under our feet
                found.append((path, stat.st_size, stat.st_mtime))
        found.sort(key=lambda item: item[2])
        return found

    def evict(self):
        """Delete least-recently-used entries until the store fits
        ``max_bytes``.  The most recently touched entry always
        survives, so a just-written artifact is immediately readable
        even under a cap smaller than one entry."""
        if self.max_bytes is None:
            return
        entries = self.entries()
        total = sum(size for _path, size, _mtime in entries)
        while total > self.max_bytes and len(entries) > 1:
            path, size, _mtime = entries.pop(0)
            self._discard(path)
            total -= size
            self.evicted += 1
            self.observe.counter("store.evicted")

    def scrub(self):
        """Eagerly verify every entry (``repro serve --scrub-cache``).

        Walks the whole store through the same
        :meth:`_read_verified` contract the lazy read path applies —
        header format, payload digest, unpickle — and deletes anything
        that fails, so corruption surfaces (and is purged) up front
        instead of at first read.  Returns ``{"checked": N, "corrupt":
        N, "purged_bytes": N}``; corrupt entries also land on the
        ``store.corrupt`` counter and tally.
        """
        checked = corrupt = purged = 0
        for path, size, _mtime in self.entries():
            checked += 1
            try:
                self._read_verified(path)
            except Exception:
                self._discard(path)
                corrupt += 1
                purged += size
                self.corrupt += 1
                self.observe.counter("store.corrupt")
        self.observe.counter("store.scrubbed", checked)
        return {"checked": checked, "corrupt": corrupt,
                "purged_bytes": purged}

    def clear(self):
        """Delete every entry (the store directory itself survives)."""
        for path, _size, _mtime in self.entries():
            self._discard(path)

    @staticmethod
    def _discard(path):
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self):
        """JSON-able snapshot of the tallies plus the on-disk footprint."""
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _path, size, _mtime in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
        }


class CompileCache:
    """In-memory compile cache tiered over an optional :class:`ArtifactStore`.

    Speaks the dict protocol :func:`repro.evaluation.runner.compile_workload`
    expects — ``get(key)`` and ``cache[key] = compiled`` with the key
    ``(fingerprint, options_signature, profile_key)`` — and persists
    under :func:`compile_key` of that same triple, so the memory tier
    and the store address a compile by one key shape.

    ``last_source`` records where the most recent lookup was satisfied:
    ``"memory"``, ``"store"``, or ``"compile"`` (a miss the caller is
    about to fill) — the serve path reports it per job.
    """

    def __init__(self, store=None, memory=None):
        self.memory = {} if memory is None else memory
        self.store = store
        self.last_source = None

    @staticmethod
    def persistent_key(key):
        """The canonical store key dict of a memory-tier key."""
        return compile_key(*key)

    def get(self, key):
        value = self.memory.get(key)
        if value is not None:
            self.last_source = "memory"
            return value
        if self.store is not None:
            value = self.store.get(self.persistent_key(key))
            if value is not None:
                self.memory[key] = value
                self.last_source = "store"
                return value
        self.last_source = "compile"
        return None

    def __setitem__(self, key, value):
        self.memory[key] = value
        if self.store is not None:
            self.store.put(self.persistent_key(key), value)

    def __contains__(self, key):
        return self.get(key) is not None

    def __len__(self):
        return len(self.memory)


#: cache_dir -> per-process CompileCache (worker side; one store handle
#: and one memory tier per directory per process)
_PROCESS_CACHES = {}


def process_compile_cache(cache_dir, memory=None, max_bytes=None):
    """The per-process :class:`CompileCache` for *cache_dir*.

    ``None`` returns a memory-only cache (per-process, no persistence —
    the pre-store behaviour).  Worker entry points call this instead of
    constructing stores directly so every task a process runs shares one
    memory tier and one store handle per directory.
    """
    cache = _PROCESS_CACHES.get(cache_dir)
    if cache is None:
        store = None
        if cache_dir is not None:
            store = ArtifactStore(
                cache_dir,
                max_bytes=DEFAULT_MAX_BYTES if max_bytes is None else max_bytes,
            )
        cache = CompileCache(store=store, memory=memory)
        _PROCESS_CACHES[cache_dir] = cache
    return cache
