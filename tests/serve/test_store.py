"""The artifact store must never serve a wrong program: corruption
degrades to a recompile, eviction respects the byte cap, concurrent
writers race safely, and the persistent key tracks every cache-relevant
compile option."""

import multiprocessing
import os

import pytest

from repro.compiler import CompileOptions, compile_module
from repro.compiler.pipeline import options_signature
from repro.evaluation.runner import (
    compile_workload,
    module_fingerprint,
    profile_counts,
)
from repro.ir.operations import Operation
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy
from repro.serve import store as store_module
from repro.serve.store import (
    FORMAT_VERSION,
    ArtifactStore,
    CompileCache,
    compile_key,
    process_compile_cache,
)
from repro.sim.simulator import Simulator
from repro.workloads.registry import get_workload

WORKLOAD = "fir_32_1"


def _compiled(name=WORKLOAD, strategy=Strategy.CB):
    return compile_module(get_workload(name).build(), strategy=strategy)


def _cached(workload, strategy, cache):
    """Compile *workload* under *strategy* through *cache*."""
    return compile_workload(workload, CompileOptions(strategy=strategy), cache)


def _key(suffix="a"):
    return {"test": suffix}


# ---------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------
def test_round_trip_preserves_simulation(tmp_path):
    store = ArtifactStore(tmp_path)
    compiled = _compiled()
    reference = Simulator(compiled.program).run()
    store.put(_key(), compiled)
    loaded = store.get(_key())
    assert loaded is not None
    assert Simulator(loaded.program).run().cycles == reference.cycles


def test_miss_returns_none_and_counts(tmp_path):
    recorder = Recorder()
    store = ArtifactStore(tmp_path, observe=recorder)
    assert store.get(_key()) is None
    assert store.misses == 1
    assert recorder.counters["store.miss"] == 1


def test_put_strips_codegen_cache_but_leaves_original_usable(tmp_path):
    store = ArtifactStore(tmp_path)
    compiled = _compiled()
    # populate the program-level codegen cache with something unpicklable
    compiled.program._codegen_cache = {"fast": lambda: None}
    store.put(_key(), compiled)
    # the original object still has its cache after the write
    assert "fast" in compiled.program._codegen_cache
    loaded = store.get(_key())
    assert not getattr(loaded.program, "_codegen_cache", {})


# ---------------------------------------------------------------------
# Corruption: truncation, bit flips, foreign formats
# ---------------------------------------------------------------------
def _corrupt(path, mutate):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(mutate(data))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: data[: len(data) // 2],          # truncated payload
        lambda data: data[:-20] + b"\x00" * 20,        # flipped tail bytes
        lambda data: b"not json\n" + data,             # mangled header
        lambda data: b"",                              # empty file
    ],
)
def test_corrupt_entry_reads_as_miss_and_is_deleted(tmp_path, mutate):
    store = ArtifactStore(tmp_path)
    path = store.put(_key(), _compiled())
    _corrupt(path, mutate)
    assert store.get(_key()) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)
    # and the caller's recompile repopulates it cleanly
    store.put(_key(), _compiled())
    assert store.get(_key()) is not None


def test_format_version_mismatch_reads_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put(_key(), _compiled())

    def bump_format(data):
        header, _, payload = data.partition(b"\n")
        current = ('"format": %d' % FORMAT_VERSION).encode()
        return header.replace(current, b'"format": 999') + b"\n" + payload

    _corrupt(path, bump_format)
    assert store.get(_key()) is None
    assert store.corrupt == 1


#: Operation slots added at format 3; an entry from format 2 lacks them
_FORMAT_3_OP_SLOTS = ("unit", "is_memory", "is_terminator")


def _format_2_state(op):
    """Pickled state of *op* in the format-2 layout."""
    return None, {
        name: getattr(op, name)
        for name in Operation.__slots__
        if name not in _FORMAT_3_OP_SLOTS
    }


def test_entry_from_the_previous_format_misses(tmp_path, monkeypatch):
    """An entry written at format 2 holds operations without the op-fact
    slots.  Read back it would fail on ``op.unit`` deep in a simulator,
    so the format bump must make it a plain miss instead."""
    assert FORMAT_VERSION == 3
    key_args = ("0" * 64, options_signature(CompileOptions(strategy=Strategy.CB)))
    store = ArtifactStore(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "FORMAT_VERSION", 2)
        patch.setattr(Operation, "__getstate__", _format_2_state, raising=False)
        store.put(compile_key(*key_args), _compiled())
        stale = store.get(compile_key(*key_args))
    op = stale.program.instructions[0].ops[0]
    with pytest.raises(AttributeError):
        op.unit
    assert store.get(compile_key(*key_args)) is None
    assert (store.misses, store.corrupt) == (1, 0)
    # the recompile then stores and reads back at the current format
    store.put(compile_key(*key_args), _compiled())
    fresh = store.get(compile_key(*key_args))
    assert fresh.program.instructions[0].ops[0].unit is op.info.unit


def test_corrupted_compile_cache_recompiles(tmp_path):
    """End to end: a corrupt store entry behind CompileCache degrades to
    a recompile with the identical cycle count."""
    workload = get_workload(WORKLOAD)
    cache = CompileCache(store=ArtifactStore(tmp_path))
    first = _cached(workload, Strategy.CB, cache)
    reference = Simulator(first.program).run().cycles
    path = cache.store.path_for(
        cache.persistent_key(next(iter(cache.memory)))
    )
    _corrupt(path, lambda data: data[: len(data) // 3])
    cold = CompileCache(store=ArtifactStore(tmp_path))  # fresh memory tier
    again = _cached(workload, Strategy.CB, cold)
    assert cold.last_source == "compile"
    assert cold.store.corrupt == 1
    assert Simulator(again.program).run().cycles == reference


# ---------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------
def test_eviction_respects_byte_cap_lru_order(tmp_path):
    store = ArtifactStore(tmp_path, max_bytes=1)  # smaller than any entry
    store.put(_key("first"), _compiled())
    assert store.get(_key("first")) is not None  # newest always survives
    store.put(_key("second"), _compiled())
    # the older entry went first; the new one is readable
    assert store.get(_key("first")) is None
    assert store.get(_key("second")) is not None
    assert store.evicted >= 1
    assert len(store.entries()) == 1


def test_eviction_keeps_recently_read_entries(tmp_path):
    compiled = _compiled()
    entry_bytes = os.path.getsize(
        ArtifactStore(tmp_path / "probe").put(_key(), compiled)
    )
    store = ArtifactStore(tmp_path / "real", max_bytes=int(entry_bytes * 2.5))
    store.put(_key("a"), compiled)
    store.put(_key("b"), compiled)
    os.utime(store.path_for(_key("a")), (0, 0))  # force "a" oldest
    store.put(_key("c"), compiled)  # cap forces one eviction
    assert store.get(_key("a")) is None
    assert store.get(_key("b")) is not None
    assert store.get(_key("c")) is not None


def test_uncapped_store_never_evicts(tmp_path):
    store = ArtifactStore(tmp_path, max_bytes=None)
    for index in range(4):
        store.put(_key(str(index)), _compiled())
    assert len(store.entries()) == 4
    assert store.evicted == 0


# ---------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------
def _race_writer(args):
    root, suffix = args
    store = ArtifactStore(root)
    compiled = compile_module(
        get_workload(WORKLOAD).build(), strategy=Strategy.CB
    )
    store.put({"race": "shared"}, compiled)
    return Simulator(store.get({"race": "shared"}).program).run().cycles


def test_concurrent_writers_one_key(tmp_path):
    """Multiple processes racing on one key: every read afterwards is a
    complete, correct entry (deterministic compiles make last-writer-wins
    indistinguishable from first-writer-wins)."""
    context = multiprocessing.get_context("spawn")
    with context.Pool(3) as pool:
        cycles = pool.map(
            _race_writer, [(str(tmp_path), str(i)) for i in range(3)]
        )
    assert len(set(cycles)) == 1
    store = ArtifactStore(tmp_path)
    assert store.get({"race": "shared"}) is not None
    leftovers = [
        name for name in os.listdir(store.root) if name.startswith(".tmp-")
    ]
    assert leftovers == []


# ---------------------------------------------------------------------
# Cache-key anatomy: CompileOptions drift must change the key
# ---------------------------------------------------------------------
def test_options_signature_covers_cache_relevant_fields():
    base = options_signature(CompileOptions())
    changed = [
        CompileOptions(strategy=Strategy.CB_DUP),
        CompileOptions(partitioner="exact"),
        CompileOptions(interrupt_safe=False),
        CompileOptions(software_pipelining=True),
        CompileOptions(optimize=True),
        CompileOptions(unroll_factor=4),
    ]
    signatures = [options_signature(options) for options in changed]
    assert all(signature != base for signature in signatures)
    assert len(set(signatures)) == len(signatures)


def test_compile_key_drifts_with_options_and_fingerprint():
    fingerprint = module_fingerprint(get_workload(WORKLOAD).build())
    base = ArtifactStore.entry_id(
        compile_key(fingerprint, options_signature(CompileOptions()))
    )
    for options in (
        CompileOptions(partitioner="exact"),
        CompileOptions(strategy=Strategy.IDEAL),
    ):
        drifted = ArtifactStore.entry_id(
            compile_key(fingerprint, options_signature(options))
        )
        assert drifted != base
    other = module_fingerprint(get_workload("iir_1_1").build())
    assert ArtifactStore.entry_id(
        compile_key(other, options_signature(CompileOptions()))
    ) != base


def test_profile_counts_key_the_entry():
    fingerprint = module_fingerprint(get_workload(WORKLOAD).build())
    signature = options_signature(CompileOptions(strategy=Strategy.CB_PROFILE))
    bare = ArtifactStore.entry_id(compile_key(fingerprint, signature))
    profiled = ArtifactStore.entry_id(
        compile_key(fingerprint, signature, profile_key=(("block0", 12),))
    )
    assert bare != profiled


#: store entry id of a fixed ``CB_PROFILE`` compile key at format 3.
#: The key shape is the one stores used before the memory tier keyed
#: compiles by their full options signature; a format bump changes the
#: id on purpose (old entries must miss), any other key refactor that
#: changes it would orphan every existing store
STABLE_PROFILE_ENTRY = (
    "c6488bca065d697c5237fe075250d8afc89a6f378aad0df2de549f4e50c781ea"
)


def test_persistent_key_shape_is_stable():
    assert FORMAT_VERSION == 3
    signature = options_signature(CompileOptions(strategy=Strategy.CB_PROFILE))
    memory_key = ("0" * 64, signature, (("b0", 3),))
    persistent = CompileCache.persistent_key(memory_key)
    assert persistent == compile_key(*memory_key)
    assert ArtifactStore.entry_id(persistent) == STABLE_PROFILE_ENTRY


@pytest.mark.parametrize("strategy", [Strategy.CB, Strategy.CB_PROFILE])
def test_compiles_land_under_the_strategy_only_key(tmp_path, strategy):
    """A default-options compile is stored under ``compile_key`` of the
    strategy-only options signature — the address every earlier store
    used — and a fresh process reads it back from there."""
    workload = get_workload(WORKLOAD)
    cache = CompileCache(store=ArtifactStore(tmp_path))
    _cached(workload, strategy, cache)
    profile_key = None
    if strategy is Strategy.CB_PROFILE:
        profile_key = tuple(sorted(profile_counts(workload).items()))
    legacy = compile_key(
        module_fingerprint(workload.build()),
        options_signature(CompileOptions(strategy=strategy)),
        profile_key,
    )
    assert os.path.exists(cache.store.path_for(legacy))
    cold = CompileCache(store=ArtifactStore(tmp_path))
    _cached(workload, strategy, cold)
    assert cold.last_source == "store"


# ---------------------------------------------------------------------
# CompileCache tiering
# ---------------------------------------------------------------------
def test_compile_cache_tiers_memory_store_compile(tmp_path):
    workload = get_workload(WORKLOAD)
    cache = CompileCache(store=ArtifactStore(tmp_path))
    _cached(workload, Strategy.CB, cache)
    assert cache.last_source == "compile"
    _cached(workload, Strategy.CB, cache)
    assert cache.last_source == "memory"
    # a fresh process (fresh memory tier) hits the store
    cold = CompileCache(store=ArtifactStore(tmp_path))
    hit = _cached(workload, Strategy.CB, cold)
    assert cold.last_source == "store"
    assert Simulator(hit.program).run().cycles > 0


def test_store_hit_is_bit_identical_to_recompile(tmp_path):
    workload = get_workload(WORKLOAD)
    warm = CompileCache(store=ArtifactStore(tmp_path))
    compiled = _cached(workload, Strategy.CB_DUP, warm)
    direct = compile_module(workload.build(), strategy=Strategy.CB_DUP)
    cold = CompileCache(store=ArtifactStore(tmp_path))
    restored = _cached(workload, Strategy.CB_DUP, cold)
    assert cold.last_source == "store"
    assert (
        Simulator(restored.program).state_digest()
        == Simulator(direct.program).state_digest()
        == Simulator(compiled.program).state_digest()
    )
    first = Simulator(restored.program)
    second = Simulator(direct.program)
    first.run(), second.run()
    assert first.state_digest() == second.state_digest()


def test_process_compile_cache_shares_per_directory(tmp_path):
    first = process_compile_cache(str(tmp_path))
    second = process_compile_cache(str(tmp_path))
    assert first is second
    assert process_compile_cache(None).store is None


# ---------------------------------------------------------------------
# Eager scrub (repro serve --scrub-cache)
# ---------------------------------------------------------------------
def test_scrub_purges_corrupt_entries_up_front(tmp_path):
    store = ArtifactStore(tmp_path)
    paths = {
        suffix: store.put(_key(suffix), _compiled())
        for suffix in ("a", "b", "c")
    }
    _corrupt(paths["b"], lambda data: data[: len(data) // 2])

    report = store.scrub()
    assert report["checked"] == 3
    assert report["corrupt"] == 1
    assert report["purged_bytes"] > 0
    assert not os.path.exists(paths["b"])
    # intact entries survive the scrub; the purged one reads as a miss
    assert store.get(_key("a")) is not None
    assert store.get(_key("c")) is not None
    assert store.get(_key("b")) is None
    # a second pass finds nothing left to purge
    assert store.scrub() == {"checked": 2, "corrupt": 0, "purged_bytes": 0}
