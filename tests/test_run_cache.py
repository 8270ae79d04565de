"""Tests for the content-addressed run cache and RunSpec canonicalization."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.experiments.expensive_requests import expensive_requests_config
from repro.parallel import RunCache, RunSpec, canonicalize, source_digest
from repro.workloads.synthetic import expensive_requests_population


def small_spec(seed=0, duration=1.0):
    config = expensive_requests_config(
        schedulers=("wfq",), num_threads=2, thread_rate=100.0,
        duration=duration, seed=seed,
    )
    specs = expensive_requests_population(num_small=3, total=4)
    return RunSpec(scheduler="wfq", specs=tuple(specs), config=config)


class TestCanonicalize:
    def test_primitives_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(3) == 3
        assert canonicalize(2.5) == 2.5
        assert canonicalize("x") == "x"

    def test_numpy_scalars_and_arrays(self):
        assert canonicalize(np.float64(1.5)) == 1.5
        assert canonicalize(np.array([1, 2])) == [1, 2]

    def test_dict_keys_sorted(self):
        assert canonicalize({"b": 1, "a": 2}) == {"a": 2, "b": 1}
        out = list(canonicalize({"b": 1, "a": 2}))
        assert out == ["a", "b"]

    def test_sequences_become_lists(self):
        assert canonicalize((1, 2)) == [1, 2]
        assert canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_dataclasses_tagged_with_kind(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        out = canonicalize(Point(1, 2))
        assert out["__kind__"] == "Point"
        assert out["x"] == 1 and out["y"] == 2

    def test_private_attributes_excluded(self):
        class Dist:
            def __init__(self):
                self.mean = 5.0
                self._hidden = object()  # not canonicalizable; must be skipped

        out = canonicalize(Dist())
        assert out == {"__kind__": "Dist", "mean": 5.0}

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonicalize(object())


class TestCacheKey:
    def test_key_is_stable(self):
        cache = RunCache("unused")
        assert cache.key_for(small_spec()) == cache.key_for(small_spec())

    def test_key_changes_with_spec(self):
        cache = RunCache("unused")
        assert cache.key_for(small_spec(seed=0)) != cache.key_for(
            small_spec(seed=1)
        )
        assert cache.key_for(small_spec(duration=1.0)) != cache.key_for(
            small_spec(duration=2.0)
        )

    def test_source_digest_is_cached_and_hex(self):
        digest = source_digest()
        assert digest == source_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("k" * 64, {"answer": 42})
        found, value = cache.lookup("k" * 64)
        assert found and value == {"answer": 42}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        found, value = cache.lookup("0" * 64)
        assert not found and value is None
        assert cache.misses == 1

    @pytest.mark.parametrize("damage", ["garbage", "flipped_float", "truncated"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, damage):
        result = {"p99": 0.123456789, "tenants": ["A", "B"]}
        cache = RunCache(tmp_path)
        cache.put("k" * 64, result)
        entry = next(tmp_path.glob("*.pkl"))
        data = bytearray(entry.read_bytes())
        if damage == "garbage":
            data = bytearray(b"not a pickle")
        elif damage == "flipped_float":
            # One bit inside the stored float: still a well-formed pickle,
            # so only the checksum can tell the value is wrong.
            at = data.index(struct.pack(">d", result["p99"]))
            data[at + 7] ^= 0x01
        else:
            del data[len(data) // 2:]
        entry.write_bytes(bytes(data))
        assert cache.lookup("k" * 64) == (False, None)
        cache.put("k" * 64, result)
        assert cache.lookup("k" * 64) == (True, result)

    def test_counters(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.lookup("a" * 64)
        cache.put("a" * 64, 1)
        cache.lookup("a" * 64)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_directory_created_lazily_on_put(self, tmp_path):
        target = tmp_path / "sub" / "cache"
        cache = RunCache(target)
        cache.put("b" * 64, "value")
        assert (target).is_dir()
        assert cache.lookup("b" * 64) == (True, "value")
