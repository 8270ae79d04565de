"""A run is a pure function of its seed (DESIGN.md §12).

Two checks keep it that way:

* the RNG chokepoint guard installed by ``tests/conftest.py``: inside
  the suite, only ``repro.simulator.rng.make_rng`` may build a numpy
  generator, and nothing may draw from numpy's or stdlib ``random``'s
  hidden global generator.  :class:`TestRngGuard` pins that the guard
  is in place;
* hash-seed parity: Python salts ``str`` hashes per process, so code
  that lets set order reach a scheduling decision or an RNG key gives
  different numbers under different ``PYTHONHASHSEED`` values.
  :func:`run_digest` digests every registered scheduler's worked
  example and one small scrambled-trace cell; the parity test computes
  it here and in subprocesses under :data:`HASH_SEEDS`, and every
  digest must agree.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import scheduler_names
from repro.experiments.schedule_examples import worked_example
from repro.experiments.unpredictable import run_unpredictable, unpredictable_config
from repro.simulator.rng import make_rng

from test_golden_run_metrics import _canonical, _tenant_numbers

#: Fixed, so the outcome is deterministic.  Under each set-order plant
#: of DESIGN.md §17 these three seeds give three different digests, and
#: no seed from 0 to 39 gives the unplanted one.
HASH_SEEDS = (0, 1, 2)

TESTS = Path(__file__).resolve().parent


def run_digest() -> str:
    """SHA-256 of the worked examples (Figures 1, 5 and 6) under every
    registered scheduler, and of the per-tenant numbers of one small
    §6.2.1 cell: 8 threads, 1 s, 30 random tenants, half of them
    scrambled, seed 1."""
    numbers = {}
    for name in scheduler_names():
        for large_cost in (4.0, 10.0):
            numbers[f"example/{name}/{large_cost}"] = [
                [s.thread_id, s.label, s.start, s.end]
                for s in worked_example(name, large_cost=large_cost)
            ]
    config = unpredictable_config(num_threads=8, duration=1.0, seed=1)
    result = run_unpredictable(0.5, num_random=30, config=config)
    for name, run in result.runs.items():
        numbers[f"unpredictable/{name}"] = _tenant_numbers(run, config.capacity)
    return hashlib.sha256(_canonical(numbers).encode()).hexdigest()


def test_digest_is_independent_of_the_hash_seed():
    path = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    )
    driver = "from test_determinism import run_digest; print(run_digest())"
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", driver],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    }
    try:
        expected = run_digest()
        digests = {}
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            digests[seed] = out.strip()
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op for a process already reaped
    assert digests == {seed: expected for seed in HASH_SEEDS}


class TestRngGuard:
    def test_make_rng_is_the_only_way_to_a_generator(self):
        assert 0.0 <= make_rng(1, "guard").random() < 1.0
        with pytest.raises(RuntimeError, match="make_rng"):
            np.random.default_rng(1)
        with pytest.raises(RuntimeError, match="make_rng"):
            np.random.SeedSequence(1)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: np.random.random(),
            lambda: np.random.sample(),
            lambda: np.random.shuffle([1, 2]),
            lambda: random.random(),
            lambda: random.getrandbits(8),
            lambda: random.shuffle([1, 2]),
        ],
        ids=["np.random", "np.sample", "np.shuffle", "random", "getrandbits",
             "shuffle"],
    )
    def test_global_draws_raise(self, draw):
        with pytest.raises(RuntimeError, match="global generator"):
            draw()

    def test_global_state_can_still_be_saved_and_restored(self):
        # Hypothesis seeds and restores both global generators around
        # each example, so these stay open.
        random.setstate(random.getstate())
        np.random.set_state(np.random.get_state())
