import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from mfbo.acquisition import make_candidates
from mfbo.benchmarks import _RANGE_SAMPLE, _RANGE_SEED, make_problem
from mfbo.harness import candidate_seed
from mfbo.util import halton_points, mix64

SRC = Path(__file__).resolve().parent.parent / "src"

# mix64 seeds as the library derives them; two of them are >= 2**63
SEEDS = [mix64(i, "halton") for i in range(4)]

# sha256 of the points' bytes, as scipy.stats.qmc.Halton produced them:
# (candidate set at candidate_seed(0, 0), 4096-point range sample)
PINNED = {
    "currin2": (
        "479cb3c4f7d684029882baf59c34936245423e918dccb1306753a9833bd4fbee",
        "a2c42d9499377ea20fd5c87a2e2474de6414b95881d3553aa636690b377e0bac",
    ),
    "hartmann6": (
        "54ef00c8969783e0807183f57e8a052bb8d083e0b9d40245c82a57edc2c96f2e",
        "4dc2cda05d43368f3f0ddb17d46cb36b31c1f91b8ef468424f46abcb3eddab85",
    ),
    "borehole8": (
        "18883ec2d03ea22a9dd532c6e97626681ab5c6a789452044f67c0ae556ae64b8",
        "9f5482d7e9a3b3ea6aa17b8d71b0a4d438aaaef4b5f10e77fbce59d2cb7ded92",
    ),
}


def _unit_box(d):
    return np.column_stack([np.zeros(d), np.ones(d)])


def _scipy_halton(d, n, seed):
    # the seed= keyword is what the library reproduces: rng= spawns a child
    # generator and so gives another stream
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return qmc.Halton(d=d, scramble=True, seed=seed).random(n)


def test_seeds_include_the_upper_half():
    assert sum(s >= 2**63 for s in SEEDS) >= 1
    assert sum(s < 2**63 for s in SEEDS) >= 1


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 4096, 5000])
def test_halton_is_bitwise_scipy(d, n):
    for seed in SEEDS:
        ref = _scipy_halton(d, n, seed)
        got = halton_points(_unit_box(d), n, seed)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert got.flags.f_contiguous == ref.flags.f_contiguous


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_point_sets(name):
    problem = make_problem(name, noise=0.05, seed=0)
    cand = make_candidates(problem.bounds, None, candidate_seed(0, 0))
    sample = halton_points(problem.bounds, _RANGE_SAMPLE, _RANGE_SEED)
    got = (hashlib.sha256(cand.tobytes()).hexdigest(),
           hashlib.sha256(sample.tobytes()).hexdigest())
    assert got == PINNED[name]


def test_zero_points():
    pts = halton_points(_unit_box(3), 0, 5)
    assert pts.shape == (0, 3)
    assert _scipy_halton(3, 0, 5).shape == (0, 3)


@pytest.mark.parametrize("bounds", [
    np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(2), np.zeros((2, 2, 1)),
    np.array([[0.0, np.nan]]), np.array([[0.0, 1.0], [-np.inf, 0.0]]),
])
def test_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError, match="bounds"):
        halton_points(bounds, 4, 1)


def test_rejects_negative_count():
    with pytest.raises(ValueError, match="count"):
        halton_points(_unit_box(2), -1, 1)


def test_import_leaves_out_scipy_stats_and_optimize():
    code = (
        "import sys, mfbo, mfbo.cli, mfbo.verify\n"
        "print(' '.join(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == []


def test_import_and_a_policy_run_load_no_scipy(tmp_path):
    # the solves go through numpy's own OpenBLAS and the kernels are numpy,
    # so scipy is not imported, neither by the modules nor by a run
    code = (
        "import sys, mfbo, mfbo.cli, mfbo.verify\n"
        "rc = mfbo.cli.main(['bench', '--problem', 'currin2', '--seeds', '1',"
        " '--budget-mult', '5', '--candidates', '200', '--policies', 'mf_mi_greedy,sf_only',"
        " '--hyperfit-every', '2', '--out', sys.argv[1]])\n"
        "print(rc, ' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split("\n")[-2].split() == ["0"]
