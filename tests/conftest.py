"""Shared fixtures: seeded RNGs, the random-coupling corpus, the benchmark's workloads
and a check that no test leaves a child process behind."""

import importlib.util
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from qgvertex import admissible_rank_pairs, random_coupling, smatrix_direct
from qgvertex.forms import PQRSForm

CORPUS_SEED = 20260809
CORPUS_SIZE = 100


def child_pids() -> list[int]:
    """Pids of the children of every thread of this process, running or not yet
    reaped; read from /proc on Linux, and empty where it lists no children."""
    return [int(pid) for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    Each child found is killed and reaped first, so that the failure stays
    with the test that leaked it.  Where /proc lists no children, a running
    child cannot be found by pid: it is reported but left running.
    """
    yield
    left = child_pids()
    for pid in left:
        os.kill(pid, signal.SIGKILL)  # a zombie ignores it, and waitpid reaps it
        os.waitpid(pid, 0)
    if left:
        pytest.fail(f"the test left child processes {left}; they were killed and reaped")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process " + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Free eigenvalue phases stay at least this far from 0 and pi.  The limit
# criteria compare S(10^-6) and S(10^6) against the limit matrices at 1e-5,
# and the approach rate scales with the extreme coupling eigenvalues
# (tan of the half-phase); 0.8 keeps those within [0.42, 2.36] and the
# approach error near 4e-6, while still spanning phases of 46..134 degrees.
CORPUS_PHASE_MARGIN = 0.8


def build_corpus(size=CORPUS_SIZE, max_degree=5, seed=CORPUS_SEED):
    """Deterministic corpus covering every admissible rank pair for n <= 5."""
    gen = np.random.default_rng(seed)
    couplings = []
    for n in range(1, max_degree + 1):
        for r_a, r_b in admissible_rank_pairs(n):
            couplings.append(random_coupling(n, r_a, r_b, gen, margin=CORPUS_PHASE_MARGIN))
    while len(couplings) < size:
        n = int(gen.integers(1, max_degree + 1))
        couplings.append(random_coupling(n, rng=gen, margin=CORPUS_PHASE_MARGIN))
    return couplings[:size] if len(couplings) > size else couplings


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's ``bench/workloads.py`` as a module, for its seeded item pools."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def computed_splits(monkeypatch):
    """The records whose ``PQRSForm.split`` is computed while the test runs, in order."""
    records = []
    compute = PQRSForm.split.func
    monkeypatch.setattr(PQRSForm.split, "func", lambda f: records.append(f) or compute(f))
    return records


def unitarity_defect(entries) -> float:
    entries = np.asarray(entries)
    n = entries.shape[0]
    return float(np.max(np.abs(entries @ entries.conj().T - np.eye(n))))


def smatrix_distance(c1, c2, ks=(0.1, 1.0, 10.0)) -> float:
    """Largest max-norm gap between the two couplings' S(k) over ``ks``."""
    return max(float(np.max(np.abs(np.asarray(smatrix_direct(c1, k).entries)
                                   - np.asarray(smatrix_direct(c2, k).entries))))
               for k in ks)


def couplings_equivalent(c1, c2, tol=1e-9) -> bool:
    """Same degree and the same S(k) on the momentum grid within ``tol``."""
    return c1.n == c2.n and smatrix_distance(c1, c2) <= tol
