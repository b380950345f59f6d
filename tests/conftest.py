import itertools
import os
import sys

import pytest

from rmclass import burnside, conjclasses, group
from rmclass.burnside import InexactDivisionError, count
from rmclass.conjclasses import ConjCell
from rmclass.gf2 import BitMatrix, BitVector, rank
from rmclass.group import AffineElement

# running example on 3 variables: an involution x -> (x1+x2+1, x2, x3)
EXAMPLE_A_ROWS = ["110", "010", "001"]
EXAMPLE_B_ENTRIES = [1, 0, 0]

# its action matrix on degree-3 coefficient vectors, expanded by hand in the
# basis x1x2x3, x1x2, x1x3, x2x3, x1, x2, x3, 1 (column j is the image of
# basis monomial j): x1x3 -> x1x3 + x2x3 + x3 and x1 -> x1 + x2 + 1, while
# every other monomial maps to itself
TAU_ROWS = [
    "10000000", "01000000", "00100000", "00110000",
    "00001000", "00001100", "00100010", "00001001",
]
# a former, erroneous expected value for the same matrix: row 7 puts x3 in
# the image of x2x3, which no expansion gives. No element of AGL(3,2)
# realizes it; it stays as plain GF(2) data for the matrix tests and as a
# guard against drifting back to it
TAU_ROWS_UNREACHABLE = [
    "10000000", "01000000", "00100000", "00110000",
    "00001000", "00001100", "00010010", "00001001",
]


def make_example() -> AffineElement:
    return AffineElement(3, BitMatrix.from_strings(EXAMPLE_A_ROWS),
                         BitVector.from_entries(EXAMPLE_B_ENTRIES))


@pytest.fixture
def example_element() -> AffineElement:
    return make_example()


_matrix_cache: dict[int, list[BitMatrix]] = {}
_element_cache: dict[int, list[AffineElement]] = {}


def lift_max_n(monkeypatch, n: int) -> None:
    """Let sizes up to n past the package's MAX_N through every module that
    reads it, for the tests that run the engine beyond the paper's range."""
    for module in (group, conjclasses):
        monkeypatch.setattr(module, "MAX_N", max(module.MAX_N, n))


def random_matrix(n: int, rng) -> BitMatrix:
    """An n x n matrix with uniformly random rows, invertible or not."""
    return BitMatrix(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))


def all_matrices(n: int) -> list[BitMatrix]:
    """Every invertible n x n matrix over GF(2), by filtering all row tuples."""
    if n not in _matrix_cache:
        out = []
        for rows in itertools.product(range(1 << n), repeat=n):
            m = BitMatrix(n, n, tuple(rows))
            if rank(m) == n:
                out.append(m)
        _matrix_cache[n] = out
    return _matrix_cache[n]


def all_elements(n: int) -> list[AffineElement]:
    """The full n-bit affine group by direct enumeration (n <= 3 only)."""
    if n not in _element_cache:
        _element_cache[n] = [
            AffineElement(n, m, BitVector(n, b))
            for m in all_matrices(n) for b in range(1 << n)
        ]
    return _element_cache[n]


def find_inexact_swap(n: int, cells: list[ConjCell]):
    """Return (tampered_cells, s, k): a size-swapped copy of `cells` (total
    preserved) and a window where the count is provably non-integral."""
    for i, j in itertools.combinations(range(len(cells)), 2):
        if cells[i].size == cells[j].size:
            continue
        tampered = list(cells)
        tampered[i] = ConjCell(cells[i].rep, cells[j].size)
        tampered[j] = ConjCell(cells[j].rep, cells[i].size)
        for s in range(n + 1):
            for k in range(-1, s):
                try:
                    count(n, s, k, cells=tampered)
                except InexactDivisionError:
                    return tampered, s, k
    raise AssertionError("no tampering produced an inexact division")


class FakePool:
    """Stands in for ProcessPoolExecutor: records the requested worker
    count, and the name and share count of each map, and runs the shares
    in this process, starting nothing."""

    requested = []
    mapped = []

    def __init__(self, max_workers):
        FakePool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        shares = list(zip(*iterables))
        FakePool.mapped.append((fn.__name__, len(shares)))
        return [fn(*args) for args in shares]


class SliceError(Exception):
    """Raised by a patched slice; defined here so that a pool worker's
    pickled exception unpickles to this class in the caller."""


@pytest.fixture
def forked(monkeypatch):
    """The pids that os.fork returns to this process during the test,
    with os.cpu_count pinned to 2 so that a two-worker count forks."""
    pids = []
    real_fork = os.fork

    def fork_spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pids


def in_workers(worker_fn, name="_pair_partial_sums"):
    """A stand-in for burnside's function name, the slice function of the
    sweep by default, that runs worker_fn in forked pool workers and the
    real function in this process, the pool's caller."""
    caller = os.getpid()
    real = getattr(burnside, name)

    def share_fn(*args):
        if os.getpid() == caller:
            return real(*args)
        return worker_fn(*args)

    return share_fn


def assert_reaped(pids):
    """Every forked pid is reaped, and this process has no child left
    (assert_no_child)."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert_no_child()


def assert_no_child():
    """This process has no child at all, alive or ended unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
