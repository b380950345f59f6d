import errno
import io
import os
import subprocess
import sys

import pytest

from conftest import (
    FakePool,
    SliceError,
    TAU_ROWS,
    assert_no_child,
    assert_reaped,
    find_inexact_swap,
    in_workers,
    make_example,
)
from rmclass import burnside, cli, conjclasses
from rmclass.conjclasses import (
    affine_cells,
    exhaustive_cells,
    export_cells,
    import_cells,
    rational_cells,
)


def run_cli(*args):
    """Invoke the entry point in-process; argparse-level failures also
    surface as an exit code."""
    try:
        return cli.main(list(args))
    except SystemExit as e:
        return e.code


def out_dict(captured):
    """Parse the key=value tokens of the last nonempty output line."""
    line = [ln for ln in captured.strip().splitlines() if ln][-1]
    return dict(tok.split("=", 1) for tok in line.split())


def test_count_basic(capsys):
    assert run_cli("count", "--n", "3", "--s", "3", "--k", "1") == 0
    d = out_dict(capsys.readouterr().out)
    assert d["n"] == "3" and d["s"] == "3" and d["k"] == "1"
    assert d["count"] == "3"
    assert d["provider"] == "canonical"
    assert int(d["cells"]) == len(rational_cells(3))
    assert float(d["elapsed"]) >= 0.0


def test_count_negative_k(capsys):
    assert run_cli("count", "--n", "2", "--s", "2", "--k", "-1") == 0
    assert out_dict(capsys.readouterr().out)["count"] == "5"


def test_count_providers_agree(capsys, tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    results = []
    for extra in (["--provider", "canonical"],
                  ["--provider", "exhaustive"],
                  ["--provider", "import", "--file", str(path)],
                  ["--threads", "2"]):
        assert run_cli("count", "--n", "3", "--s", "3", "--k", "-1", *extra) == 0
        results.append(out_dict(capsys.readouterr().out)["count"])
    assert results == ["10"] * 4


def test_sizes_past_the_limit_exit_2(capsys, monkeypatch, tmp_path):
    # every command that takes a size refuses n = 11 with the message of
    # the one limit, MAX_N
    path = tmp_path / "cells11.txt"
    path.write_text("rmclass-cells v1 n=11 count=1\ncell 0 size 1\n")
    identity11 = ["".join("1" if j == i else "0" for j in range(11))
                  for i in range(11)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "\n".join(["11"] + identity11 + ["0" * 11])))
    limit = "n=11 out of supported range 1..10"
    for args, err in [
            (("count", "--n", "11", "--s", "11", "--k", "9"), limit),
            (("classes", "--n", "11", "--file", str(tmp_path / "out")), limit),
            (("verify", "--max-n", "11", "--provider", "import",
              "--file", str(path)), f"{path}: unsupported n=11"),
            (("tau", "--s", "2", "--k", "-1"), limit)]:
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_count_usage_errors(capsys):
    assert run_cli("count", "--n", "3", "--s", "4", "--k", "1") == 2
    assert run_cli("count", "--n", "3", "--s", "2", "--k", "2") == 2
    assert run_cli("count", "--n", "11", "--s", "3", "--k", "1") == 2
    assert run_cli("count", "--n", "3", "--s", "3") == 2  # missing --k
    assert run_cli("count", "--n", "5", "--s", "5", "--k", "1",
                   "--provider", "exhaustive") == 2  # too large to enumerate
    assert run_cli("count", "--n", "3", "--s", "3", "--k", "1",
                   "--provider", "import") == 2  # no --file
    assert run_cli("count", "--n", "3", "--s", "3", "--k", "1",
                   "--provider", "import", "--file", "/no/such/file") == 2
    capsys.readouterr()


def test_threads_below_one_is_usage_error(capsys):
    for threads in ("0", "-4"):
        assert run_cli("count", "--n", "5", "--s", "3", "--k", "1",
                       "--threads", threads) == 2
        assert "threads" in capsys.readouterr().err
    assert run_cli("verify", "--max-n", "3", "--threads", "0") == 2
    capsys.readouterr()


def test_threads_rejected_before_cells_are_built(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(burnside, "resolve_cells",
                        lambda *args, **kwargs: built.append(args))
    for args in (("count", "--n", "9", "--s", "3", "--k", "1"),
                 ("verify", "--max-n", "9")):
        assert run_cli(*args, "--threads", "0") == 2
        assert "threads" in capsys.readouterr().err
    assert built == []


def test_cells_are_built_once_inside_count_pairs(capsys, monkeypatch):
    # count and verify leave the cell build to count_pairs: each n is
    # built once, while count_pairs runs
    inside, builds = [], []
    real_count_pairs = burnside.count_pairs
    real_build = burnside.rational_runs

    def spy_count_pairs(*args, **kwargs):
        inside.append(True)
        try:
            return real_count_pairs(*args, **kwargs)
        finally:
            inside.pop()

    def spy_build(n):
        builds.append((n, bool(inside)))
        return real_build(n)

    monkeypatch.setattr(burnside, "count_pairs", spy_count_pairs)
    monkeypatch.setattr(cli, "count_pairs", spy_count_pairs)
    monkeypatch.setattr(burnside, "rational_runs", spy_build)
    assert run_cli("count", "--n", "5", "--s", "3", "--k", "1") == 0
    assert builds == [(5, True)]
    builds.clear()
    assert run_cli("verify", "--max-n", "5") == 0
    assert builds == [(3, True), (4, True), (5, True)]
    capsys.readouterr()


def test_verify_opens_one_pool(capsys, monkeypatch):
    # one count_pairs call counts every n, so --threads 2 opens one pool
    # per round, not one per n: the first builds each n's cells once, in
    # the shares dealt largest n first, and the second sweeps the groups;
    # stdout is the serial run's
    monkeypatch.setattr(burnside, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    builds = []
    real_build = burnside.rational_runs
    monkeypatch.setattr(burnside, "rational_runs",
                        lambda n: builds.append(n) or real_build(n))
    FakePool.requested, FakePool.mapped = [], []
    assert run_cli("verify", "--max-n", "6") == 0
    serial = capsys.readouterr().out
    assert FakePool.requested == [1, 1]
    assert builds == [3, 4, 5, 6]
    builds.clear()
    FakePool.requested, FakePool.mapped = [], []
    assert run_cli("verify", "--max-n", "6", "--threads", "2") == 0
    assert FakePool.requested == [2, 2]
    assert FakePool.mapped == [("_peeled_share", 2),
                               ("_pair_partial_sums", 2)]
    assert builds == [6, 3, 4, 5]
    assert capsys.readouterr().out == serial


def test_verify_worker_failure_is_internal_error(capsys, monkeypatch,
                                                forked):
    # a slice that raises in a pool worker reaches the CLI as its own
    # exception: exit 3, before any check line, and no worker is left
    def worker_slice(wanted, groups):
        raise SliceError("slice failed in a worker")

    monkeypatch.setattr(burnside, "_pair_partial_sums",
                        in_workers(worker_slice))
    assert run_cli("verify", "--max-n", "6", "--threads", "2") == 3
    captured = capsys.readouterr()
    assert "check" not in captured.out
    assert "internal error: slice failed in a worker" in captured.err
    assert "SliceError" in captured.err
    assert_reaped(forked)


def test_verify_worker_value_error_is_usage_error(capsys, monkeypatch,
                                                 forked):
    # a worker's exception reaches the caller as itself, so its class
    # alone picks the code: a ValueError raised in a pool worker exits 2,
    # as one raised in the caller does, before any check line. Each count
    # forks one child per round, and none is left
    def value_error(wanted, groups):
        raise ValueError("slice rejected its groups")

    for slice_fn in (in_workers(value_error), value_error):
        monkeypatch.setattr(burnside, "_pair_partial_sums", slice_fn)
        assert run_cli("verify", "--max-n", "6", "--threads", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: slice rejected its groups\n"
    assert len(forked) == 4
    assert_reaped(forked)


def test_count_failed_fork_is_internal_error(capsys, monkeypatch, forked):
    # a pool worker that cannot be forked is a failed resource, not bad
    # input: exit 3 naming the worker, not 2, and no child is left
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli("count", "--n", "5", "--s", "3", "--k", "1",
                   "--threads", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "internal error: pool worker 1 could not start: "
        f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}")
    assert forked == []
    assert_no_child()


def test_verify_bad_window_is_usage_error(capsys, monkeypatch):
    # a window above the sweep's n raises ValueError in count_pairs: exit
    # 2, before any check line
    real = burnside.count_pairs
    monkeypatch.setattr(
        cli, "count_pairs",
        lambda n, windows, *args, **kwargs:
            real(n, [*windows, (n + 1, 1, 2)], *args, **kwargs))
    assert run_cli("verify", "--max-n", "4") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=5 is outside 1..4" in captured.err


def test_classes_takes_no_threads(capsys, tmp_path):
    assert run_cli("classes", "--n", "3", "--file", str(tmp_path / "c.txt"),
                   "--threads", "2") == 2
    capsys.readouterr()


def test_internal_raises_exit_3(capsys, monkeypatch):
    # the library's invariant checks raise; the CLI maps them to exit 3 and
    # prints the traceback, naming the raising function, before its last
    # line `internal error: <message>`
    def internal_error(raiser):
        err = capsys.readouterr().err
        assert f", in {raiser}\n" in err
        assert err.splitlines()[-1].startswith("internal error: ")

    # patched for this case only, so the cases below cannot exit 3 through
    # the inexact division
    with monkeypatch.context() as m:
        m.setattr(burnside, "_pair_partial_sums",
                  lambda wanted, groups:
                      {n: [0] * len(p) for n, p in wanted.items()})
        assert run_cli("count", "--n", "3", "--s", "3", "--k", "-1") == 3
    internal_error("count_pairs")

    # a broken GL-class invariant (ArithmeticError) and a broken canonical
    # size sum (RuntimeError); every count builds its cells afresh
    orders = conjclasses.group_orders
    for name, fake, raiser in (
            ("_centralizer_order", lambda assignment: 3, "gl_classes"),
            ("group_orders", lambda n: (orders(n)[0], orders(n)[1] + 1),
             "_fiber_runs")):
        with monkeypatch.context() as m:
            m.setattr(conjclasses, name, fake)
            assert run_cli("count", "--n", "3", "--s", "3", "--k", "-1") == 3
        internal_error(raiser)

    def broken(*args, **kwargs):
        raise RuntimeError("generators produced 1 of 24 elements")

    monkeypatch.setattr(burnside, "resolve_cells", broken)
    assert run_cli("count", "--n", "2", "--s", "2", "--k", "-1") == 3
    internal_error("broken")


def test_count_import_wrong_n(capsys, tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(2), path)
    assert run_cli("count", "--n", "3", "--s", "3", "--k", "1",
                   "--provider", "import", "--file", str(path)) == 2
    capsys.readouterr()


def test_file_is_read_only_by_import(capsys, tmp_path):
    # --file given to a computing provider exits 2 naming the file and
    # the provider, before any count or check line is printed; the file
    # need not exist
    path = tmp_path / "missing.txt"
    for provider in ("canonical", "exhaustive"):
        for command in (("count", "--n", "3", "--s", "3", "--k", "-1"),
                        ("verify", "--max-n", "3")):
            assert run_cli(*command, "--provider", provider,
                           "--file", str(path)) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(path) in captured.err
            assert f"not '{provider}'" in captured.err


def test_verify_small(capsys):
    assert run_cli("verify", "--max-n", "4") == 0
    out = capsys.readouterr().out
    checks = [ln for ln in out.splitlines() if ln.startswith("check ")]
    assert len(checks) == 2
    assert all("status=PASS" in ln for ln in checks)
    assert "table=I n=3 k=1 s=3 expected=3 got=3" in checks[0]
    assert out.strip().splitlines()[-1] == "summary total=2 pass=2 fail=0"


def test_verify_table_filter(capsys):
    assert run_cli("verify", "--max-n", "5", "--table", "I") == 0
    out = capsys.readouterr().out
    assert sum(1 for ln in out.splitlines() if ln.startswith("check ")) == 3
    assert out.strip().splitlines()[-1] == "summary total=3 pass=3 fail=0"


def test_verify_no_matching_rows(capsys):
    assert run_cli("verify", "--max-n", "2") == 2  # nothing to check
    capsys.readouterr()


def test_verify_import_checks_the_file_n(capsys, tmp_path):
    path = tmp_path / "cells4.txt"
    export_cells(affine_cells(4), path)
    assert run_cli("verify", "--max-n", "4", "--provider", "import",
                   "--file", str(path)) == 0
    out = capsys.readouterr().out
    checks = [ln for ln in out.splitlines() if ln.startswith("check ")]
    assert checks and all(" n=4 " in ln and "status=PASS" in ln
                          for ln in checks)
    assert out.strip().splitlines()[-1] == (
        f"summary total={len(checks)} pass={len(checks)} fail=0")
    # the file's n is above --max-n: nothing to check
    assert run_cli("verify", "--max-n", "3", "--provider", "import",
                   "--file", str(path)) == 2
    assert "n=4" in capsys.readouterr().err


def test_verify_provider_failure_prints_no_checks(capsys):
    # the exhaustive provider stops at n = 4: the n = 5 and 6 cells fail
    # before the n = 3 and 4 rows are checked, so no partial report
    assert run_cli("verify", "--max-n", "6", "--provider", "exhaustive") == 2
    captured = capsys.readouterr()
    assert not any(ln.startswith("check ")
                   for ln in captured.out.splitlines())
    assert "n <= 4" in captured.err


def test_verify_count_failure_prints_no_checks(capsys, monkeypatch):
    # the n = 3 rows count fine, the n = 4 sum breaks: every n is counted
    # before the first check line, so no partial report
    def broken(wanted, groups, real=burnside._pair_partial_sums):
        sums = real(wanted, groups)
        sums[4] = [0] * len(wanted[4])
        return sums

    monkeypatch.setattr(burnside, "_pair_partial_sums", broken)
    assert run_cli("verify", "--max-n", "4") == 3
    captured = capsys.readouterr()
    assert not any(ln.startswith("check ")
                   for ln in captured.out.splitlines())
    assert captured.err.splitlines()[-1].startswith("internal error: n=4 ")


def test_verify_mismatch_exits_1(capsys, tmp_path):
    oracle = tmp_path / "wrong.txt"
    oracle.write_text("I 3 1 3 4\n")
    assert run_cli("verify", "--max-n", "3", "--oracle-file", str(oracle)) == 1
    out = capsys.readouterr().out
    assert "expected=4 got=3 status=FAIL" in out
    assert out.strip().splitlines()[-1] == "summary total=1 pass=0 fail=1"


def test_verify_oracle_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("I 3 1\n")
    assert run_cli("verify", "--max-n", "3", "--oracle-file", str(bad)) == 2
    capsys.readouterr()
    for line in ("I 3 x 3 3", "I 3 4 3 3"):  # not an integer; k >= s
        bad.write_text(line + "\n")
        assert run_cli("verify", "--max-n", "3", "--oracle-file", str(bad)) == 2
        assert "oracle line 1: bad entry" in capsys.readouterr().err
    conflicting = tmp_path / "conflict.txt"
    conflicting.write_text("I 3 1 3 3\nIII 3 1 3 4\n")
    assert run_cli("verify", "--max-n", "3", "--oracle-file", str(conflicting)) == 2
    assert run_cli("verify", "--max-n", "3", "--oracle-file", "/no/such/file") == 2
    assert run_cli("verify", "--max-n", "3", "--table", "XI") == 2
    capsys.readouterr()


def test_classes_roundtrip(capsys, tmp_path):
    out = tmp_path / "canonical.txt"
    assert run_cli("classes", "--n", "3", "--file", str(out)) == 0
    assert import_cells(out) == affine_cells(3)
    out2 = tmp_path / "exhaustive.txt"
    assert run_cli("classes", "--n", "3", "--provider", "exhaustive",
                   "--file", str(out2)) == 0
    assert import_cells(out2) == exhaustive_cells(3)
    capsys.readouterr()


def test_classes_usage_errors(capsys, tmp_path):
    assert run_cli("classes", "--n", "3") == 2  # no output file
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    assert run_cli("classes", "--n", "3", "--provider", "import",
                   "--file", str(path)) == 2
    capsys.readouterr()


def test_tau_from_file(capsys, tmp_path):
    path = tmp_path / "element.txt"
    path.write_text(str(make_example()))
    assert run_cli("tau", "--s", "3", "--k", "-1", "--file", str(path)) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == TAU_ROWS


def test_tau_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(str(make_example())))
    assert run_cli("tau", "--s", "2", "--k", "0") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)


def test_tau_rejects_singular_element(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n11\n11\n00\n"))
    assert run_cli("tau", "--s", "2", "--k", "-1") == 2
    monkeypatch.setattr(sys, "stdin", io.StringIO("not an element"))
    assert run_cli("tau", "--s", "2", "--k", "-1") == 2
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n12\n01\n00\n"))
    assert run_cli("tau", "--s", "2", "--k", "-1") == 2
    assert "not 0 or 1" in capsys.readouterr().err
    # a well-formed identity element with n = 24 is refused before any of
    # the 2^24-mask tables is built
    rows = ["".join("1" if j == i else "0" for j in range(24))
            for i in range(24)]
    text = "\n".join(["24"] + rows + ["0" * 24])
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli("tau", "--s", "1", "--k", "0") == 2
    assert "1..10" in capsys.readouterr().err


def test_malformed_cell_file_exits_2_naming_the_cell(capsys, tmp_path):
    path = tmp_path / "cells.txt"
    export_cells(affine_cells(3), path)
    lines = path.read_text().splitlines()
    assert lines[6].startswith("cell 1 size ")
    for i, edit in ((7, lambda ln: ln.replace("1", "2", 1)),
                    (6, lambda ln: "cell 1 size 0")):
        bad = lines[:i] + [edit(lines[i])] + lines[i + 1:]
        path.write_text("\n".join(bad) + "\n")
        assert run_cli("verify", "--max-n", "3", "--provider", "import",
                       "--file", str(path)) == 2
        assert "cell 1" in capsys.readouterr().err


def test_internal_invariant_failure_exits_3(capsys, tmp_path):
    tampered, s, k = find_inexact_swap(3, affine_cells(3))
    path = tmp_path / "tampered.txt"
    export_cells(tampered, path)
    assert run_cli("count", "--n", "3", "--s", str(s), "--k", str(k),
                   "--provider", "import", "--file", str(path)) == 3
    capsys.readouterr()


def test_unknown_subcommand():
    assert run_cli("frobnicate") == 2
    assert run_cli() == 2


def test_load_oracle_packaged():
    table = cli.load_oracle()
    assert len(table.entries) == 143
    assert table.value(3, 1, 3) == 3
    assert table.value(7, 1, 7) == 63379147320777408548
    with pytest.raises(KeyError):
        table.value(3, 0, 0)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "rmclass", "count", "--n", "2", "--s", "2",
         "--k", "-1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "count=5" in proc.stdout