"""Command line front end: count classes, verify against published values,
export cell decompositions, dump action matrices.

Exit codes: 0 success / all checks pass, 1 verification mismatch, 2 usage
error (any ValueError or OSError), 3 internal failure (any other exception,
reported with its traceback).
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .anf import check_params
from .burnside import PROVIDERS, count, count_pairs
from .conjclasses import (
    affine_cells,
    exhaustive_cells,
    export_cells,
    import_cells,
)
from .gf2 import Value
from .group import element_from_text
from .linrep import tau_matrix

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

TABLE_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X")


class OracleEntry(Value):
    """One published count: table tag, n, k, s and the value."""

    __slots__ = ("table", "n", "k", "s", "value")


class OracleTable(Value):
    """Published reference counts, a tuple of OracleEntry entries, keyed by
    (n, k, s); an entry may appear in more than one table, always with the
    same value."""

    __slots__ = ("entries",)

    def __post_init__(self):
        seen = {}
        for e in self.entries:
            key = (e.n, e.k, e.s)
            if seen.setdefault(key, e.value) != e.value:
                raise ValueError(f"conflicting oracle values for {key}")

    def value(self, n: int, k: int, s: int) -> int:
        for e in self.entries:
            if (e.n, e.k, e.s) == (n, k, s):
                return e.value
        raise KeyError((n, k, s))


def load_oracle(path=None) -> OracleTable:
    """Read reference counts; defaults to the file shipped with the package.
    Lines: <table> <n> <k> <s> <count>; '#' starts a comment."""
    if path is None:
        text = (resources.files("rmclass") / "data" / "published_counts.txt"
                ).read_text(encoding="ascii")
    else:
        text = Path(path).read_text(encoding="ascii")
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            tag, n, k, s, value = parts[0], *map(int, parts[1:])
            if tag not in TABLE_TAGS:
                raise ValueError
            check_params(n, s, k)
        except ValueError:
            raise ValueError(
                f"oracle line {lineno}: bad entry {raw!r}") from None
        entries.append(OracleEntry(tag, n, k, s, value))
    if not entries:
        raise ValueError("oracle file has no entries")
    return OracleTable(tuple(entries))


def cmd_count(args) -> int:
    res = count(args.n, args.s, args.k, args.provider, threads=args.threads,
                file=args.file)
    print(f"n={res.n} s={res.s} k={res.k} provider={args.provider} "
          f"cells={res.cells} elapsed={res.elapsed:.3f} count={res.count}")
    return EXIT_OK


def cmd_verify(args) -> int:
    oracle = load_oracle(args.oracle_file)
    wanted = [e for e in oracle.entries
              if e.n <= args.max_n and (args.table is None
                                        or e.table == args.table)]
    cells = None
    if args.provider == "import":
        # a cell file holds one n: read it once and check only that n's rows
        cells = import_cells(args.file)
        wanted = [e for e in wanted if e.n == cells[0].rep.n]
    if not wanted:
        raise ValueError(
            f"no oracle entries with n <= {args.max_n}"
            + (f" in table {args.table}" if args.table else "")
            + (f" for the cell file's n={cells[0].rep.n}" if cells else ""))
    # one sweep counts every n before the first check line, so a provider
    # or a count that fails at a later n leaves no partial report
    windows = sorted({(e.n, e.k, e.s) for e in wanted})
    results = count_pairs(max(e.n for e in wanted), windows, args.provider,
                          threads=args.threads, file=args.file, cells=cells)
    failures = 0
    for e in sorted(wanted, key=lambda e: e.n):
        got = results[e.n, e.k, e.s].count
        status = "PASS" if got == e.value else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"check table={e.table} n={e.n} k={e.k} s={e.s} "
              f"expected={e.value} got={got} status={status}")
    print(f"summary total={len(wanted)} pass={len(wanted) - failures} "
          f"fail={failures}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_classes(args) -> int:
    if args.provider == "import":
        raise ValueError("classes writes cells; use a computing provider")
    if args.file is None:
        raise ValueError("classes requires --file for the output path")
    # the file format promises mutually conjugate members, so the
    # canonical provider writes the conjugacy classes it merges for counting
    cells = (affine_cells(args.n) if args.provider == "canonical"
             else exhaustive_cells(args.n))
    export_cells(cells, args.file)
    total = sum(c.size for c in cells)
    print(f"n={args.n} provider={args.provider} cells={len(cells)} "
          f"total={total} file={args.file}")
    return EXIT_OK


def cmd_tau(args) -> int:
    if args.file is not None:
        text = Path(args.file).read_text(encoding="ascii")
    else:
        text = sys.stdin.read()
    g = element_from_text(text)
    t = tau_matrix(g, args.s, args.k)
    for row in t.to_strings():
        print(row)
    return EXIT_OK


def _threads(text: str) -> int:
    """--threads value, checked when parsed, before any cell is built."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"threads must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmclass",
        description="Count affine equivalence classes of Boolean functions "
                    "on quotients of degree-bounded function spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=True):
        p.add_argument("--provider", default="canonical",
                       choices=PROVIDERS,
                       help="cell decomposition; import checks only that "
                            "the cell sizes cover the group, so a bad file "
                            "can give a wrong count with exit 0 or an "
                            "inexact division with exit 3")
        p.add_argument("--file", default=None,
                       help="cell file (input for import, output for "
                            "classes)")
        if threads:
            p.add_argument("--threads", type=_threads, default=1,
                           help="parallel workers for per-cell work (>= 1)")

    p = sub.add_parser("count", help="number of classes for one (n, s, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify",
                       help="recompute published values and compare")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--table", default=None, choices=TABLE_TAGS,
                   help="restrict to one reference table")
    p.add_argument("--oracle-file", default=None, dest="oracle_file",
                   help="alternate reference file (defaults to the "
                        "packaged one)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classes", help="write a cell decomposition file")
    p.add_argument("--n", type=int, required=True)
    common(p, threads=False)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("tau", help="print the action matrix of one element")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--file", default=None,
                   help="element file: n, then n matrix rows, then the "
                        "translation, as 0/1 lines (stdin if omitted)")
    p.set_defaults(func=cmd_tau)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bad input raises ValueError or OSError; anything else is internal
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        import traceback  # loaded only on this path
        traceback.print_exc()
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
