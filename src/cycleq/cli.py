"""Command line front end.

Subcommands: compute (one class count), table (counts over a range), matrix
(the per-divisor tally), graph (DOT or JSON export), solve (list solutions
of one equation), verify (brute force against the formulas). Exit codes:
0 success, 1 verification failure, 2 usage error, 3 internal invariant
violation. Output is byte-deterministic for a fixed command line and seed.

main(argv) may be called any number of times in one process. It builds its
argument parser on the first call only and keeps nothing else between
calls, so a request gives the same exit code and bytes whatever ran before
it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator

# a command imports what it runs beyond counting and zn_ring itself, so
# that a start loads only the modules its command uses
from . import DEFAULT_BOUND, DEFAULT_SEED
from .counting import (
    _printable_tables,
    p_count,
    predicted_size_histogram,
)

__all__ = ["main"]

ENV_ORACLE_BOUND = "CYCLEQ_ORACLE_BOUND"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on the first call.
    It holds no state of any request: each parse fills a new Namespace, and
    help and usage go to sys.stdout and sys.stderr as they are when printed.
    """
    parser = argparse.ArgumentParser(
        prog="cycleq",
        description="Count equivalence classes of S_n under two-sided "
                    "multiplication by powers of a full cycle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, fmt_choices, fmt_default):
        p = sub.add_parser(name, help=help_text)
        if fmt_choices:
            p.add_argument("-f", "--format", choices=fmt_choices,
                           default=fmt_default)
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write to PATH instead of stdout")
        return p

    p = add("compute", "print the exact class count for one n",
            ("text", "json"), "text")
    p.add_argument("n", type=int)

    p = add("table", "class counts for a range of n",
            ("text", "csv", "json"), "text")
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)

    p = add("matrix", "per-divisor tally for one n", ("text", "json"), "text")
    p.add_argument("n", type=int)

    p = add("graph", "export the divisor graph", ("dot", "json"), "dot")
    p.add_argument("n", type=int)

    p = add("solve", "list all solutions of sigma^k xi == xi sigma^l",
            ("text", "json"), "text")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)

    p = add("verify", "brute-force S_n against the formulas", None, None)
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--oracle-bound", type=int, default=None,
                   help=f"override the bound (default {DEFAULT_BOUND}, "
                        f"or {ENV_ORACLE_BOUND})")
    return parser


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    """Range-check n, solve's exponents or FROM..TO, reject a -o PATH no
    file can have, and resolve verify's oracle bound."""
    for name in ("n", "k", "l", "n_from", "n_to"):
        if not isinstance(getattr(ns, name, 0), int):
            # argparse of Python 3.11 fills the last positional with []
            # when a second "--" stands in its place
            raise UsageError(f"{name} must be an integer, got a second '--'")
    if ns.output is not None and (not ns.output or "\0" in ns.output):
        # the OS refuses an empty path or one with a NUL byte in it
        raise UsageError(f"-o PATH must be a non-empty path with no NUL byte, "
                         f"got {ns.output!r}")
    if hasattr(ns, "n") and ns.n < 1:
        raise UsageError(f"n must be at least 1, got {ns.n}")
    if hasattr(ns, "k") and not (1 <= ns.k <= ns.n and 1 <= ns.l <= ns.n):
        raise UsageError(
            f"exponents must lie in 1..{ns.n}, got k={ns.k}, l={ns.l}")
    if hasattr(ns, "n_from") and (ns.n_from < 1 or ns.n_to < ns.n_from):
        raise UsageError(f"need 1 <= FROM <= TO, got {ns.n_from}..{ns.n_to}")
    if ns.command == "verify" and ns.oracle_bound is None:
        raw = os.environ.get(ENV_ORACLE_BOUND)
        try:
            ns.oracle_bound = DEFAULT_BOUND if raw is None else int(raw)
        except ValueError:
            raise UsageError(
                f"{ENV_ORACLE_BOUND} must be an integer, got {raw!r}") from None
    return ns


def cmd_compute(ns: argparse.Namespace) -> tuple[int, list[str]]:
    total = str(next(_printable_tables(ns.n, ns.n)).total)
    if ns.format == "json":
        return EXIT_OK, [f'{{"n": {ns.n}, "classes": "{total}"}}\n']
    return EXIT_OK, [f"{total}\n"]


def cmd_table(ns: argparse.Namespace) -> tuple[int, list[str]]:
    rows = [(t.n, str(t.total))
            for t in _printable_tables(ns.n_from, ns.n_to)]
    if ns.format == "csv":
        lines = ["n,classes"] + [f"{n},{c}" for n, c in rows]
        return EXIT_OK, ["\n".join(lines) + "\n"]
    if ns.format == "json":
        body = ", ".join(f'{{"n": {n}, "classes": "{c}"}}' for n, c in rows)
        return EXIT_OK, [f"[{body}]\n"]
    wn = max(len("n"), max(len(str(n)) for n, _ in rows))
    wc = max(len("classes"), max(len(c) for _, c in rows))
    lines = ["n".rjust(wn) + "  " + "classes".rjust(wc)]
    lines += [str(n).rjust(wn) + "  " + c.rjust(wc) for n, c in rows]
    return EXIT_OK, ["\n".join(lines) + "\n"]


def cmd_matrix(ns: argparse.Namespace) -> tuple[int, list[str]]:
    table = next(_printable_tables(ns.n, ns.n))
    if ns.format == "json":
        return EXIT_OK, [table.to_json() + "\n"]
    return EXIT_OK, [table.to_text()]


def cmd_graph(ns: argparse.Namespace) -> tuple[int, Iterator[str]]:
    from .class_graph import _pieces
    pieces = _pieces(ns.n, ns.format)
    if ns.format == "json":
        return EXIT_OK, itertools.chain(pieces, ["\n"])
    return EXIT_OK, pieces


def _row_text(n: int, joiner: str, sep: str, end: str
              ) -> Callable[[bytes | tuple[int, ...], list[bytes] | None], str]:
    """A function from a checked block and its columns, as
    equation_solver._checked_blocks hands them out, to the text of its
    rows, each joiner + "[" + the images split by sep + end, as one %
    format of the row's images writes them.

    A bytes block (n <= 255) is laid out as fixed-width rows in a
    bytearray, each image in len(str(n)) slots, the most an image 1..n
    needs, left aligned and padded with NUL: one translate of a column by a
    digit table per column and digit place, written as a stride, fills the
    slots, and deleting the NUL bytes before the decode gives the rows. The
    columns are the n slices block[c::n] the check already made, so the
    block is not sliced again. For n <= 9 every image fills its one slot,
    and nothing is deleted. A tuple block (n >= 256), whose columns are
    None, takes the % format.
    """
    row = joiner + "[" + sep.join(["%s"] * n) + end
    if n > 255:
        return lambda block, columns: "".join([row] * (len(block) // n)) % block
    width = len(str(n))
    template = bytearray(row.replace("%s", "\0" * width), "ascii")
    stride, first, step = len(template), len(joiner) + 1, width + len(sep)
    # a checked block holds no image past n
    digits = "".join([str(v).ljust(width, "\0") for v in range(n + 1)]).encode()
    planes = [digits[d::width].ljust(256, b"\0") for d in range(width)]

    def text(block: bytes, columns: list[bytes]) -> str:
        out = template * (len(block) // n)
        for c, column in enumerate(columns):
            for at, plane in enumerate(planes, first + c * step):
                out[at::stride] = column.translate(plane)
        # a piece must not be small: a sink that keeps every piece, a
        # StringIO, fragments its heap with small ones. A block is about
        # 128 KiB of images, so a piece is a few hundred KB of text (290 KB
        # at n = 9). In the verify-solve benchmark, whose StringIO holds the
        # 7.3 MB of `solve 9 9 9`, 82 KB pieces from 4096-row blocks raised
        # the peak RSS from 41.4 to 46.4 MB; these pieces read 43.0 MB
        if width > 1:
            out = out.translate(None, b"\0")
        return out.decode("ascii")

    return text


def cmd_solve(ns: argparse.Namespace) -> tuple[int, Iterator[str]]:
    from .equation_solver import InvalidParameters, _checked_blocks
    blocks = _checked_blocks(ns.n, ns.k, ns.l)
    # an invalid pair, or a failed check of the first block, raises here,
    # before the first byte is written
    try:
        first = next(blocks)
    except InvalidParameters as e:
        raise UsageError(f"no solution family: {e}") from e
    count = p_count(ns.n, ns.k)
    # the bytes of one_line in text and of str(list(images)) in json; every
    # json row is led by ", ", which the first row drops
    if ns.format == "json":
        joiner, text = ", ", _row_text(ns.n, ", ", ", ", "]")
        head = (f'{{"n": {ns.n}, "k": {ns.k}, "l": {ns.l}, '
                f'"count": {count}, "solutions": [')
        tail = "]}\n"
    else:
        joiner, text = "", _row_text(ns.n, "", " ", "]\n")
        head, tail = f"count={count}\n", ""

    def pieces() -> Iterator[str]:
        yield head + text(*first)[len(joiner):]
        for block, columns in blocks:
            yield text(block, columns)
        yield tail

    return EXIT_OK, pieces()


def _verify_one(n: int, bound: int, seed: int) -> str | None:
    """None when n checks out, else a short reason."""
    from .equation_solver import _checked_blocks, _sigma_powers, check_parameters
    from .oracle import enumerate_classes, sigma_independence_check
    # the predicted class sizes; their multiplicities sum to |Q_n|
    predicted = predicted_size_histogram(n)
    total = sum(predicted.values())
    report = enumerate_classes(n, bound=bound)
    if report.class_count != total:
        return f"oracle found {report.class_count} classes, formula says {total}"
    if report.size_histogram != predicted:
        return (f"size histogram {report.size_histogram} "
                f"differs from predicted {predicted}")
    # every equation solve accepts except (n, n), in ascending (k, l), each
    # checked against the same powers of sigma
    powers = _sigma_powers(n)
    for k, l in [(k, l) for k in range(1, n) for l in range(1, n)
                 if check_parameters(n, k, l) is None]:
        expected = p_count(n, k)
        got = report.solution_counts.get((k, l), 0)
        if got != expected:
            return (f"equation (k={k}, l={l}) has {got} solutions, "
                    f"formula says {expected}")
        # every row is checked and the rows are counted as they are made;
        # distinct rows then make the listing exactly the solution set
        rows = set()
        for block, _ in _checked_blocks(n, k, l, powers):
            rows.update(block[at:at + n] for at in range(0, len(block), n))
        if len(rows) != expected:
            return f"enumerator repeated a solution of (k={k}, l={l})"
    if not sigma_independence_check(n, seed=seed, bound=bound, base=report):
        return "class structure varied across choices of full cycle"
    return None


def cmd_verify(ns: argparse.Namespace) -> tuple[int, list[str]]:
    from .oracle import BoundExceeded, _check_bound
    try:
        # the whole range is refused before any n is checked
        for n in range(ns.n_from, ns.n_to + 1):
            _check_bound(n, ns.oracle_bound)
    except BoundExceeded as e:
        raise UsageError(str(e)) from e
    lines = []
    code = EXIT_OK
    for n in range(ns.n_from, ns.n_to + 1):
        problem = _verify_one(n, ns.oracle_bound, ns.seed)
        if problem is None:
            lines.append(f"n={n} PASS")
        else:
            lines.append(f"n={n} FAIL: {problem}")
            code = EXIT_FAIL
    return code, ["\n".join(lines) + "\n"]


_DISPATCH = {
    "compute": cmd_compute,
    "table": cmd_table,
    "matrix": cmd_matrix,
    "graph": cmd_graph,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def _write_output(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces to path, each as it comes. A regular file, or one
    that does not exist yet, gets a fully written and synced new file beside
    it that is then renamed onto it, so PATH ends up with all of the output
    or stays as it was, also when making a piece fails; a symbolic link
    there is followed, not replaced. Anything else -- a device, a FIFO,
    /dev/stdout -- and a path whose directory takes no new file is opened and
    written through, as a plain open would."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if regular:
        real = os.path.realpath(path)
        head, tail = os.path.split(real)
        # a short tail keeps the name within NAME_MAX whenever tail is
        tmp = os.path.join(
            head, f".{tail[:200]}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            fh = open(tmp, "x")
        except OSError:
            regular = False
    if not regular:
        with open(path, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        return
    try:
        with fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, real)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            # report the path that was asked for, not the temporary file
            raise OSError(e.errno, e.strerror, path) from e
        raise


def _write_stdout(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout, each as it comes, and flush. After a
    failed write (a full device, a reader that quit) fd 1 is pointed at
    os.devnull, so the flush at exit finds nothing left to fail on. No
    stdout at all (fd 1 closed at start) is one that takes nothing."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except OSError:
        # skipped for a stream with no descriptor or a closed one
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise


def _report(message: str) -> None:
    """Write message to stderr if it takes it; the exit code stands either
    way, also when stderr is closed or its write fails."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        sys.stderr.write(message + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed the message
        return int(e.code or 0)
    try:
        # the pieces are made while they are written, so a failure after
        # the first one is mapped here too
        code, pieces = _DISPATCH[ns.command](_checked(ns))
        if ns.output is not None:
            _write_output(ns.output, pieces)
        else:
            _write_stdout(pieces)
    except UsageError as e:
        _report(f"error: {e}")
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as e:
        # a remainder in the recursion (InexactDivision), a rounded Decimal
        # count, a constructed solution that fails its own equation or a
        # miscounted listing: a bug in cycleq, not in the request
        _report(f"internal error: {e}")
        return EXIT_INTERNAL
    except OSError as e:  # PATH or stdout not writable
        _report(f"error: {e}")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
