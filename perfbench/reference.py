"""Independent reference for every request the benchmark sends.

Nothing here imports cycleq. Class counts come from Burnside's lemma applied
to Z_n x Z_n acting on S_n:

    |Q_n| = (1/n^2) * sum over d | n of phi(n/d)^2 * d! * (n/d)^d

with this module's own divisor and totient code and an exact division. The
README's golden sequence for n = 2..19 pins the formula itself at import.

Decimal conversions go through chunks of CHUNK digits, below Python's default
4300-digit int/str guard, so checking a large count never trips the guard
that the program under test may trip.
"""

from __future__ import annotations

import json
import re
from math import factorial

CHUNK = 4000

GOLDEN = {
    2: 1, 3: 2, 4: 3, 5: 8, 6: 24, 7: 108, 8: 640, 9: 4492, 10: 36336,
    11: 329900, 12: 3326788, 13: 36846288, 14: 444790512, 15: 5811886656,
    16: 81729688428, 17: 1230752346368, 18: 19760413251956,
    19: 336967037143596,
}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(m: int) -> int:
    result, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


_burnside_memo: dict[int, int] = {}


def class_count(n: int) -> int:
    """|Q_n| by Burnside; raises ArithmeticError if the division is inexact."""
    if n not in _burnside_memo:
        total = sum(totient(n // d) ** 2 * factorial(d) * (n // d) ** d
                    for d in divisors(n))
        q, rem = divmod(total, n * n)
        if rem:
            raise ArithmeticError(f"Burnside sum for n={n} leaves remainder {rem}")
        _burnside_memo[n] = q
    return _burnside_memo[n]


for _n, _q in GOLDEN.items():
    if class_count(_n) != _q:
        raise AssertionError(f"Burnside gives {class_count(_n)} for n={_n}, golden is {_q}")


def solution_count(n: int, k: int) -> int:
    """Solutions of sigma^k xi == xi sigma^l for a valid family: k! (n/k)^k.

    With k == n this is n!, the whole group solving the trivial equation.
    """
    return factorial(k) * (n // k) ** k


def to_decimal(x: int) -> str:
    """str(x) for x >= 0 of any size."""
    if x < 10 ** CHUNK:
        return str(x)
    hi, lo = divmod(x, 10 ** CHUNK)
    return to_decimal(hi) + str(lo).zfill(CHUNK)


def to_int(s: str) -> int:
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a decimal: {s[:40]!r}")
    value = 0
    for i in range(0, len(s), CHUNK):
        part = s[i:i + CHUNK]
        value = value * 10 ** len(part) + int(part)
    return value


# ---------------------------------------------------------------------------
# per-subcommand checks: each returns None when stdout is right, else a reason
# ---------------------------------------------------------------------------

def _split(argv: list[str]) -> tuple[list[int], dict[str, str]]:
    positional, flags = [], {}
    rest = iter(argv[1:])
    for a in rest:
        if a.startswith("-"):
            flags[a] = next(rest)
        else:
            positional.append(int(a))
    return positional, flags


def exceeds_digit_limit(argv: list[str]) -> bool:
    """Whether the right stdout for `argv` holds a count of more than 4300
    digits, which Python's default int/str guard refuses to print."""
    pos, _ = _split(argv)
    if argv[0] in ("compute", "matrix"):
        ns = pos[:1]
    elif argv[0] == "table":
        ns = range(pos[0], pos[1] + 1)
    else:
        return False
    return any(class_count(n) >= 10 ** 4300 for n in ns)


def _check_compute(pos, fmt, out):
    (n,) = pos
    q = to_decimal(class_count(n))
    want = f'{{"n": {n}, "classes": "{q}"}}\n' if fmt == "json" else f"{q}\n"
    return None if out == want else f"compute {n} differs from Burnside"


def _check_table(pos, fmt, out):
    lo, hi = pos
    rows = [(str(n), to_decimal(class_count(n))) for n in range(lo, hi + 1)]
    if fmt == "csv":
        want = "\n".join(["n,classes"] + [f"{n},{q}" for n, q in rows]) + "\n"
    elif fmt == "json":
        want = "[" + ", ".join(f'{{"n": {n}, "classes": "{q}"}}' for n, q in rows) + "]\n"
    else:
        wn = max(1, max(len(n) for n, _ in rows))
        wc = max(len("classes"), max(len(q) for _, q in rows))
        want = "\n".join(["n".rjust(wn) + "  " + "classes".rjust(wc)]
                         + [n.rjust(wn) + "  " + q.rjust(wc) for n, q in rows]) + "\n"
    return None if out == want else f"table {lo}..{hi} differs from Burnside"


def _check_matrix(pos, fmt, out):
    (n,) = pos
    if fmt == "json":
        doc = json.loads(out)
        ks = [c["k"] for c in doc["columns"]]
        phis = [to_int(c["phi"]) for c in doc["columns"]]
        hs = [to_int(c["h"]) for c in doc["columns"]]
        prods = [to_int(c["product"]) for c in doc["columns"]]
        total = to_int(doc["total"])
    else:
        lines = out.split("\n")
        if len(lines) != 6 or lines[5] != "":
            return "matrix text does not have 4 rows and a total line"
        rows = [line.split() for line in lines[:4]]
        if [r[0] for r in rows] != ["k|n", "phi(n/k)", "h(n,k)", "phi*h"]:
            return "matrix row labels differ"
        ks = [int(c) for c in rows[0][1:]]
        phis, hs, prods = ([to_int(c) for c in r[1:]] for r in rows[1:])
        prefix = f"|Q_{n}| = "
        if not lines[4].startswith(prefix):
            return "matrix total line malformed"
        total = to_int(lines[4][len(prefix):])
    if ks != divisors(n):
        return f"matrix columns {ks} are not the divisors of {n}"
    if phis != [totient(n // k) for k in ks]:
        return "matrix phi row differs from totient(n/k)"
    if any(p != f * h for p, f, h in zip(prods, phis, hs)):
        return "matrix product row is not phi*h"
    if total != sum(prods) or total != class_count(n):
        return "matrix total differs from Burnside"
    return None


_DOT_VERTEX = re.compile(r'    "(\d+),(\d+)" \[label="<\1,\2>"\];')
_DOT_ARC = re.compile(r'    "(\d+),(\d+)" -> "(\d+),(\d+)";')


def _check_graph(pos, fmt, out):
    (n,) = pos
    if fmt == "json":
        doc = json.loads(out)
        vertices = [tuple(v) for v in doc["vertices"]]
        arcs = [(tuple(a), tuple(b)) for a, b in doc["arcs"]]
    else:
        lines = out.split("\n")
        if lines[0] != f"digraph gamma_{n} {{" or lines[-2:] != ["}", ""]:
            return "dot header or footer malformed"
        vertices, arcs = [], []
        for line in lines[1:-2]:
            m = _DOT_VERTEX.fullmatch(line)
            if m:
                vertices.append((int(m[1]), int(m[2])))
                continue
            m = _DOT_ARC.fullmatch(line)
            if not m:
                return f"dot line malformed: {line!r}"
            a, b = (int(m[1]), int(m[2])), (int(m[3]), int(m[4]))
            arcs.append((a, b))
    vset = set(vertices)
    if len(vertices) != n or len(vset) != n:
        return f"graph has {len(vset)} distinct vertices, expected n={n}"
    if any(n % k or not 1 <= l <= n for k, l in vertices):
        return "graph vertex outside <k|n, 1..n>"
    for a, b in arcs:
        if a not in vset or b not in vset or b[0] % a[0] or b[0] == a[0]:
            return f"graph arc {a}->{b} is not between vertices with k | k'"
    return None


def _solutions_problem(n, k, l, count, perms):
    """Checks a listed solution set; `perms` may be a one-shot iterator."""
    want = solution_count(n, k)
    if count != want:
        return f"solve {n} {k} {l}: count {count}, expected {want}"
    seen = set()
    full = list(range(1, n + 1))
    for p in perms:
        if p is None or sorted(p) != full:
            return f"solve {n} {k} {l}: listed line is not a permutation of 1..{n}"
        x = [v - 1 for v in p]
        if any(x[(i + k) % n] != (x[i] + l) % n for i in range(n)):
            return f"solve {n} {k} {l}: {p} fails the equation"
        seen.add(sum(v * n ** i for i, v in enumerate(x)))
    if len(seen) != want:
        return f"solve {n} {k} {l}: {len(seen)} distinct solutions listed, expected {want}"
    return None


def _parse_line(line):
    if not (line.startswith("[") and line.endswith("]")):
        return None
    return [int(v) for v in line[1:-1].split()]


def _check_solve(pos, fmt, out):
    n, k, l = pos
    if fmt == "json":
        doc = json.loads(out)
        if (doc["n"], doc["k"], doc["l"]) != (n, k, l):
            return "solve json header differs"
        return _solutions_problem(n, k, l, doc["count"], doc["solutions"])
    lines = out.split("\n")
    if lines[-1] != "" or not lines[0].startswith("count="):
        return "solve text malformed"
    return _solutions_problem(n, k, l, int(lines[0][len("count="):]),
                              map(_parse_line, lines[1:-1]))


def _check_verify(pos, fmt, out):
    lo, hi = pos
    want = "".join(f"n={m} PASS\n" for m in range(lo, hi + 1))
    return None if out == want else "verify did not print PASS for every n"


_CHECKS = {
    "compute": _check_compute,
    "table": _check_table,
    "matrix": _check_matrix,
    "graph": _check_graph,
    "solve": _check_solve,
    "verify": _check_verify,
}


def check(argv: list[str], out: str) -> str | None:
    """None when `out` is the right stdout for `argv`, else what is wrong."""
    pos, flags = _split(argv)
    fmt = flags.get("-f", "text")
    try:
        return _CHECKS[argv[0]](pos, fmt, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"{argv[0]} output unparsable: {type(e).__name__}: {e}"
