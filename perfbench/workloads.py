"""The two workloads: fixed request lists for `cycleq.cli.main(argv)`.

Every pass of a workload sends the same requests, so the amount of work does
not depend on the seed. The seed only shuffles the order inside each pass and
becomes the `verify --seed` value, which changes which random conjugates the
sigma-independence check draws but not how many permutations it visits.
README.md says why each request is there.
"""

from __future__ import annotations

# Highly composite n from 360 to 10080, then a sweep over many small n and
# the graph as an exported product. Every n >= 1561 has more than 4300 digits
# in |Q_n|; as long as the CLI prints counts through Python's int-to-str
# guard, those requests exit 2 after the count is done. They stay in on
# purpose (see README.md). No request takes much more than a second, so a
# 50 s run sends each one about ten times. Fifteen requests a pass, with
# `compute 720` and `compute 5040` twice: by latency, six come below the
# three ~0.2 s requests (`table 2 200 -f csv`, `matrix 2520`,
# `compute 2520`) that hold the median, and the top 1.5 requests are
# `compute 10080` and half of the `table 2 400` samples, which hold p90.
COUNT = [
    ["compute", "360"],
    *[["compute", "720"]] * 2,
    ["compute", "1260"],
    ["compute", "2520"],
    *[["compute", "5040"]] * 2,
    ["compute", "10080"],
    ["matrix", "2520"],
    ["table", "2", "400"],
    ["table", "2", "200", "-f", "csv"],
    ["matrix", "12"],
    ["matrix", "60", "-f", "json"],
    ["graph", "5040", "-f", "dot"],
    ["graph", "5040", "-f", "json"],
]

# Fifteen requests a pass too. The cheap solves come more often than the two
# heavy requests, and in numbers that put the pass's median latency in the
# middle of the five `solve 12 4 4` (ranks 6-10 of 15 by latency) and its
# p90 in the middle of the `solve 9 9 9` samples (the top 1.5 requests are
# `verify 2 8` and half of those), so both percentiles are medians of one
# kind of request instead of a rank that falls between two kinds.
SOLVE = [
    ["solve", "9", "9", "9"],
    ["solve", "10", "5", "5"],
    *[["solve", "10", "5", "5", "-f", "json"]] * 2,
    *[["solve", "12", "4", "4"]] * 5,
    *[["solve", "9", "3", "3"]] * 3,
    *[["solve", "9", "3", "3", "-f", "json"]] * 2,
]

WORKLOADS = ("count", "verify-solve")


def requests(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass, before the seed shuffles them."""
    if workload == "count":
        return COUNT
    return [["verify", "2", "8", "--seed", str(seed)], *SOLVE]
