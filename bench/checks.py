"""The benchmark's own references and output checks.

Nothing here imports ascentseq: every expected value is computed or
recorded independently of the code under test, so a change to the package
cannot move its own reference.

- counts are compared with A007317 computed from `math.comb`;
- `coeffs` and `table` outputs are compared with SHA-256 digests, and
  verify reports with their set of record ids, all recorded from the
  outputs of commit 3cba779 (the package as first imported);
- residuals must be the zero series;
- enumerations must be complete, sorted and duplicate-free, and a seeded
  sample must pass a naive containment check written here.

A check takes the operation's exit code and standard output (bytes) and
returns None when the output is correct, or a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations

ENUMERATE_SAMPLE = 200


def a007317(n: int) -> int:
    """Binomial convolution of the Catalan numbers, for n >= 1."""
    return sum(math.comb(n - 1, k) * (math.comb(2 * k, k) // (k + 1)) for k in range(n))


#: SHA-256 of the standard output of each `coeffs` / `table` command line.
DIGESTS = {
    "coeffs --gf C_pair --order 60 --format json":
        "e0673e48290c8671ed5a4b0e6cedd2adf9711464567c543f9b51b18e1d2a3508",
    "coeffs --gf D_pair --order 60 --format json":
        "ebdad31b24aae9bdb723c6c9981595654860481a1a6dfdb35035515bfbd3ec83",
    "coeffs --gf C_0021 --order 60 --format json":
        "d3c708a9dfd75e54f0dc3e1eb37a2406598be33eabc195046b5d19d83382b317",
    "coeffs --gf D_0021 --order 60 --format json":
        "165587f55ea30b18603e562cad923b8cc745921a73da5a35bcbab4746f052f28",
    "coeffs --gf C_total_pair --order 300 --format json":
        "42cacea1a28ea180796558f19282ecb26cef0ae7e8ef1d580a8173de9b23200a",
    "coeffs --gf f --order 150 --format json":
        "555821ed9f0b6a9eeb6be486ffd533027efddb9afb4fa8f983fbdeebc7018c55",
    "coeffs --gf g --order 150 --format json":
        "438c716cb64e7b82f127f656afc542678af8f6a7c28df64c9457aa1cba8bab8a",
    "table --family a0 --n 40":
        "7c5c74aa5a2d4d79cdfa3e9891ff07d9e2d14d4f9ba54d0351aa32363cc66242",
    "table --family pair --n 60":
        "1686484390a19b9e3c48f6356c6c4ef77cc60fe75c05fffb65cc5663114030cf",
    "coeffs --gf C_pair --order 8 --format json":
        "790bb124d87c96b1376f6868b28d323b2b8be122f266d9f86a5c4ac6dd9cf0ab",
    "coeffs --gf D_pair --order 8 --format json":
        "4054385119f6d02ddd07ee6479ae0cfde1fa5b044461d6a4a18822b94844acdd",
    "coeffs --gf C_0021 --order 8 --format json":
        "940d8fa91b77d0e5ea8adf8d51c235788d0ee05fd7ba954b37abf9e1e671d9c7",
    "coeffs --gf D_0021 --order 8 --format json":
        "e3955fbfa4cb878908d76598e92198ff9c939604a8cb3b2dbeac4c5f0a65fa3e",
    "coeffs --gf C_total_pair --order 20 --format json":
        "e4876a4d88ad71d174766a2483b49055f14c835583690b301de7673083e4d8b0",
    "coeffs --gf f --order 12 --format json":
        "179ac5f1ac34be2557901262ec7f5d88e624b957906550a5b698ec2e41bd6896",
    "coeffs --gf g --order 12 --format json":
        "af7a7436c66f6658fce59ae8691b3b6799301432a32117ea058d6c5195b16608",
    "table --family a0 --n 7":
        "b3a9b3f23368368e45333dc39bb2e7f983db4637556c1f56a57a212685c13dfb",
    "table --family pair --n 8":
        "fd7e9c6ec4913415144853da4df16fa5337e29dd10c215552b4893bbd0d69476",
}

PAIR_IDS = (
    "pair.counts.pentagon",
    "pair.counts.recurrence_vs_formula",
    "pair.gf.coefficients",
    "pair.gf.diagonal_ones",
    "pair.gf.residual_c",
    "pair.gf.residual_d",
    "pair.gf.total_vs_formula",
    "pair.golden.level_arrays",
    "pair.labels.rule_vs_definition",
    "pair.relations.seven_identities",
)
T0021_IDS = (
    "t0021.columns.first_vs_f",
    "t0021.columns.ratio_is_g",
    "t0021.counts.pentagon",
    "t0021.counts.recurrence_vs_formula",
    "t0021.counts.simulation_vs_recurrence",
    "t0021.gf.coefficients",
    "t0021.gf.level_totals",
    "t0021.gf.residual_c",
    "t0021.gf.residual_d",
    "t0021.gf.total_vs_formula",
    "t0021.golden.level_arrays",
    "t0021.labels.rule_vs_definition",
    "t0021.relations.row_shift",
    "t0021.relations.single_increasing_node",
)
WILF_IDS = ("wilf.counts.equal", "wilf.counts.formula")

#: Record ids of each verify suite run, by its label in `run.py`.
VERIFY_IDS = {
    "verify pair n_max=10 gf_order=20 oracle_max=7": PAIR_IDS,
    "verify 0021 n_max=10 gf_order=20 oracle_max=7": T0021_IDS,
    "verify wilf n_max=11": WILF_IDS,
    "verify pair n_max=5 gf_order=10 oracle_max=5": PAIR_IDS,
    "verify 0021 n_max=5 gf_order=10 oracle_max=5": T0021_IDS,
    "verify wilf n_max=7": WILF_IDS,
}


def _exit_zero(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def check_count(expected: int):
    def check(code: int, out: bytes) -> str | None:
        got = out.decode().strip()
        return _exit_zero(code) or (
            None if got == str(expected) else f"count {got!r}, expected {expected}"
        )

    return check


def check_digest(command: str):
    expected = DIGESTS[command]

    def check(code: int, out: bytes) -> str | None:
        got = hashlib.sha256(out).hexdigest()
        return _exit_zero(code) or (
            None if got == expected else f"output digest {got[:12]}, expected {expected[:12]}"
        )

    return check


def check_verify(label: str):
    expected = set(VERIFY_IDS[label])

    def check(code: int, out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if code != 0:
            return f"exit code {code}, expected 0"
        if not lines or lines[-1] != "overall: PASS":
            return "report does not end in 'overall: PASS'"
        records = [line.split() for line in lines[1:-1]]
        if any(r[0] != "PASS" for r in records):
            return "a record did not pass"
        ids = {r[1] for r in records}
        if ids != expected:
            return f"record ids differ: missing {sorted(expected - ids)}, extra {sorted(ids - expected)}"
        return None

    return check


def check_residual(order: int):
    def check(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        data = json.loads(out)
        if data["order"] != order:
            return f"residual order {data['order']}, expected {order}"
        return None if data["terms"] == [] else f"residual has {len(data['terms'])} nonzero terms"

    return check


def parse_sequence(text: str) -> tuple[int, ...]:
    """Digit string, or dot-separated when an entry exceeds 9."""
    parts = text.split(".") if "." in text else text
    return tuple(int(p) for p in parts)


def is_ascent_sequence(word: tuple[int, ...]) -> bool:
    asc = 0
    for i, x in enumerate(word):
        if (i == 0 and x != 0) or x < 0 or x > asc + 1:
            return False
        if i and x > word[i - 1]:
            asc += 1
    return bool(word)


def contains_naive(word: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Some subsequence of word is order-isomorphic to pattern."""
    for sub in combinations(word, len(pattern)):
        rank = {v: i for i, v in enumerate(sorted(set(sub)))}
        if tuple(rank[v] for v in sub) == pattern:
            return True
    return False


def check_enumerate(n: int, pattern: tuple[int, ...], rng):
    """All length-n avoiders of pattern: A007317(n) distinct sorted lines,
    of which a sample drawn with rng are ascent sequences avoiding it."""
    expected = a007317(n)

    def check(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        seqs = [parse_sequence(line) for line in out.decode().splitlines()]
        if len(seqs) != expected:
            return f"{len(seqs)} sequences, expected {expected}"
        if any(a >= b for a, b in zip(seqs, seqs[1:])):
            return "sequences are not strictly increasing"
        for s in rng.sample(seqs, min(ENUMERATE_SAMPLE, len(seqs))):
            if len(s) != n or not is_ascent_sequence(s) or contains_naive(s, pattern):
                return f"sampled sequence {s} is not a length-{n} avoider"
        return None

    return check
