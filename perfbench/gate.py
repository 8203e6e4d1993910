"""Correctness gate for benchmark calls.

Every CLI call the benchmark makes is judged here, in both modes (child
processes and the in-process traced run).  A call fails when

- it exits with a nonzero code;
- a table's row count differs from the closed-form count, which the
  benchmark derives from ``decompose <d> --format json`` before timing;
- its first line is not the expected table header;
- ``verify`` reports ``passed: false`` (or not every check passed), or
  ``decompose`` JSON is not a decomposition of the d it was asked for;
- the same argv produced a different stdout sha256 earlier in the run.

stdout is hashed and counted as it streams; only the first
``HEAD_LIMIT`` bytes are kept, enough to parse ``verify`` and
``decompose`` JSON, so a 33 MB table is never buffered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

HEAD_LIMIT = 1 << 20

# lines around the table rows in text output: cohomology has a title and
# a column header; nonalgebraic has a title, a column header and the
# has_nonalgebraic footer (for every d >= 7, which all workloads use)
FRAME_LINES = {"cohomology": 2, "nonalgebraic": 3}


class StreamDigest:
    """sha256, byte count, line count and a bounded head of one stream."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._head = bytearray()
        self.nbytes = 0
        self.lines = 0

    def feed(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        self.nbytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if len(self._head) < HEAD_LIMIT:
            self._head += chunk[: HEAD_LIMIT - len(self._head)]

    @property
    def sha256(self) -> str:
        return self._sha.hexdigest()

    @property
    def head(self) -> bytes:
        return bytes(self._head)

    @property
    def complete(self) -> bool:
        """True when the head holds the whole stream."""
        return self.nbytes == len(self._head)


class TextSink:
    """File-like stdout replacement for in-process calls."""

    def __init__(self) -> None:
        self.digest = StreamDigest()

    def write(self, text: str) -> int:
        self.digest.feed(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # version | decompose | cohomology | nonalgebraic | verify
    argv: tuple[str, ...]
    metric: Optional[str] = None  # end-to-end timing it feeds; None = untimed
    band: str = ""
    expected_rows: Optional[int] = None
    header: Optional[str] = None  # expected first line of stdout


@dataclass
class Gate:
    """Judges calls and remembers stdout hashes per argv."""

    hashes: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def judge(self, call: Call, exit_code: int, out: StreamDigest) -> Optional[str]:
        """Return None when the output is correct, else the reason; every
        call counts as attempted and every reason as one failure."""
        self.attempted += 1
        reason = _reason(call, exit_code, out)
        if reason is None:
            seen = self.hashes.setdefault(call.argv, out.sha256)
            if seen != out.sha256:
                reason = "stdout sha256 differs from an earlier identical call"
        if reason is not None:
            self.failures.append({"argv": list(call.argv), "reason": reason})
        return reason

    @property
    def failed(self) -> int:
        return len(self.failures)


def rows_of(call: Call, out: StreamDigest) -> int:
    """Result records in one output: table rows, or verify check results."""
    if call.kind in FRAME_LINES:
        return out.lines - FRAME_LINES[call.kind]
    if call.kind == "verify" and out.complete:
        try:
            return len(json.loads(out.head)["checks"])
        except (ValueError, KeyError, TypeError):
            return 0
    return 0


def _reason(call: Call, exit_code: int, out: StreamDigest) -> Optional[str]:
    if exit_code != 0:
        return f"exit code {exit_code}"
    if call.header is not None:
        first = out.head.split(b"\n", 1)[0].decode("utf-8", "replace")
        if first != call.header:
            return f"header {first!r} != {call.header!r}"
    if call.expected_rows is not None:
        got = rows_of(call, out)
        if got != call.expected_rows:
            return f"{got} rows, closed form says {call.expected_rows}"
    if call.kind in ("verify", "decompose"):
        if not out.complete:
            return "JSON output larger than the parse limit"
        try:
            payload = json.loads(out.head)
        except ValueError as exc:
            return f"unparsable JSON: {exc}"
        if call.kind == "verify":
            checks = payload.get("checks") or []
            if payload.get("passed") is not True or not all(c.get("passed") for c in checks):
                return "verify reported passed: false"
        else:
            try:
                decomposition_terms(payload, int(call.argv[1]))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                return f"unusable decomposition: {exc}"
    return None


# ---------------------------------------------------------------------------
# closed-form row counts from the motive decomposition


def decomposition_terms(payload: dict, d: int) -> list[tuple[int, int]]:
    """(n, j) terms from the parsed ``decompose <d> --format json`` output."""
    if payload.get("d") != d:
        raise ValueError(f"decompose answered for d={payload.get('d')}, asked {d}")
    return [(t["n"], t["j"]) for t in payload["terms"]]


def table_rows(terms: list[tuple[int, int]], coeff: str) -> int:
    """Rows of ``cohomology <d> --coeff <coeff>``: the Artin piece M0 has one
    class; a Rost motive M_n has 2^(n-1) + 1 classes 2-adically (1, pi and
    one rho_bar per degree 4m < top), one per degree 0..2^(n+1)-2 mod 2,
    and one per even degree with Z/2^s coefficients."""
    per_motive = {
        "2adic": lambda n: 2 ** (n - 1) + 1,
        "mod2": lambda n: 2 ** (n + 1) - 1,
        "mod2s": lambda n: 2**n,
    }[coeff]
    return sum(1 if n == 0 else per_motive(n) for n, _ in terms)


def nonalgebraic_rows(terms: list[tuple[int, int]]) -> int:
    """Rows of ``nonalgebraic <d>``: distinct degrees 4m + 2j over the terms
    M_n*T^j with n >= 1 and 1 <= m < 2^(n-1), leaving out the Chow torsion
    degrees 2^(n+1) - 2^(i+1), 1 <= i < n, of each motive."""
    degrees = set()
    for n, j in terms:
        if n < 1:
            continue
        chow = {2 ** (n + 1) - 2 ** (i + 1) for i in range(1, n)}
        degrees.update(4 * m + 2 * j for m in range(1, 2 ** (n - 1)) if 4 * m not in chow)
    return len(degrees)


# ---------------------------------------------------------------------------
# self-test: corrupted output must be counted as a failure


def self_test(table: Call, table_bytes: bytes) -> list[str]:
    """Feed genuine and corrupted copies of one correct table output (and
    synthetic verify/exit failures) through a fresh gate.  Returns the
    corruptions the gate failed to catch; empty means the gate works."""

    def digest(data: bytes) -> StreamDigest:
        out = StreamDigest()
        out.feed(data)
        return out

    lines = table_bytes.splitlines(keepends=True)
    flipped = bytearray(table_bytes)
    flipped[-2] ^= 0x01  # one character of the last row
    verify = Call("verify", ("verify", "--scope", "all", "--format", "json"))
    bad_verify = json.dumps({"scope": "all", "passed": False, "checks": [{"passed": False}]})

    gate = Gate()
    missed = []
    if gate.judge(table, 0, digest(table_bytes)) is not None:
        missed.append("genuine output rejected")
    cases = [
        ("dropped row", table, 0, b"".join(lines[:-1])),
        ("changed byte on a repeated argv", table, 0, bytes(flipped)),
        ("nonzero exit", table, 1, table_bytes),
        ("verify passed false", verify, 0, bad_verify.encode()),
        ("truncated verify JSON", verify, 0, bad_verify.encode()[:-1]),
    ]
    for name, call, code, data in cases:
        if gate.judge(call, code, digest(data)) is None:
            missed.append(name)
    if gate.failed != len(cases) - len(missed) or gate.attempted != len(cases) + 1:
        missed.append("failure count does not match the corruptions fed")
    return missed
