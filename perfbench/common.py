"""Shared plumbing: paths, the pinned environment, the host canary,
statistics, the environment record and the span tracer.

Everything here is standard library only, so importing it costs nothing
that a workload would have to account for.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.metadata
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-request working directories,
#: campaign journal roots and trace dumps.  Listed in ``.gitignore``.
WORK = ROOT / ".perfbench-work"

#: Variables every benchmark process and every child it spawns gets.
#: ``PYTHONDONTWRITEBYTECODE=1`` matches the reference host, so every
#: cold process recompiles ``src/repro``; ``PYTHONHASHSEED=0`` pins set
#: and dict iteration orders that depend on string hashes.
PINNED = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def program_present() -> bool:
    """True when the checkout holds the program under test."""
    return (SRC / "repro" / "__main__.py").is_file()


def pinned_env() -> dict[str, str]:
    """The explicit environment for the benchmark and its children.

    Drops every ``REPRO_*`` variable (``REPRO_BASE_SEED`` re-seeds every
    output) and every other ``PYTHON*`` variable, then sets
    :data:`PINNED` and a ``PYTHONPATH`` of exactly ``src``.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def env_is_pinned() -> bool:
    return (all(os.environ.get(k) == v for k, v in PINNED.items())
            and os.environ.get("PYTHONPATH") == str(SRC)
            and not any(k.startswith("REPRO_") for k in os.environ))


# -- host canary ---------------------------------------------------------------

#: The canary's time on the reference host (2-core KVM guest, Python
#: 3.11.7) in a fast phase.  End-to-end times are reported at this host
#: speed: each one is divided by the canary measured around it over this
#: constant (see README, "Host-normalized times").
REF_CANARY_MS = 5.0
#: Canary samples this close to a request (seconds) set its host factor.
HOST_WINDOW_S = 2.5


def _canary_loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def canary_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop, in milliseconds.

    Timed at the start and the end of every run and between requests.
    It measures the host, not the program: a run whose canary reads slow
    sat in a slow host phase.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _canary_loop()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


class HostCanary:
    """Timestamped canary samples over a run, in seconds from its start."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.samples: list[tuple[float, float]] = []

    def sample(self, repeats: int) -> None:
        offset = time.perf_counter() - self.t0
        self.samples.append((offset, canary_ms(repeats)))

    def factors(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Host slowdown around each ``(start, duration)`` interval.

        The median of the samples taken within :data:`HOST_WINDOW_S` of
        the interval (at least the nearest sample on each side), divided
        by :data:`REF_CANARY_MS`: 1.0 on the reference host in a fast
        phase, about 1.5 in a slow one.  The window smooths the noise of
        single samples but still follows phases that last seconds.
        """
        times = [t for t, _ in self.samples]
        factors = []
        for start, duration in intervals:
            first = min(bisect.bisect_left(times, start - HOST_WINDOW_S),
                        max(bisect.bisect_right(times, start) - 1, 0))
            last = max(bisect.bisect_right(times, start + duration
                                           + HOST_WINDOW_S) - 1,
                       min(bisect.bisect_left(times, start + duration),
                           len(times) - 1))
            window = [c for _t, c in self.samples[first:last + 1]]
            factors.append(statistics.median(window) / REF_CANARY_MS)
        return factors


# -- statistics ----------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation (0 < q < 100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- memory --------------------------------------------------------------------

def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the environment record ----------------------------------------------------

def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_rev() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree
    (git would otherwise report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/repro``'s Python files: the revision stand-in
    for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What a result needs next to it to be compared across hosts."""
    return {
        "gitRev": _git_rev(),
        "srcSha256": source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "dontWriteBytecode": bool(sys.dont_write_bytecode),
        "pythonHashSeed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
    }


# -- spans ---------------------------------------------------------------------

def no_span(_name: str, items: int = 1):
    """Stand-in for :meth:`Tracer.span` when a request is not traced."""
    return nullcontext()


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int
    #: Work items the call processed (frames, records), for per-item cost.
    items: int = 1

    def to_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end,
                "request": self.request, "items": self.items}


@dataclass
class Tracer:
    """In-memory span recorder for the benchmark's own call sites.

    A span wraps one call into a layer's public function.  Spans nest
    through an explicit stack, carry the id of the request they belong
    to, and stay in memory until :meth:`dump` writes them out.
    """

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    #: Id of the request new spans belong to; -1 during set-up.
    request: int = -1

    @contextmanager
    def span(self, name: str, items: int = 1):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, parent, name, time.perf_counter(), 0.0,
                      self.request, items)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    @property
    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> int:
        """Attach a span recorded elsewhere (a child process) by its
        ``perf_counter`` stamps, which share the system-wide monotonic
        clock on Linux."""
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, name, start, end,
                               self.request))
        return span_id

    def self_times(self) -> dict[str, list[float]]:
        """Self time (seconds) of every request span, grouped by name.

        A span's self time is its duration minus the part of that
        interval its child spans cover.  Set-up spans are left out.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        grouped: dict[str, list[float]] = {}
        for span in self.spans:
            if span.request < 0:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            grouped.setdefault(span.name, []).append(
                span.end - span.start - covered)
        return grouped

    def per_item_ms(self, name: str) -> float:
        """Median over ``name`` spans of duration per item, in ms; 0 when
        the run made no such call."""
        return median([(s.end - s.start) * 1e3 / s.items
                       for s in self.spans if s.name == name and s.items])

    def dump(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)
            handle.write("\n")
