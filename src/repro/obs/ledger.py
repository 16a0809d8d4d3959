"""Privacy audit ledger: what the pipeline *did* with the budget.

FLEX-style systems are auditable because their sensitivity derivation
is inspectable; UPA's sensitivity is *sampled and fitted*, which makes
inspectability more important, not less.  The ledger records, per
``UPASession.run``/``run_sql``, the fitted normal parameters (mu,
sigma) per output coordinate, the inferred output range ``O_f``, the
local sensitivity the mechanism was calibrated to, what RANGE ENFORCER
did (clamping, repeated-query matches, record removals), the epsilon
charged against the accountant's balance, and answer-cache hits.

The ledger is **append-only**: entries can be recorded and read, never
edited or removed (``clear`` does not exist by design).  It serializes
to JSONL — a self-describing header line followed by one JSON object
per entry — and is queryable in-process for tests and ``repro
report``.

The header also records the *execution* context of the run: alongside
the DP configuration (epsilon, n, seed, mechanism), ``UPASession``
refreshes ``backend`` (inline/threads/processes, after legacy
resolution) and ``max_workers`` on every release, so an auditor
reading a ledger can tell a multi-process run from a single-threaded
one — the accounting is identical, the operational blast radius is
not.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple,
)


def _as_floats(values: Any) -> Tuple[float, ...]:
    """Normalize array-likes to a JSON-friendly tuple of floats."""
    if values is None:
        return ()
    try:
        return tuple(float(v) for v in values)
    except TypeError:  # scalar
        return (float(values),)


@dataclass(frozen=True)
class LedgerEntry:
    """One audited release (or cache hit) of a query answer.

    Not every field is safe to publish.  ``fitted_mean`` /
    ``fitted_std``, ``range_lower`` / ``range_upper``,
    ``local_sensitivity`` and ``estimated_local_sensitivity`` are
    computed from the data and carry no noise: for a count query
    ``fitted_mean`` is the exact count.  Treat an entry like
    ``UPAResult.raw_output`` — curator-side — unless those fields are
    dropped.
    """

    #: position in the ledger (0-based, append order).
    sequence: int
    query: str
    epsilon_charged: float
    delta: float
    mechanism: str
    sample_size: int
    #: MLE normal fit per output coordinate (Algorithm 1).
    fitted_mean: Tuple[float, ...]
    fitted_std: Tuple[float, ...]
    #: the inferred output range O_f per coordinate.
    range_lower: Tuple[float, ...]
    range_upper: Tuple[float, ...]
    #: range width the mechanism's noise was calibrated to.
    local_sensitivity: float
    #: the Definition II.1 estimate (Fig. 2(a) comparison).
    estimated_local_sensitivity: float
    #: RANGE ENFORCER (Algorithm 2) outcomes.
    clamped: bool
    matched_prior: bool
    records_removed: int
    #: accountant balance after this charge (None: no accountant).
    accountant_spent_epsilon: Optional[float] = None
    accountant_remaining_epsilon: Optional[float] = None
    #: the answer came from the repeat-submission cache (no new spend).
    cache_hit: bool = False
    elapsed_seconds: float = 0.0
    unix_time: float = field(default_factory=time.time)

    @property
    def clamp_count(self) -> int:
        return 1 if self.clamped else 0

    def to_dict(self) -> dict:
        data = asdict(self)
        for key in ("fitted_mean", "fitted_std", "range_lower", "range_upper"):
            data[key] = list(data[key])
        return data


class PrivacyLedger:
    """Thread-safe, append-only record of every budgeted release.

    Example:
        >>> ledger = PrivacyLedger()
        >>> from repro.core import UPASession  # doctest: +SKIP
        >>> session = UPASession(ledger=ledger)  # doctest: +SKIP
    """

    FORMAT = "upa-ledger/1"

    def __init__(self, header: Optional[Dict[str, Any]] = None):
        self._lock = threading.Lock()
        self._entries: List[LedgerEntry] = []
        self.header: Dict[str, Any] = dict(header or {})
        #: observers called with each appended entry (alert engines,
        #: incremental JSONL flushers).  Observer code must never break
        #: a release, so exceptions are swallowed with a warning.
        self._listeners: List[Callable[[LedgerEntry], None]] = []

    def add_listener(self, listener: Callable[[LedgerEntry], None]) -> None:
        """Register ``listener`` to be called after every append."""
        with self._lock:
            self._listeners.append(listener)

    def ensure_header(self, header: Dict[str, Any]) -> None:
        """Fill the header once; later calls are no-ops (the first
        session to touch an anonymous ledger describes it)."""
        with self._lock:
            if not self.header:
                self.header = dict(header)

    def update_header(self, **fields: Any) -> None:
        """Overwrite individual header fields.  For counters that grow
        over the ledger's life (plan-cache hits), where the header is
        written at export time and should carry the final value even
        when a CLI pre-filled it at construction."""
        with self._lock:
            self.header.update(fields)

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self._entries.append(entry)
            listeners = list(self._listeners)
        # Outside the lock: a listener may read the ledger (entries(),
        # update_header()) without deadlocking.
        for listener in listeners:
            try:
                listener(entry)
            except Exception as exc:  # noqa: BLE001 - observer isolation
                warnings.warn(
                    f"ledger listener {listener!r} raised "
                    f"{type(exc).__name__}: {exc}; entry {entry.sequence} "
                    "was recorded, the listener was skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def next_sequence(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[LedgerEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries())

    # -- queries (tests, reports) ------------------------------------
    def query(
        self,
        query_name: Optional[str] = None,
        clamped: Optional[bool] = None,
        matched_prior: Optional[bool] = None,
        cache_hit: Optional[bool] = None,
    ) -> List[LedgerEntry]:
        """Filter entries by any combination of audit dimensions."""
        out = []
        for entry in self.entries():
            if query_name is not None and entry.query != query_name:
                continue
            if clamped is not None and entry.clamped != clamped:
                continue
            if matched_prior is not None and entry.matched_prior != matched_prior:
                continue
            if cache_hit is not None and entry.cache_hit != cache_hit:
                continue
            out.append(entry)
        return out

    def totals(self) -> Dict[str, float]:
        """Ledger-wide aggregates for the report summary."""
        entries = self.entries()
        return {
            "entries": len(entries),
            "epsilon_charged": sum(e.epsilon_charged for e in entries),
            "clamp_count": sum(e.clamp_count for e in entries),
            "matched_prior": sum(1 for e in entries if e.matched_prior),
            "records_removed": sum(e.records_removed for e in entries),
            "cache_hits": sum(1 for e in entries if e.cache_hit),
        }

    # -- serialization -----------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            self.dump_jsonl(handle)

    def dump_jsonl(self, handle: TextIO) -> None:
        """Header line, then one compact JSON object per entry."""
        header = {"format": self.FORMAT, **self.header}
        handle.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for entry in self.entries():
            handle.write(
                json.dumps(entry.to_dict(), sort_keys=True, default=str)
                + "\n"
            )

    def append_jsonl(self, path: str, entry: LedgerEntry) -> None:
        """Flush one entry to ``path`` incrementally (append mode).

        Writes the self-describing header line first when the file does
        not exist yet (or is empty), then appends the entry — so a
        ledger being recorded release by release is valid JSONL at
        every instant, and ``repro report`` / the ``/ledger`` endpoint
        can read it while the run is still in flight.  Contrast with
        :meth:`write_jsonl`, which rewrites the whole file.
        """
        with self._lock:
            header = {"format": self.FORMAT, **self.header}
        needs_header = (
            not os.path.exists(path) or os.path.getsize(path) == 0
        )
        with open(path, "a", encoding="utf-8") as handle:
            if needs_header:
                handle.write(json.dumps(header, sort_keys=True, default=str)
                             + "\n")
            handle.write(
                json.dumps(entry.to_dict(), sort_keys=True, default=str)
                + "\n"
            )
            handle.flush()

    @classmethod
    def read_jsonl(cls, path: str) -> "PrivacyLedger":
        """Load a ledger written by :meth:`write_jsonl`/:meth:`append_jsonl`.

        Crash-safe by design: blank lines are skipped, and a truncated
        or otherwise corrupt line — the normal state of the *final*
        line while another process is appending — produces a
        :class:`RuntimeWarning` and is dropped instead of raising, so
        live readers (``/ledger``, ``repro report``) always get the
        longest valid prefix.
        """
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            return cls()

        def _bad(index: int, what: str) -> None:
            warnings.warn(
                f"{path}:{index + 1}: skipping {what} ledger line "
                "(truncated by a concurrent writer?)",
                RuntimeWarning,
                stacklevel=3,
            )

        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            _bad(0, "corrupt header")
            header = {}
        if not isinstance(header, dict):
            _bad(0, "non-object header")
            header = {}
        header.pop("format", None)
        ledger = cls(header=header)
        for index, line in enumerate(lines[1:], start=1):
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                _bad(index, "corrupt")
                continue
            try:
                for key in ("fitted_mean", "fitted_std",
                            "range_lower", "range_upper"):
                    data[key] = tuple(float(v) for v in data.get(key, ()))
                ledger.append(LedgerEntry(**data))
            except (TypeError, ValueError, KeyError, AttributeError):
                _bad(index, "malformed")
        return ledger


def make_entry(
    *,
    sequence: int,
    query: str,
    epsilon_charged: float,
    delta: float,
    mechanism: str,
    sample_size: int,
    mean: Any,
    std: Any,
    lower: Any,
    upper: Any,
    local_sensitivity: float,
    estimated_local_sensitivity: float,
    clamped: bool,
    matched_prior: bool,
    records_removed: int,
    accountant_spent_epsilon: Optional[float] = None,
    accountant_remaining_epsilon: Optional[float] = None,
    cache_hit: bool = False,
    elapsed_seconds: float = 0.0,
) -> LedgerEntry:
    """Build a :class:`LedgerEntry`, normalizing numpy arrays to tuples."""
    return LedgerEntry(
        sequence=sequence,
        query=query,
        epsilon_charged=float(epsilon_charged),
        delta=float(delta),
        mechanism=mechanism,
        sample_size=int(sample_size),
        fitted_mean=_as_floats(mean),
        fitted_std=_as_floats(std),
        range_lower=_as_floats(lower),
        range_upper=_as_floats(upper),
        local_sensitivity=float(local_sensitivity),
        estimated_local_sensitivity=float(estimated_local_sensitivity),
        clamped=bool(clamped),
        matched_prior=bool(matched_prior),
        records_removed=int(records_removed),
        accountant_spent_epsilon=accountant_spent_epsilon,
        accountant_remaining_epsilon=accountant_remaining_epsilon,
        cache_hit=bool(cache_hit),
        elapsed_seconds=float(elapsed_seconds),
    )
