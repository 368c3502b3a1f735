"""Trace profiler: aggregate span JSONL into per-span-name statistics.

Answers "where did this run spend its simulated time, and how is that
different from the last run?" from a trace file alone:

* :func:`profile_records` — per-span-name count, total and *self* sim-time
  (total minus direct children), min/max durations, plus event counts;
* :func:`critical_path` — the heaviest root-to-leaf chain through the
  span tree (by subtree sim-time, tie-broken by subtree span count then
  by id, so the extraction is deterministic even in a discrete-event
  simulation where most spans are instantaneous);
* :func:`diff_profiles` — per-name deltas between two profiles, the
  regression-hunting view (``repro.cli obs profile a.jsonl --diff b.jsonl``).

The profiler is a pure function of the trace records; its output dict is
sorted and JSON-stable, so same-seed runs profile byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.stable_json import canonical_json


@dataclass
class SpanStats:
    """Aggregate over every closed span sharing one name."""

    name: str
    count: int = 0
    total_time: float = 0.0
    self_time: float = 0.0
    min_time: float = 0.0
    max_time: float = 0.0

    def add(self, duration: float, self_duration: float) -> None:
        if self.count == 0:
            self.min_time = self.max_time = duration
        else:
            self.min_time = min(self.min_time, duration)
            self.max_time = max(self.max_time, duration)
        self.count += 1
        self.total_time += duration
        self.self_time += self_duration

    def to_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total_time": self.total_time,
            "self_time": self.self_time,
            "min_time": self.min_time,
            "max_time": self.max_time,
        }


@dataclass
class Profile:
    """One trace's span statistics."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    n_spans: int = 0
    n_events: int = 0
    total_time: float = 0.0  # sum of all span durations (parents included)

    def top(self, n: int | None = None) -> list[SpanStats]:
        """Heaviest spans first: by total time, then count, then name."""
        ranked = sorted(
            self.spans.values(), key=lambda s: (-s.total_time, -s.count, s.name)
        )
        return ranked if n is None else ranked[:n]

    def to_dict(self) -> dict[str, object]:
        return {
            "n_spans": self.n_spans,
            "n_events": self.n_events,
            "total_time": self.total_time,
            "spans": {name: self.spans[name].to_dict() for name in sorted(self.spans)},
            "events": {name: self.events[name] for name in sorted(self.events)},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"


def _span_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "span"]


def profile_records(records: list[dict]) -> Profile:
    """Build a :class:`Profile` from parsed trace records.

    Self-time is a span's own duration minus its *direct* children's; in a
    discrete-event simulation most spans are instantaneous, so counts carry
    as much signal as durations — both are reported.
    """
    profile = Profile()
    spans = _span_records(records)
    durations: dict[int, float] = {}
    children_time: dict[int, float] = {}
    for record in spans:
        duration = float(record["time_end"]) - float(record["time"])
        durations[record["id"]] = duration
        parent = record.get("parent")
        if parent is not None:
            children_time[parent] = children_time.get(parent, 0.0) + duration
    for record in spans:
        name = str(record["name"])
        duration = durations[record["id"]]
        self_duration = max(0.0, duration - children_time.get(record["id"], 0.0))
        stats = profile.spans.get(name)
        if stats is None:
            stats = profile.spans[name] = SpanStats(name)
        stats.add(duration, self_duration)
        profile.n_spans += 1
        profile.total_time += duration
    for record in records:
        if record.get("type") == "event":
            name = str(record.get("name", "<unnamed>"))
            profile.events[name] = profile.events.get(name, 0) + 1
            profile.n_events += 1
    return profile


def folded_stacks(records: list[dict], scale: float = 1000.0) -> list[tuple[str, int]]:
    """Collapsed call stacks: ``(root;child;...;leaf, self-time)`` pairs.

    The flamegraph.pl / speedscope "folded" interchange format: one entry
    per distinct span ancestry chain, weighted by the summed *self*
    sim-time of the spans at that position, scaled to integer units
    (default ``scale=1000`` → milliseconds).  Entries are name-sorted, so
    the output is a pure function of the trace — same-seed runs fold to
    identical bytes (the golden-file test states this).

    Instantaneous spans (ubiquitous in a discrete-event simulation) fold
    to weight 0; they are kept so the stack *shapes* stay visible to
    tooling that counts samples rather than summing weights.
    """
    spans = _span_records(records)
    by_id = {r["id"]: r for r in spans}
    children_time: dict[int, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            duration = float(record["time_end"]) - float(record["time"])
            children_time[parent] = children_time.get(parent, 0.0) + duration
    stacks: dict[str, int] = {}
    for record in spans:
        parts = []
        node = record
        while node is not None:
            parts.append(str(node["name"]))
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        stack = ";".join(reversed(parts))
        duration = float(record["time_end"]) - float(record["time"])
        self_time = max(0.0, duration - children_time.get(record["id"], 0.0))
        stacks[stack] = stacks.get(stack, 0) + int(round(self_time * scale))
    return sorted(stacks.items())


def to_folded(records: list[dict], scale: float = 1000.0) -> str:
    """The folded-stack text: ``stack weight`` lines, byte-stable."""
    return "".join(
        f"{stack} {weight}\n" for stack, weight in folded_stacks(records, scale)
    )


def critical_path(records: list[dict]) -> list[dict]:
    """The heaviest root-to-leaf chain through the span tree.

    Weight of a span is its subtree's total sim-time; ties (ubiquitous with
    instantaneous spans) break by subtree span count, then by smallest id,
    making the path a pure function of the trace.  Returns one row per hop:
    ``{"id", "name", "time", "duration", "subtree_time", "subtree_spans"}``.
    """
    spans = _span_records(records)
    if not spans:
        return []
    by_id = {r["id"]: r for r in spans}
    children: dict[int | None, list[int]] = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record["id"])

    subtree_time: dict[int, float] = {}
    subtree_spans: dict[int, int] = {}

    def measure(span_id: int) -> None:
        record = by_id[span_id]
        time_total = float(record["time_end"]) - float(record["time"])
        count = 1
        for child in children.get(span_id, ()):
            measure(child)
            time_total += subtree_time[child]
            count += subtree_spans[child]
        subtree_time[span_id] = time_total
        subtree_spans[span_id] = count

    roots = [sid for sid in children.get(None, ()) if sid in by_id]
    for root in roots:
        measure(root)

    def heaviest(candidates: list[int]) -> int:
        return max(
            candidates, key=lambda sid: (subtree_time[sid], subtree_spans[sid], -sid)
        )

    path: list[dict] = []
    current = heaviest(roots)
    while True:
        record = by_id[current]
        path.append(
            {
                "id": current,
                "name": record["name"],
                "time": record["time"],
                "duration": float(record["time_end"]) - float(record["time"]),
                "subtree_time": subtree_time[current],
                "subtree_spans": subtree_spans[current],
            }
        )
        kids = children.get(current, [])
        if not kids:
            return path
        current = heaviest(kids)


def diff_profiles(before: Profile, after: Profile) -> dict[str, object]:
    """Per-span-name deltas, ``after`` relative to ``before``.

    Rows are name-sorted; spans present on only one side show with zeros on
    the other, so added/removed instrumentation is visible at a glance.
    """
    names = sorted(set(before.spans) | set(after.spans))
    rows = []
    for name in names:
        a = before.spans.get(name)
        b = after.spans.get(name)
        count_a = a.count if a else 0
        count_b = b.count if b else 0
        time_a = a.total_time if a else 0.0
        time_b = b.total_time if b else 0.0
        rows.append(
            {
                "name": name,
                "count_before": count_a,
                "count_after": count_b,
                "count_delta": count_b - count_a,
                "time_before": time_a,
                "time_after": time_b,
                "time_delta": time_b - time_a,
            }
        )
    return {
        "spans": rows,
        "n_spans_before": before.n_spans,
        "n_spans_after": after.n_spans,
        "total_time_before": before.total_time,
        "total_time_after": after.total_time,
    }
