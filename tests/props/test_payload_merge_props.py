"""Algebra of the session chunk stream (``payload_chunks`` → ``PayloadChunkMerger``).

The chunk stream is the one way worker observability re-enters the parent
recorder, whatever the chunk size, without changing a byte of the export.
These properties pin the algebra that makes that safe:

* merging an **empty** session's stream is a no-op, span-id counter
  included;
* merge is **associative** over sessions — folding (A, B) then C equals
  folding A then (B ⊕ C re-streamed), record for record;
* ``reserve_span_ids`` interleaved with merges keeps offsets exact: the
  id counter advances by exactly (reserved + merged spans) and merged
  span ids never collide;
* **any chunk size** merges byte-identically to one single-chunk stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Recorder
from repro.obs.stream import PayloadChunkMerger, payload_chunks

#: Larger than any session below, so a stream at this size is one chunk.
WHOLE_SESSION = 10_000


def _session(seed, n):
    """A deterministic little session shaped by (seed, n)."""
    rec = Recorder()
    for i in range(n):
        t = float(i)
        with rec.span("outer", t) as sp:
            sp.set(seed=seed, i=i)
            if (seed + i) % 2:
                with rec.span("inner", t + 0.25):
                    rec.emit("ping", t + 0.5, seed=seed)
            rec.counter("repro.test.work").inc()
    return rec


def _merge(target, source, max_events):
    """Fold ``source``'s chunk stream into ``target``."""
    merger = PayloadChunkMerger(target)
    for chunk in payload_chunks(source, max_events=max_events):
        merger.merge(chunk)
    assert merger.finished


def _next_span_id(rec):
    """Probe (and consume) the recorder's next span id."""
    return rec.reserve_span_ids(1)


session_shapes = st.tuples(st.integers(0, 7), st.integers(0, 5))
chunk_sizes = st.integers(1, 12)


@given(shape=st.tuples(st.integers(0, 7), st.integers(1, 5)), max_events=chunk_sizes)
@settings(max_examples=25, deadline=None)
def test_empty_payload_merge_is_a_noop(shape, max_events):
    seed, n = shape
    target = _session(seed, n)
    control = _session(seed, n)
    _merge(target, Recorder(), max_events)
    assert target.sink.to_jsonl() == control.sink.to_jsonl()
    assert target.metrics.to_json() == control.metrics.to_json()
    assert target.series.to_json() == control.series.to_json()
    # The span-id counter did not move either.
    assert _next_span_id(target) == _next_span_id(control)


@given(shapes=st.lists(session_shapes, min_size=3, max_size=3), max_events=chunk_sizes)
@settings(max_examples=25, deadline=None)
def test_merge_is_associative_over_sessions(shapes, max_events):
    sessions = [_session(seed, n) for seed, n in shapes]

    left = Recorder()  # (A ⊕ B) ⊕ C
    for session in sessions:
        _merge(left, session, max_events)

    # A ⊕ (B ⊕ C): fold B and C into an intermediate recorder first, then
    # merge its re-streamed session after A.
    inner = Recorder()
    _merge(inner, sessions[1], max_events)
    _merge(inner, sessions[2], max_events)
    right = Recorder()
    _merge(right, sessions[0], max_events)
    _merge(right, inner, max_events)

    assert left.sink.to_jsonl() == right.sink.to_jsonl()
    assert left.metrics.to_json() == right.metrics.to_json()
    assert left.series.to_json() == right.series.to_json()


@given(
    steps=st.lists(
        st.one_of(session_shapes, st.integers(1, 9).map(lambda k: ("reserve", k))),
        min_size=1,
        max_size=6,
    ),
    max_events=chunk_sizes,
)
@settings(max_examples=25, deadline=None)
def test_interleaved_reservations_keep_offsets_exact(steps, max_events):
    target = Recorder()
    consumed = 0  # span ids handed out so far, by reservation or merge
    for step in steps:
        if step[0] == "reserve":
            k = step[1]
            first = target.reserve_span_ids(k)
            assert first == consumed + 1  # ids start at 1
            consumed += k
        else:
            seed, n = step
            session = _session(seed, n)
            spans_in = sum(1 for r in session.sink.records if r["type"] == "span")
            _merge(target, session, max_events)
            consumed += spans_in
    assert _next_span_id(target) == consumed + 1
    merged_ids = [r["id"] for r in target.sink.records if r["type"] == "span"]
    assert len(merged_ids) == len(set(merged_ids))
    assert all(0 < i <= consumed for i in merged_ids)


@given(shape=session_shapes, max_events=chunk_sizes)
@settings(max_examples=25, deadline=None)
def test_chunked_merge_equals_monolithic_merge(shape, max_events):
    """Any chunk size equals one single-chunk stream of the whole session."""
    seed, n = shape
    assert len(list(payload_chunks(_session(seed, n), max_events=WHOLE_SESSION))) == 1
    whole, chunked = Recorder(), Recorder()
    _merge(whole, _session(seed, n), WHOLE_SESSION)
    _merge(chunked, _session(seed, n), max_events)
    assert chunked.sink.to_jsonl() == whole.sink.to_jsonl()
    assert chunked.metrics.to_json() == whole.metrics.to_json()
    assert chunked.series.to_json() == whole.series.to_json()
    assert _next_span_id(chunked) == _next_span_id(whole)
