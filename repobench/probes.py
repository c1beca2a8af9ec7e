"""The traced replay: a workload's operations, one span per layer call.

The end-to-end numbers come from the untraced run.  The traced run
repeats the workload's traffic and then replays a fixed sample of its
operations in-process, calling each layer's public entry point inside a
benchmark-owned span named after the per-layer metric it feeds.  Spans
stay here, in the benchmark; the program is not instrumented by it.

Each replayed operation is one root span (``op``) whose children are the
layer calls, so ``self time of op / duration of op`` is the share of the
replay no layer span accounts for (``trace.unattributed_ratio``).
"""

from __future__ import annotations

import json

import numpy as np

import harness
from repro.batch.blocking import candidate_pairs
from repro.match import MatchMatrix
from repro.matchers.profile import build_profile
from repro.server.cache import ResponseCache, canonical_request_key

def exact_op(spans, engine, source_profile, target_profile,
             source_positions, target_positions, selection, cascade=None):
    """The exact engine's stages over one (restricted) grid.

    Returns the selected correspondences and the cascade report (None
    without a cascade).
    """
    confidences = []
    for voter in engine.voters:
        with spans.span(f"matchers.{voter.name}.exact_ms"):
            confidences.append(
                voter.vote(
                    source_profile, target_profile,
                    source_positions, target_positions,
                ).confidence
            )
    with spans.span("voting.merge_ms"):
        merged = engine.merger.merge(np.stack(confidences))
    report = None
    if cascade is not None:
        with spans.span("cascade.escalate_ms"):
            merged, report = cascade.escalate_grid(
                source_profile, target_profile,
                source_positions, target_positions, merged, stage1_seconds=0.0,
            )
    source_ids = (
        [source_profile.element_ids[i] for i in source_positions]
        if source_positions is not None else source_profile.element_ids
    )
    target_ids = (
        [target_profile.element_ids[j] for j in target_positions]
        if target_positions is not None else target_profile.element_ids
    )
    with spans.span("match.selection_ms"):
        chosen = selection.select(MatchMatrix(source_ids, target_ids, merged))
    return chosen, report


def batch_op(spans, runner, source_profile, target_profile, selection):
    """The blocked fast path's stages over one pair.

    Returns the candidate set and the selected correspondences.
    """
    with spans.span("batch.blocking_ms"):
        candidates = candidate_pairs(
            source_profile, target_profile, runner.space, runner.blocking
        )
    scores = []
    for voter in runner.voters:
        with spans.span(f"matchers.{voter.name}.block_ms"):
            scores.append(
                voter.score_pairs(
                    source_profile, target_profile,
                    candidates.rows, candidates.cols, runner.space,
                )
            )
    with spans.span("voting.merge_ms"):
        merged = (
            runner.merger.merge(np.stack(scores)[:, :, None])[:, 0]
            if candidates.n_candidates else np.zeros(0)
        )
    with spans.span("match.selection_ms"):
        dense = np.full(
            (len(source_profile), len(target_profile)), runner.fill_value
        )
        dense[candidates.rows, candidates.cols] = merged
        chosen = selection.select(
            MatchMatrix(source_profile.element_ids, target_profile.element_ids, dense)
        )
    return candidates, chosen


def cold_profile(spans, schema):
    """Profile a schema from scratch (what a first request pays)."""
    with spans.span("matchers.profile_ms"):
        return build_profile(schema)


def request_edges(spans, service, request_type, endpoint, payload, response):
    """The per-request work around execution: decode, cache key, cache hit,
    envelope encode -- each on the live request and response objects.

    ``payload`` is the request's wire form, made by the caller outside the
    replayed operation (encoding it is the client's work).
    """
    with spans.span("service.decode_us"):
        request = request_type.from_dict(payload)
    with spans.span("server.cache.key_us"):
        key = canonical_request_key(endpoint, request.to_dict())
    with spans.span("server.encode_ms"):
        envelope = response.to_dict()
        json.dumps(envelope)
    cache = ResponseCache(max_entries=4)
    clocks = service.repository.clocks() if service.repository is not None else (None, None)
    cache.put(key, envelope, clocks)
    with spans.span("server.cache.get_us"):
        hit = cache.get(key, clocks)
    if hit is None:
        raise RuntimeError("response cache missed a fresh entry")
    return request


#: Clock reads the traced replay times (one such read per served request).
CLOCK_READS = 20


def repository_reads(spans, repository, names):
    """Clock reads and cold schema reads."""
    for _ in range(CLOCK_READS):
        with spans.span("op"):
            with spans.span("repository.clocks_us"):
                repository.clocks()
    for name in names:
        with spans.span("op"):
            with spans.span("repository.schema_ms"):
                repository.schema(name)


def unattributed_ratio(spans) -> float:
    """Share of replayed wall time that no layer span covers."""
    roots = spans.roots("op")
    total = sum(duration for duration, _ in roots)
    return sum(own for _, own in roots) / total if total else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def traced_overhead_ms(samples) -> float:
    """Traced minus untraced request wall time, in ms.

    Compared within each request kind only (a query right after a
    registration against its own kind, never against a plain query), then
    averaged over kinds weighted by their traced request counts.  Kinds
    with no traced or no untraced request are left out.
    """
    by_kind: dict[str, tuple[list[float], list[float]]] = {}
    for sample in samples:
        traced, plain = by_kind.setdefault(sample.kind, ([], []))
        (traced if sample.traced else plain).append(sample.seconds)
    weighted = weight = 0.0
    for traced, plain in by_kind.values():
        if traced and plain:
            difference = sum(traced) / len(traced) - sum(plain) / len(plain)
            weighted += difference * len(traced)
            weight += len(traced)
    return weighted / weight * 1000.0 if weight else 0.0


def metrics_delta(before: dict, after: dict) -> dict:
    """Server-side counters accumulated between two ``/metrics`` reads.

    ``handler_seconds`` and ``requests`` cover the POST endpoints only
    (the ``/metrics`` reads themselves are excluded).
    """
    def posts(snapshot):
        return {
            path: block for path, block in snapshot["endpoints"].items()
            if path in ("/match", "/corpus-match", "/network-match")
        }

    handler = requests = 0.0
    first, last = posts(before), posts(after)
    for path, block in last.items():
        previous = first.get(path, {"seconds_total": 0.0, "requests": 0})
        handler += block["seconds_total"] - previous["seconds_total"]
        requests += block["requests"] - previous["requests"]
    cache_before, cache_after = before["cache"], after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    return {
        "handler_seconds": handler,
        "requests": requests,
        "hits": hits,
        "misses": misses,
        "invalidations": cache_after["invalidations"] - cache_before["invalidations"],
    }


def per_layer_metrics(names, units, spans, traffic, delta, explicit) -> dict:
    """Every per-layer metric for one traced run.

    Timing metrics are mean span self times; ``delta`` (server counters
    over the traced traffic, None in-process) gives the cache and wire
    figures; ``explicit`` holds the counts and ratios the workload
    measured itself.  A layer this workload never reaches reads 0.
    """
    values = {name: 0.0 for name in names}
    values.update(harness.layer_values(spans, units, names))
    if delta is not None:
        # Client wall minus handler time minus client decode: what the
        # request spent on the wire, in the HTTP stack and in encoding.
        client = mean_or_zero(sample.seconds for sample in traffic.samples)
        handler = delta["handler_seconds"] / delta["requests"] if delta["requests"] else 0.0
        values["server.wire_ms"] = (
            (client - handler) * 1000.0 - values["server.client_decode_ms"]
        )
        lookups = delta["hits"] + delta["misses"]
        values["server.cache.hit_ratio"] = delta["hits"] / lookups if lookups else 0.0
        values["server.cache.invalidated"] = float(delta["invalidations"])
    values["trace.unattributed_ratio"] = unattributed_ratio(spans)
    values["trace.overhead_ms"] = traced_overhead_ms(traffic.samples)
    values.update(explicit)
    return values
