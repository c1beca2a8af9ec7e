"""analyst-session: the section-3.3 workflow on the case study, over HTTP.

One analyst (one client, closed loop) works through the 1378 x 784 case
study -- always the paper's pair, generated at its canonical seed; the
run's seed orders the concepts and picks the answers re-checked -- with
SA and SB registered by name: a few full-grid ``/match``
requests at distinct thresholds (auto-routed to the blocked batch path),
then the 140 concept-at-a-time increments (exact path, one SA concept
sub-tree against all of SB).  When the session ends before the time is
up it starts again with every threshold nudged, so every request is a
response-cache miss.

The engine takes almost all of each request's time, so this workload is
where matcher, voting, match and batch changes show, and server or cache
changes should not move it.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import harness
import probes
from repro.batch.blocking import blocking_recall, candidate_pairs
from repro.repository import MetadataRepository
from repro.server import MatchServiceClient
from repro.service import MatchOptions, MatchRequest, MatchResponse, MatchService
from repro.synthetic import PairSpec, case_study, generate_pair

NAME = "analyst-session"
SOURCE, TARGET = "SA", "SB"
#: Thresholds of the full-grid requests opening each session.
FULL_THRESHOLDS = (0.15, 0.16, 0.17, 0.18)
INCREMENT_THRESHOLD = 0.15
#: Each later session nudges every threshold by this much (fresh cache keys).
SESSION_STEP = 0.001
#: Set-up warm-up threshold: never used by the timed loop.
WARM_THRESHOLD = 0.149
#: The case study is one fixed pair (its counts are the paper's), so its
#: quality and memory do not vary from run to run with the seed.
CASE_STUDY_SEED = 2009
#: Requests answered when the server's peak RSS is read.
RSS_AFTER = 100


@dataclass(frozen=True)
class Params:
    case_study: bool = True          # False: a small generated pair
    full_route: str = "batch"        # where auto-routing sends a full grid
    reference_increments: int = 16   # increments re-checked in-process
    probe_increments: int = 8        # increments replayed by the traced run


TINY = Params(case_study=False, full_route="exact", reference_increments=3,
              probe_increments=2)


def _pair(seed: int, params: Params):
    if params.case_study:
        return case_study(CASE_STUDY_SEED)
    return generate_pair(PairSpec(), seed=seed)


def _session(pair, seed: int, session: int) -> list[tuple[str, MatchRequest]]:
    """One session's requests: full grids first, then every concept."""
    source = pair.source.schema
    roots = [root.element_id for root in source.roots()]
    random.Random(harness.derive_seed(seed, "concepts", session)).shuffle(roots)
    shift = session * SESSION_STEP
    requests = [
        ("full", MatchRequest(
            source=SOURCE, target=TARGET,
            options=MatchOptions(threshold=round(threshold + shift, 6)),
        ))
        for threshold in FULL_THRESHOLDS
    ]
    for root in roots:
        requests.append(("increment", MatchRequest(
            source=SOURCE, target=TARGET,
            options=MatchOptions(threshold=round(INCREMENT_THRESHOLD + shift, 6)),
            source_element_ids=tuple(e.element_id for e in source.subtree(root)),
        )))
    return requests


class _State:
    def __init__(self, pair, directory):
        self.db = directory / "repo.db"
        with MetadataRepository(path=str(self.db), backend="pooled") as repository:
            repository.register(pair.source.schema, name=SOURCE)
            repository.register(pair.target.schema, name=TARGET)
        self.server = harness.ServerProcess(self.db, directory / "serve.log")
        self.client = MatchServiceClient(self.server.url)
        # Warm-up: profiles and feature caches, as a working server has them.
        source = pair.source.schema
        first = source.roots()[0].element_id
        for request in (
            MatchRequest(source=SOURCE, target=TARGET,
                         options=MatchOptions(threshold=WARM_THRESHOLD)),
            MatchRequest(source=SOURCE, target=TARGET,
                         options=MatchOptions(threshold=WARM_THRESHOLD),
                         source_element_ids=tuple(
                             e.element_id for e in source.subtree(first))),
        ):
            self.client.match(request)

    def close(self):
        self.server.stop()


def _drive(state, pair, seed, seconds, params, spans_for, rss):
    """The timed closed loop; returns the traffic and each reply."""
    traffic = harness.Traffic()
    replies: list[tuple[str, MatchRequest, MatchResponse | None, str | None]] = []
    session = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for kind, request in _session(pair, seed, session):
            if time.perf_counter() >= deadline:
                break
            spans, traced = spans_for(len(traffic.samples))
            try:
                response, cache, elapsed = harness.post(
                    state.client, spans, "/match", request, MatchResponse
                )
            except harness.RequestFailed as failure:
                problem, elapsed = failure.args
                traffic.samples.append(
                    harness.Sample(kind, elapsed, False, problem, traced)
                )
                replies.append((kind, request, None, None))
                continue
            expected = params.full_route if kind == "full" else "exact"
            sample = harness.Sample(kind, elapsed, traced=traced)
            if response.route != expected:
                sample.ok, sample.problem = False, "wrong-route"
            traffic.samples.append(sample)
            replies.append((kind, request, response, cache))
            rss.answered(len(traffic.samples))
        session += 1
    traffic.wall_seconds = time.perf_counter() - started
    return traffic, replies


def _verify(pair, seed, params, traffic, replies) -> dict:
    """Served scores against a direct in-process answer (untimed)."""
    reference = MatchService()
    inline = {SOURCE: pair.source.schema, TARGET: pair.target.schema}
    fulls = [i for i, (kind, *_rest) in enumerate(replies) if kind == "full"][
        : len(FULL_THRESHOLDS)
    ]
    increments = [i for i, (kind, *_rest) in enumerate(replies) if kind == "increment"]
    rng = random.Random(harness.derive_seed(seed, "reference"))
    checked = fulls + sorted(
        rng.sample(increments, min(params.reference_increments, len(increments)))
    )
    for index in checked:
        _, request, served, _ = replies[index]
        if served is None:
            continue
        expected = reference.match(MatchRequest(
            source=inline[request.source], target=inline[request.target],
            options=request.options,
            source_element_ids=request.source_element_ids,
        ))
        if not harness.same_scores(served.correspondences, expected.correspondences):
            traffic.fail(index, "score-mismatch")
    tally = harness.F1Tally()
    for index in fulls:
        served = replies[index][2]
        if served is not None:
            tally.add({c.pair for c in served.correspondences}, pair.truth_pairs)
    hits = sum(1 for *_rest, cache in replies if cache == "hit")
    return {"checked_against_reference": len(checked), "f1": tally.f1,
            "unexpected_cache_hits": hits}


def _probe(state, pair, seed, params, spans) -> dict:
    """In-process replay of a sample of this session, one span per layer."""
    with MetadataRepository(path=str(state.db), backend="pooled") as repository:
        service = MatchService(repository=repository)
        probes.repository_reads(spans, repository, [SOURCE, TARGET])
        for name in (SOURCE, TARGET):
            schema = repository.schema(name)
            with spans.span("op"):
                probes.cold_profile(spans, schema)
        requests = _session(pair, seed, 0)
        increments = [r for kind, r in requests if kind == "increment"]
        rng = random.Random(harness.derive_seed(seed, "probe"))
        full = requests[0][1]
        sample = [full] + rng.sample(
            increments, min(params.probe_increments, len(increments))
        )
        source, target = service.resolve(SOURCE), service.resolve(TARGET)
        for request in sample:
            response = service.match(request)   # untraced: warms the caches
            payload = request.to_dict()
            with spans.span("op"):
                decoded = probes.request_edges(
                    spans, service, MatchRequest, "/match", payload, response
                )
                with spans.span("service.route_us"):
                    route, _ = service.route_pair(decoded, source, target)
                    executor = (service.runner(decoded.options) if route == "batch"
                                else service.engine(decoded.options))
                selection = decoded.options.build_selection()
                source_profile = executor.profile(source)
                target_profile = executor.profile(target)
                if route == "batch":
                    probes.batch_op(
                        spans, executor, source_profile, target_profile, selection
                    )
                else:
                    rows = decoded.source_element_ids
                    probes.exact_op(
                        spans, executor, source_profile, target_profile,
                        None if rows is None else source_profile.positions_of(list(rows)),
                        None, selection,
                    )
        # What blocking keeps of the full grid, against the exact engine.
        runner = service.runner(full.options)
        candidates = candidate_pairs(
            runner.profile(source), runner.profile(target), runner.space, runner.blocking
        )
        exact = service.engine(MatchOptions(execution="exact")).match(source, target)
    return {
        "batch.candidate_fraction": candidates.n_candidates / candidates.n_pairs,
        "batch.blocking_recall": blocking_recall(
            exact.matrix, candidates, full.options.threshold
        ),
    }


def run(seed: int, seconds: float, trace: bool, params: Params = Params(),
        inspect=None) -> harness.Outcome:
    """One run; ``inspect(replies)`` may look at replies before verification."""
    pair = _pair(seed, params)
    spans = harness.SpanLog() if trace else None
    layer: dict[str, float] = {}
    delta = None
    with harness.scratch_dir(NAME) as work:
        state, setup_times = harness.timed_setup(
            lambda directory: _State(pair, directory), _State.close, work
        )
        try:
            before = state.client.metrics() if trace else None
            rss = harness.PeakRss(state.server.peak_rss_mb, RSS_AFTER)
            traffic, replies = _drive(
                state, pair, seed, seconds, params, harness.span_schedule(spans, seed), rss
            )
            if trace:
                delta = probes.metrics_delta(before, state.client.metrics())
            rss_mb = rss.result()
            if inspect is not None:
                inspect(replies)
            checks = _verify(pair, seed, params, traffic, replies)
            if trace:
                layer = _probe(state, pair, seed, params, spans)
        finally:
            state.close()
    fulls = [s.seconds for s in traffic.samples if s.kind == "full"]
    layer["full_match_ms"] = statistics.median(fulls) * 1000.0 if fulls else 0.0
    return harness.Outcome(
        traffic=traffic, setup_seconds=setup_times, rss_mb=rss_mb, f1=checks.pop("f1"),
        details=checks, spans=spans, server_delta=delta, layer=layer,
    )
