"""registry-scale: top-5 corpus matching against a 300-schema registry.

A planner's view of section 2: a registry of 300 schemata in 10 planted
domains.  One client (closed loop) sends by-name ``/corpus-match``
(top-5) for distinct schemata in a seeded order, so every request is a
response-cache miss.  Before every ``register_every``-th query the
benchmark registers a new version of the schema it is about to query
(same content, new name); that query must then rank the new version, or
the answer is stale.

This exercises the corpus index (BM25 retrieval, refresh after a
registration), the blocked batch path on many small pairs, and
repository reads; the exact engine is idle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import harness
import probes
from repro.repository import MetadataRepository
from repro.server import MatchServiceClient
from repro.service import CorpusMatchRequest, CorpusMatchResponse, MatchOptions, MatchService
from repro.synthetic import generate_enterprise_corpus

NAME = "registry-scale"
OPTIONS = MatchOptions(threshold=0.15)
TOP_K = 5
#: Queries answered when the server's peak RSS is read.
RSS_AFTER = 40


@dataclass(frozen=True)
class Params:
    n_schemata: int = 300
    n_domains: int = 10
    register_every: int = 8     # queries per registration
    quality_queries: int = 40   # f1 and recall@5 cover the first this many
    probe_queries: int = 12     # queries replayed by the traced run


TINY = Params(n_schemata=30, n_domains=3, register_every=3,
              quality_queries=5, probe_queries=3)


def _version(name: str) -> str:
    return f"{name}-v2"


class _State:
    def __init__(self, corpus, order, directory):
        self.db = directory / "repo.db"
        with MetadataRepository(path=str(self.db), backend="pooled") as repository:
            for generated in corpus.schemata:
                repository.register(generated.schema)
        self.server = harness.ServerProcess(self.db, directory / "serve.log")
        self.client = MatchServiceClient(self.server.url)
        # Warm-up: builds the corpus index.  A top-k no timed query uses
        # keeps this answer out of the timed loop's cache keys.
        self.client.corpus_match(
            CorpusMatchRequest(source=order[-1], top_k=TOP_K - 1, options=OPTIONS)
        )

    def close(self):
        self.server.stop()


def _drive(state, corpus, order, seed, seconds, params, spans, rss):
    traffic = harness.Traffic()
    replies = []
    schedule = harness.span_schedule(spans, seed)
    write_spans = spans if spans is not None else harness.NoSpans()
    n_registered = len(corpus.schemata)
    started = time.perf_counter()
    deadline = started + seconds
    with MetadataRepository(path=str(state.db), backend="pooled") as repository:
        for number, name in enumerate(order):
            if time.perf_counter() >= deadline:
                break
            kind = "query"
            if number % params.register_every == params.register_every - 1:
                with write_spans.span("op"):
                    with write_spans.span("repository.write_ms"):
                        repository.register(corpus.by_name(name).schema,
                                            name=_version(name))
                n_registered += 1
                kind = "query-after-register"
            request = CorpusMatchRequest(source=name, top_k=TOP_K, options=OPTIONS)
            span_log, traced = schedule(number)
            try:
                response, _, elapsed = harness.post(
                    state.client, span_log, "/corpus-match", request,
                    CorpusMatchResponse)
            except harness.RequestFailed as failure:
                problem, elapsed = failure.args
                traffic.samples.append(harness.Sample(kind, elapsed, False, problem, traced))
                replies.append((name, None))
                continue
            sample = harness.Sample(kind, elapsed, traced=traced)
            if len(response.candidates) != TOP_K:
                sample.ok, sample.problem = False, "malformed"
            elif response.n_registered != n_registered or (
                kind == "query-after-register"
                and _version(name) not in response.candidate_names
            ):
                sample.ok, sample.problem = False, "stale"
            traffic.samples.append(sample)
            replies.append((name, response))
            rss.answered(len(traffic.samples))
    traffic.wall_seconds = time.perf_counter() - started
    return traffic, replies, n_registered - len(corpus.schemata)


def _quality(corpus, replies, params) -> tuple[float, float]:
    """(f1, recall@5) over the first ``quality_queries`` answers."""
    def original(name: str) -> str:
        return name[: -len("-v2")] if name.endswith("-v2") else name

    tally = harness.F1Tally()
    recalls = []
    for name, response in replies[: params.quality_queries]:
        if response is None:
            continue
        query = corpus.by_name(name)
        domain = corpus.domain_of[name]
        recalls.append(sum(
            1 for candidate in response.candidate_names
            if corpus.domain_of[original(candidate)] == domain
        ) / TOP_K)
        for candidate in response.candidates:
            tally.add(
                {c.pair for c in candidate.correspondences},
                harness.facet_truth(query, corpus.by_name(original(candidate.target_name))),
            )
    return tally.f1, (sum(recalls) / len(recalls) if recalls else 0.0)


def _probe(state, corpus, order, params, spans) -> dict:
    """In-process replay of the first queries, one span per layer."""
    refreshes = 0
    sample = order[: params.probe_queries]
    with MetadataRepository(path=str(state.db), backend="pooled") as repository:
        service = MatchService(repository=repository)
        probes.repository_reads(spans, repository, sample)
        for name in sample:
            with spans.span("op"):
                probes.cold_profile(spans, corpus.by_name(name).schema)
        index = service.corpus_index()
        index.refresh()
        for number, name in enumerate(sample):
            if number % params.register_every == params.register_every - 1:
                copy = f"{name}-probe"
                with spans.span("op"):
                    with spans.span("repository.write_ms"):
                        repository.register(corpus.by_name(name).schema, name=copy)
                with spans.span("op"):
                    with spans.span("corpus.refresh_ms"):
                        refreshes += 0 if index.refresh().was_noop else 1
            request = CorpusMatchRequest(source=name, top_k=TOP_K, options=OPTIONS)
            response = service.corpus_match(request)   # untraced: warms caches
            source = service.resolve(name)
            payload = request.to_dict()
            with spans.span("op"):
                decoded = probes.request_edges(
                    spans, service, CorpusMatchRequest, "/corpus-match",
                    payload, response)
                with spans.span("service.route_us"):
                    runner = service.runner(decoded.options)
                with spans.span("corpus.retrieve_ms"):
                    index.top_candidates(
                        source, limit=decoded.effective_retrieval_limit + 2)
                selection = decoded.options.build_selection()
                for candidate in response.candidate_names:
                    probes.batch_op(
                        spans, runner, runner.profile(source),
                        runner.profile(service.resolve(candidate)), selection)
    return {"corpus.refreshes": float(refreshes)}


def run(seed: int, seconds: float, trace: bool, params: Params = Params()
        ) -> harness.Outcome:
    corpus = generate_enterprise_corpus(
        n_schemata=params.n_schemata, n_domains=params.n_domains, seed=seed)
    order = sorted(corpus.names)
    random.Random(harness.derive_seed(seed, "order")).shuffle(order)
    spans = harness.SpanLog() if trace else None
    layer: dict[str, float] = {}
    delta = None
    with harness.scratch_dir(NAME) as work:
        state, setup_times = harness.timed_setup(
            lambda directory: _State(corpus, order, directory), _State.close, work)
        try:
            before = state.client.metrics() if trace else None
            rss = harness.PeakRss(state.server.peak_rss_mb, RSS_AFTER)
            traffic, replies, registrations = _drive(
                state, corpus, order, seed, seconds, params, spans, rss)
            if trace:
                delta = probes.metrics_delta(before, state.client.metrics())
            rss_mb = rss.result()
            if trace:
                layer = _probe(state, corpus, order, params, spans)
        finally:
            state.close()
    f1, recall = _quality(corpus, replies, params)
    layer["recall_at_5"] = recall
    return harness.Outcome(
        traffic=traffic, setup_seconds=setup_times, rss_mb=rss_mb, f1=f1,
        details={"registrations": registrations, "recall_at_5": recall},
        spans=spans, server_delta=delta, layer=layer,
    )
