"""hot-reads: a shared registry answering a skewed read mix, with writes.

The E19 registry of 8 schemata, with stored match sets along a chain so
``/network-match`` composes.  Two clients (closed loop each) draw from a
fixed universe of by-name ``/match``, ``/corpus-match`` and
``/network-match`` requests: a fixed endpoint mix, and Zipf popularity
within each endpoint, so most requests are response-cache hits.  Every ``write_every``-th request of the first
client is a write through the benchmark's own ``MetadataRepository`` on
the same file: a stored match set (moves the match clock: corpus and
network entries go stale) and a schema registration (moves the generation
clock: everything goes stale), alternately.  Writes are rare on purpose:
each one makes the server recompute every entry read again, and the
workload is meant to measure hits.  Right after each write the
same client re-reads a request whose answer must show that write.

The engine does almost nothing here; transport and cache dominate, and
the writes expose a change that speeds up hits by invalidating more or
by serving stale answers.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass

import harness
import probes
from repro.match import Correspondence
from repro.repository import AssertionMethod, MetadataRepository
from repro.server import MatchServiceClient
from repro.service import (
    CorpusMatchRequest,
    CorpusMatchResponse,
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MatchService,
    NetworkMatchRequest,
    NetworkMatchResponse,
)
from repro.synthetic import generate_clustered_corpus

NAME = "hot-reads"
OPTIONS = MatchOptions(threshold=0.15)
CLIENTS = 2
ZIPF_EXPONENT = 1.1
#: Share of requests per endpoint.  Fixed, so the seed changes which
#: requests are popular but not how much of the traffic each endpoint is
#: (their replies differ in size, and so in cost).
MIX = {"match": 0.5, "corpus": 0.2, "network": 0.3}
TOP_K = 3
ENDPOINTS = {
    "match": ("/match", MatchResponse),
    "corpus": ("/corpus-match", CorpusMatchResponse),
    "network": ("/network-match", NetworkMatchResponse),
}


#: Every n-th write registers a schema; the others store a match set.
REGISTER_EVERY = 2
#: Requests answered when the server's peak RSS is read.
RSS_AFTER = 2000


@dataclass(frozen=True)
class Params:
    match_pairs: int = 16       # distinct /match requests in the universe
    write_every: int = 800      # requests of the writing client per write


TINY = Params(match_pairs=4, write_every=10)


def _universe(names, seed, params) -> dict[str, list]:
    """The fixed request universe per endpoint, most popular first."""
    rng = random.Random(harness.derive_seed(seed, "universe"))
    pairs = [(a, b) for a in names for b in names if a != b]
    universe = {
        "match": [
            MatchRequest(source=a, target=b, options=OPTIONS)
            for a, b in rng.sample(pairs, params.match_pairs)
        ],
        "corpus": [
            CorpusMatchRequest(source=name, top_k=TOP_K, options=OPTIONS)
            for name in names
        ],
        "network": [
            NetworkMatchRequest(
                source=names[i], target=names[i + hops], max_hops=2, options=OPTIONS)
            for hops in (2, 3) for i in range(len(names) - hops)
        ],
    }
    for requests in universe.values():
        rng.shuffle(requests)
    return universe


def _requests(universe):
    return [(kind, request) for kind, requests in universe.items() for request in requests]


class _State:
    def __init__(self, corpus, directory):
        self.db = directory / "repo.db"
        with MetadataRepository(path=str(self.db), backend="pooled") as repository:
            for generated in corpus.schemata:
                repository.register(generated.schema)
            self.names = sorted(repository.schema_names())
            service = MatchService(repository=repository)
            for left, right in zip(self.names, self.names[1:]):
                service.persist(service.match_pair(left, right, options=OPTIONS))
            pivot = repository.matches(
                source_schema=self.names[0], target_schema=self.names[1]
            )[0]
        #: Stored writes hang a fresh marker leg off this element of names[1],
        #: so names[0] -> names[2] composes to the marker through names[1].
        self.pivot = pivot.correspondence.target_id
        self.server = harness.ServerProcess(self.db, directory / "serve.log")
        self.client = MatchServiceClient(self.server.url)

    def warm(self, universe):
        for kind, request in _requests(universe):
            endpoint, _ = ENDPOINTS[kind]
            self.client.post_json(endpoint, request.to_dict())

    def close(self):
        self.server.stop()


class _Writer:
    """The first client's writes and the read that must show each one."""

    def __init__(self, state, corpus, spans):
        self.state = state
        self.spans = spans
        self.schemata = {g.schema.name: g.schema for g in corpus.schemata}
        self.repository = MetadataRepository(path=str(state.db), backend="pooled")
        self.writes = itertools.count()
        self.copy: str | None = None
        self.n_writes = 0

    def _timed(self, action):
        with self.spans.span("op"):
            with self.spans.span("repository.write_ms"):
                action()
        self.n_writes += 1

    def write(self):
        """Write once; return (kind, request, freshness check) to re-read."""
        number = next(self.writes)
        names = self.state.names
        if number % REGISTER_EVERY == REGISTER_EVERY - 1:
            original = names[number % len(names)]
            previous, self.copy = self.copy, f"{original}-v{number}"
            if previous is not None:
                self._timed(lambda: self.repository.unregister(previous))
            self._timed(lambda: self.repository.register(
                self.schemata[original], name=self.copy))
            copy, registered = self.copy, len(names) + 1

            def fresh(response):
                return (response.n_registered == registered
                        and copy in response.candidate_names)

            return "corpus", CorpusMatchRequest(
                source=original, top_k=TOP_K, options=OPTIONS), fresh
        marker = f"validated-{number}"
        self._timed(lambda: self.repository.store_matches(
            names[1], names[2],
            [Correspondence(source_id=self.state.pivot, target_id=marker, score=1.0)],
            asserted_by="validator", method=AssertionMethod.HUMAN_VALIDATED,
        ))

        def fresh(response):
            return any(c.target_id == marker for c in response.composed)

        return "network", NetworkMatchRequest(
            source=names[0], target=names[2], max_hops=2, options=OPTIONS), fresh

    def close(self):
        self.repository.close()


def _well_formed(kind, request, response) -> bool:
    """Every reply: the expected route and shape for its endpoint."""
    if kind == "match":
        return response.route == "exact"
    if kind == "corpus":
        return len(response.candidates) == min(TOP_K, response.n_registered - 1)
    return (response.source_name, response.target_name) == (
        request.source, request.target)


def _drive(state, universe, seed, seconds, params, spans, writer, rss):
    """The timed loop; returns the traffic and the last answer per /match pair."""
    traffic = harness.Traffic()
    last_match: dict[tuple[str, str], MatchResponse] = {}
    lock = threading.Lock()
    kinds = list(MIX)
    weights = {
        kind: [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(requests))]
        for kind, requests in universe.items()
    }
    schedule = harness.span_schedule(spans, seed)
    answered = itertools.count(1)
    deadline = time.perf_counter() + seconds

    def one(client, kind, request, counter, check=None):
        endpoint, response_type = ENDPOINTS[kind]
        span_log, traced = schedule(next(counter))
        try:
            response, _, elapsed = harness.post(
                client, span_log, endpoint, request, response_type)
        except harness.RequestFailed as failure:
            problem, elapsed = failure.args
            return harness.Sample(kind, elapsed, False, problem, traced), None
        sample = harness.Sample(kind, elapsed, traced=traced)
        if not _well_formed(kind, request, response):
            sample.ok, sample.problem = False, "malformed"
        elif check is not None and not check(response):
            sample.ok, sample.problem = False, "stale"
        return sample, response

    def client_loop(index):
        client = MatchServiceClient(state.server.url)
        rng = random.Random(harness.derive_seed(seed, "client", index))
        counter = itertools.count(index)
        samples, matches = [], {}
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            try:
                if index == 0 and samples and len(samples) % params.write_every == 0:
                    kind = "write"
                    kind, request, check = writer.write()
                    sample, response = one(client, kind, request, counter, check)
                else:
                    kind = rng.choices(kinds, weights=[MIX[k] for k in kinds])[0]
                    request = rng.choices(universe[kind], weights=weights[kind])[0]
                    sample, response = one(client, kind, request, counter)
            except Exception as exc:  # a failed write, a bad check, ...
                sample = harness.Sample(
                    kind, time.perf_counter() - started, False,
                    f"error-{type(exc).__name__}")
                response = None
            samples.append(sample)
            rss.answered(next(answered))
            if kind == "match" and response is not None:
                matches[(request.source, request.target)] = response
        with lock:
            traffic.samples.extend(samples)
            last_match.update(matches)

    errors: list[Exception] = []

    def guarded(index):
        try:
            client_loop(index)
        except Exception as exc:
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    traffic.wall_seconds = time.perf_counter() - started
    if errors:
        # A client that stopped early took its samples with it: end the
        # run rather than report the other client's traffic alone.
        raise errors[0]
    return traffic, last_match


def _f1(corpus, last_match) -> float:
    """Planted-truth F1 over the last answer to each distinct /match pair."""
    generated = {g.schema.name: g for g in corpus.schemata}
    tally = harness.F1Tally()
    for (source, target), response in sorted(last_match.items()):
        tally.add(
            {c.pair for c in response.correspondences},
            harness.facet_truth(generated[source], generated[target]),
        )
    return tally.f1


def _probe(state, corpus, universe, spans) -> dict:
    """In-process replay of every universe request, one span per layer."""
    refreshes = 0
    with MetadataRepository(path=str(state.db), backend="pooled") as repository:
        service = MatchService(repository=repository)
        probes.repository_reads(spans, repository, state.names)
        for generated in corpus.schemata:
            with spans.span("op"):
                probes.cold_profile(spans, generated.schema)
        index = service.corpus_index()
        for number, (kind, request) in enumerate(_requests(universe)):
            if kind == "match":
                response = service.match(request)
                source = service.resolve(request.source)
                target = service.resolve(request.target)
                payload = request.to_dict()
                with spans.span("op"):
                    decoded = probes.request_edges(
                        spans, service, MatchRequest, "/match",
                        payload, response)
                    with spans.span("service.route_us"):
                        service.route_pair(decoded, source, target)
                        engine = service.engine(decoded.options)
                    probes.exact_op(
                        spans, engine, engine.profile(source), engine.profile(target),
                        None, None, decoded.options.build_selection())
            elif kind == "corpus":
                copy = f"{request.source}-probe{number}"
                with spans.span("op"):
                    with spans.span("repository.write_ms"):
                        repository.register(service.resolve(request.source), name=copy)
                with spans.span("op"):
                    with spans.span("corpus.refresh_ms"):
                        refreshes += 0 if index.refresh().was_noop else 1
                with spans.span("op"):
                    with spans.span("repository.write_ms"):
                        repository.unregister(copy)
                index.refresh()
                response = service.corpus_match(request)
                source = service.resolve(request.source)
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
                    for name in response.candidate_names:
                        probes.batch_op(
                            spans, runner, runner.profile(source),
                            runner.profile(service.resolve(name)), selection)
            else:
                response = service.network_match(request)
                # A write first, so routing pays the adjacency rebuild a
                # served request pays after every stored match set.
                with spans.span("op"):
                    with spans.span("repository.write_ms"):
                        repository.store_matches(
                            state.names[1], state.names[2],
                            [Correspondence(source_id=state.pivot,
                                            target_id=f"probe-{number}", score=1.0)],
                            asserted_by="validator",
                            method=AssertionMethod.HUMAN_VALIDATED)
                payload = request.to_dict()
                with spans.span("op"):
                    decoded = probes.request_edges(
                        spans, service, NetworkMatchRequest, "/network-match",
                        payload, response)
                    with spans.span("network.compose_ms"):
                        service.mapping_graph().route(
                            decoded.source, decoded.target,
                            max_hops=decoded.max_hops, hop_decay=decoded.hop_decay)
    return {"corpus.refreshes": float(refreshes)}


def run(seed: int, seconds: float, trace: bool, params: Params = Params()
        ) -> harness.Outcome:
    corpus = generate_clustered_corpus(n_domains=2, schemata_per_domain=4, seed=seed)
    spans = harness.SpanLog() if trace else None
    layer: dict[str, float] = {}
    delta = None
    universe = _universe(sorted(g.schema.name for g in corpus.schemata), seed, params)
    with harness.scratch_dir(NAME) as work:

        def build(directory):
            state = _State(corpus, directory)
            state.warm(universe)
            return state

        state, setup_times = harness.timed_setup(build, _State.close, work)
        writer = _Writer(state, corpus, spans or harness.NoSpans())
        try:
            before = state.client.metrics() if trace else None
            rss = harness.PeakRss(state.server.peak_rss_mb, RSS_AFTER)
            traffic, last_match = _drive(
                state, universe, seed, seconds, params, spans, writer, rss)
            if trace:
                delta = probes.metrics_delta(before, state.client.metrics())
            rss_mb = rss.result()
            if trace:
                layer = _probe(state, corpus, universe, spans)
        finally:
            writer.close()
            state.close()
    return harness.Outcome(
        traffic=traffic, setup_seconds=setup_times, rss_mb=rss_mb,
        f1=_f1(corpus, last_match),
        details={"writes": writer.n_writes},
        spans=spans, server_delta=delta, layer=layer,
    )
