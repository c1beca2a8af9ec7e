"""cascade-budget: hard-tier pairs matched with a budgeted oracle cascade.

Hard-tier pairs (180 x 130, 30 decoys, abbreviation gradient 0.5), built
as in bench E23, each from its own seed, so no judgement can be served
from another request's oracle cache.  One caller (closed loop) matches
each pair in-process with ``MatchService.match`` and a ``CascadePlan`` at
a fixed budget of 2,340 escalations (10% of the 23,400-cell grid); each
request gets a fresh service, as a caller matching a new pair has no warm
caches for it.  The oracle is a recorded ground-truth judge at ~95%
fidelity (one true match in twenty is missed), registered in this
process -- a ``repro serve`` process could not load it.

This is the only workload where the cascade layer does work: quality per
oracle call (``f1`` against ``cascade.oracle_calls``) is measured here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import harness
import probes
from repro.cascade import CascadePlan, RecordedOracle, element_view, register_oracle
from repro.match import MatchMatrix
from repro.matchers.profile import build_profile
from repro.service import MatchOptions, MatchRequest, MatchService
from repro.synthetic import PairSpec, generate_pair

NAME = "cascade-budget"
HARD_SPEC = PairSpec(decoys=30, abbrev_gradient=0.5)
BUDGET = 2340
BAND = 0.35
WEIGHT = 0.8
THRESHOLD = 0.15
TRUE_VERDICT = 0.9
FALSE_VERDICT = -0.7
#: One true match in this many is judged a non-match (~95% fidelity).
MISS_MODULUS = 20
ORACLE = "repobench-truth"
PLAN = CascadePlan(band=BAND, budget=BUDGET, oracle=ORACLE, weight=WEIGHT)
OPTIONS = MatchOptions(execution="exact", threshold=THRESHOLD, cascade=PLAN)
#: Requests answered when this process's peak RSS is read.
RSS_AFTER = 40


@dataclass(frozen=True)
class Params:
    pool: int = 64              # distinct pairs, cycled when time remains
    quality_pairs: int = 40     # f1 and oracle spend cover the first this many
    reference_checks: int = 6   # answers re-derived from the plain engine
    probe_pairs: int = 6        # pairs replayed by the traced run


TINY = Params(pool=3, quality_pairs=3, reference_checks=2, probe_pairs=1)


def _recording(pair) -> dict[str, float]:
    """The judge's verdicts on the planted truth pairs.

    Everything else gets the oracle's default (a non-match), so this
    answers exactly like a recording of the whole grid: content-identical
    pairs share a key, and a truth verdict wins the collision.
    """
    source = build_profile(pair.source.schema)
    target = build_profile(pair.target.schema)
    rows = {element_id: i for i, element_id in enumerate(source.element_ids)}
    cols = {element_id: j for j, element_id in enumerate(target.element_ids)}
    recording: dict[str, float] = {}
    for source_id, target_id in sorted(pair.truth_pairs):
        key = RecordedOracle.pair_key(
            element_view(source, rows[source_id]), element_view(target, cols[target_id])
        )
        missed = int(key[:8], 16) % MISS_MODULUS == 0
        verdict = FALSE_VERDICT if missed else TRUE_VERDICT
        recording[key] = max(recording.get(key, -1.0), verdict)
    return recording


class _State:
    """The pair pool with its recordings, and the registered oracle."""

    def __init__(self, seed, params):
        self.pairs = [
            generate_pair(HARD_SPEC, seed=harness.derive_seed(seed, "pair", i))
            for i in range(params.pool + 1)
        ]
        self.recordings = [_recording(pair) for pair in self.pairs]
        self.oracle = RecordedOracle(default=FALSE_VERDICT)
        register_oracle(ORACLE, lambda: self.oracle)
        # Warm-up on a pair the timed loop never sees: lazy imports and
        # lexicon loads, which every later request in a process reuses.
        self.match(len(self.pairs) - 1)
        del self.pairs[-1], self.recordings[-1]

    def match(self, index: int):
        pair = self.pairs[index]
        self.oracle.recording = self.recordings[index]
        return MatchService().match(MatchRequest(
            source=pair.source.schema, target=pair.target.schema, options=OPTIONS))

    def close(self):
        pass


@dataclass
class _Answer:
    """What the checks need of one pair's first answer.

    Holding whole responses (matrices, 2,340 escalated pairs each) would
    grow the heap every full collection scans during the timed loop.
    """

    correspondences: tuple
    oracle_calls: int
    n_escalated: int
    n_useful: int
    escalated_pairs: tuple = ()   # kept only for the reference checks


def _drive(state, seed, seconds, params, spans, rss):
    traffic = harness.Traffic()
    first: dict[int, _Answer] = {}
    schedule = harness.span_schedule(spans, seed)
    started = time.perf_counter()
    deadline = started + seconds
    number = 0
    while time.perf_counter() < deadline:
        index = number % len(state.pairs)
        span_log, traced = schedule(number)
        request_started = time.perf_counter()
        with span_log.span("request"):
            response = state.match(index)
        sample = harness.Sample("match", time.perf_counter() - request_started,
                                traced=traced)
        report = response.cascade
        if response.route != "exact" or report is None:
            sample.ok, sample.problem = False, "wrong-route"
        elif report.oracle_calls > BUDGET or report.n_escalated > BUDGET:
            sample.ok, sample.problem = False, "over-budget"
        elif index in first and not harness.same_scores(
            response.correspondences, first[index].correspondences
        ):
            sample.ok, sample.problem = False, "nondeterministic"
        if index not in first and report is not None:
            escalated = report.escalated_pairs
            first[index] = _Answer(
                correspondences=response.correspondences,
                oracle_calls=report.oracle_calls,
                n_escalated=len(escalated),
                n_useful=len(set(escalated) & state.pairs[index].truth_pairs),
                escalated_pairs=escalated if index < params.reference_checks else (),
            )
        del response, report
        traffic.samples.append(sample)
        rss.answered(len(traffic.samples))
        number += 1
    traffic.wall_seconds = time.perf_counter() - started
    return traffic, [first[i] for i in sorted(first)]


def _expected(state, index, escalated):
    """The cascade's answer re-derived by hand: plain engine scores, with
    each escalated cell blended with the recorded verdict."""
    pair = state.pairs[index]
    plain = MatchService().match(MatchRequest(
        source=pair.source.schema, target=pair.target.schema,
        options=MatchOptions(execution="exact", threshold=THRESHOLD)))
    matrix = plain.result.matrix
    scores = np.array(matrix.scores, dtype=float)
    source = build_profile(pair.source.schema)
    target = build_profile(pair.target.schema)
    rows = {element_id: i for i, element_id in enumerate(source.element_ids)}
    cols = {element_id: j for j, element_id in enumerate(target.element_ids)}
    recording = state.recordings[index]
    for source_id, target_id in escalated:
        i, j = rows[source_id], cols[target_id]
        verdict = recording.get(
            RecordedOracle.pair_key(element_view(source, i), element_view(target, j)),
            FALSE_VERDICT,
        )
        scores[i, j] = float(np.clip((1 - WEIGHT) * scores[i, j] + WEIGHT * verdict,
                                     -1.0, 1.0))
    return OPTIONS.build_selection().select(
        MatchMatrix(matrix.source_ids, matrix.target_ids, scores))


def _verify(state, params, traffic, answers) -> dict:
    """Reference checks (untimed), f1, oracle spend and useful ratio."""
    positions: dict[int, int] = {}
    for number in range(len(traffic.samples)):
        positions.setdefault(number % len(state.pairs), number)
    for index, answer in enumerate(answers[: params.reference_checks]):
        expected = _expected(state, index, answer.escalated_pairs)
        if not harness.same_scores(answer.correspondences, expected):
            traffic.fail(positions[index], "score-mismatch")
    tally = harness.F1Tally()
    quality = answers[: params.quality_pairs]
    for index, answer in enumerate(quality):
        tally.add({c.pair for c in answer.correspondences}, state.pairs[index].truth_pairs)
    escalated = sum(answer.n_escalated for answer in quality)
    return {
        "f1": tally.f1,
        "cascade.oracle_calls": sum(a.oracle_calls for a in quality) / len(quality),
        "cascade.useful_ratio": (
            sum(a.n_useful for a in quality) / escalated if escalated else 0.0
        ),
        "distinct_pairs": len(answers),
    }


def _probe(state, params, spans) -> None:
    """In-process replay of the first pairs, one span per layer.

    Each replay gets a new service, as each served pair does: profiles are
    built cold and the escalation calls the oracle rather than a cache.
    """
    for index in range(min(params.probe_pairs, len(state.pairs))):
        pair = state.pairs[index]
        request = MatchRequest(
            source=pair.source.schema, target=pair.target.schema, options=OPTIONS)
        response = state.match(index)   # untraced: the answer to encode
        service = MatchService()
        payload = request.to_dict()
        with spans.span("op"):
            decoded = probes.request_edges(
                spans, service, MatchRequest, "/match", payload, response)
            source, target = decoded.source, decoded.target
            with spans.span("service.route_us"):
                service.route_pair(decoded, source, target)
                engine = service.engine(decoded.options)
            with spans.span("matchers.profile_ms"):
                source_profile = engine.profile(source)
            with spans.span("matchers.profile_ms"):
                target_profile = engine.profile(target)
            probes.exact_op(
                spans, engine, source_profile, target_profile,
                None, None, decoded.options.build_selection(),
                cascade=service.cascade_executor(decoded.options.cascade))


def run(seed: int, seconds: float, trace: bool, params: Params = Params()
        ) -> harness.Outcome:
    spans = harness.SpanLog() if trace else None
    with harness.scratch_dir(NAME) as work:
        state, setup_times = harness.timed_setup(
            lambda directory: _State(seed, params), _State.close, work)
    rss = harness.PeakRss(harness.own_peak_rss_mb, RSS_AFTER)
    traffic, answers = _drive(state, seed, seconds, params, spans, rss)
    rss_mb = rss.result()
    checks = _verify(state, params, traffic, answers)
    layer = {key: checks.pop(key) for key in ("cascade.oracle_calls", "cascade.useful_ratio")}
    if trace:
        _probe(state, params, spans)
    return harness.Outcome(
        traffic=traffic, setup_seconds=setup_times, rss_mb=rss_mb, f1=checks.pop("f1"),
        details={**checks, **layer}, spans=spans, layer=layer,
    )
