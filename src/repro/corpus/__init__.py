"""Corpus matching: persistent indexing and top-k retrieval over a registry.

The glue between the metadata repository (schemata + match knowledge) and
the match service: :class:`CorpusIndex` keeps a lazily refreshed,
fingerprint-persisted, hash-range sharded inverted index over every
registered schema (one shard by default) and serves the top-k retrieval
stage of ``MatchService.corpus_match``.  :class:`CorpusRefreshWorker`
keeps it warm off the request path, and :func:`bulk_ingest` is the
batched registration pipeline behind ``repro ingest``.  See
``docs/repository.md`` and ``docs/serving.md``.
"""

from repro.corpus.index import (
    FINGERPRINT_FORMAT_VERSION,
    CorpusIndex,
    CorpusRefresh,
    ShardStats,
    build_fingerprint,
    shard_of_name,
)
from repro.corpus.ingest import IngestReport, bulk_ingest, iter_schema_payloads
from repro.corpus.worker import CorpusRefreshWorker, RefreshWorkerStats

__all__ = [
    "FINGERPRINT_FORMAT_VERSION",
    "CorpusIndex",
    "CorpusRefresh",
    "CorpusRefreshWorker",
    "IngestReport",
    "RefreshWorkerStats",
    "ShardStats",
    "build_fingerprint",
    "bulk_ingest",
    "iter_schema_payloads",
    "shard_of_name",
]
