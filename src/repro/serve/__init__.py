"""Interconnect-model-as-a-service: the ``repro serve`` layer.

The paper's end-game is model-in-the-loop NoC synthesis: the
closed-form models matter because a tool can query them millions of
times interactively.  This package turns the reproduction into that
tool — a long-running query service over the link designer and the
Monte-Carlo engines:

* :mod:`repro.serve.protocol` — the JSON query/response schema
  (``design``, ``design_batch``, ``max_feasible_length``, ``mc``);
* :mod:`repro.serve.config` — ``REPRO_SERVE_*`` knobs resolved
  against CLI flags (conflicts are a hard error, exit 2);
* :mod:`repro.serve.core` — the stateless evaluate core every worker
  process runs: per-process warm contexts over the shared
  :class:`repro.runtime.DiskCache` memo;
* :mod:`repro.serve.coalescer` — batches the ``design`` requests
  that arrive while their shard is busy into one job each;
* :mod:`repro.serve.pool` — the sharded pool of warm worker
  processes, one per shard on a pipe the event loop reads, with crash
  recovery riding on the fault-tolerance layer;
* :mod:`repro.serve.server` — the asyncio front-end (JSON over HTTP
  on TCP and/or a local Unix socket, OpenMetrics on ``/metrics``);
* :mod:`repro.serve.loadgen` — the seeded load generator
  (``python -m repro.serve.loadgen``) the serve tests drive.

Every served answer is bit-identical to the direct in-process call —
the same contract the kernel lanes honour — and a worker crash
mid-request is recovered without dropping the request.
"""

from repro.serve.config import (
    DEFAULTS,
    ServeConfig,
    ServeConfigError,
    resolve_config,
)
from repro.serve.coalescer import Coalescer
from repro.serve.core import execute_query, reset_contexts
from repro.serve.pool import ShardedPool
from repro.serve.protocol import (
    ContextSpec,
    Query,
    QueryError,
    parse_query,
)
from repro.serve.server import ReproServer

__all__ = [
    "Coalescer",
    "ContextSpec",
    "DEFAULTS",
    "Query",
    "QueryError",
    "ReproServer",
    "ServeConfig",
    "ServeConfigError",
    "ShardedPool",
    "execute_query",
    "parse_query",
    "reset_contexts",
    "resolve_config",
]
