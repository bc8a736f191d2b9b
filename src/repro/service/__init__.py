"""repro.service: verification-as-a-service over the fabric.

An asyncio front-end (stdlib only) that accepts explore / stabilize /
campaign verification requests over newline-delimited JSON
(schema ``stp-service/1``), answers warm requests straight from the
content-addressed :class:`~repro.analysis.cache.ResultCache`, coalesces
identical concurrent requests onto one in-flight computation, dispatches
cold work to a bounded pool built on the fabric's
:class:`~repro.fabric.queue.WorkQueue` ledger and the resilient
supervised runner, streams ``repro.obs``-sourced progress events to
subscribed clients, and sheds load with typed ``busy`` errors at a
configurable queue depth.

The pieces, importable a la carte:

* :mod:`repro.service.protocol` -- the wire schema, typed error
  vocabulary, canonical encode/decode;
* :mod:`repro.service.requests` -- request parsing, budget admission,
  content-addressed job keys, execution;
* :mod:`repro.service.jobs` -- the in-flight :class:`JobBoard` (the
  coalescing heart) and :class:`ServiceStats` counters;
* :mod:`repro.service.pool` -- the bounded worker pool + job ledger;
* :mod:`repro.service.server` -- :class:`VerificationService`,
  :class:`ServiceThread`, and the ``stp-repro serve`` coroutine;
* :mod:`repro.service.client` -- the blocking client.

Attribute access is lazy (PEP 562), matching :mod:`repro.fabric`: the
protocol module is import-light, but the server pulls in the cache and
fabric stacks, which nothing should pay for at ``import repro.service``.
"""

from typing import Dict, Tuple

_EXPORTS: Dict[str, str] = {
    # protocol
    "SERVICE_SCHEMA": "repro.service.protocol",
    "VERIFY_KINDS": "repro.service.protocol",
    "CONTROL_KINDS": "repro.service.protocol",
    "ERROR_CODES": "repro.service.protocol",
    "ServiceError": "repro.service.protocol",
    "BadRequest": "repro.service.protocol",
    "Busy": "repro.service.protocol",
    "BudgetExceeded": "repro.service.protocol",
    "ShuttingDown": "repro.service.protocol",
    "encode": "repro.service.protocol",
    "decode": "repro.service.protocol",
    # requests
    "ServiceLimits": "repro.service.requests",
    "ExploreRequest": "repro.service.requests",
    "StabilizeRequest": "repro.service.requests",
    "CampaignRequest": "repro.service.requests",
    "parse_request": "repro.service.requests",
    # jobs
    "Job": "repro.service.jobs",
    "JobBoard": "repro.service.jobs",
    "ServiceStats": "repro.service.jobs",
    # pool
    "ServicePool": "repro.service.pool",
    # server
    "VerificationService": "repro.service.server",
    "ServiceThread": "repro.service.server",
    "build_service": "repro.service.server",
    "serve": "repro.service.server",
    # client
    "ServiceClient": "repro.service.client",
    "wait_until_ready": "repro.service.client",
}

__all__: Tuple[str, ...] = tuple(sorted(_EXPORTS))


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
