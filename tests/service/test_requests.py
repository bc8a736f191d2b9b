"""Request parsing, budgets at admission, and the key-discipline contract."""

from __future__ import annotations

import pytest

from repro.analysis.cache import (
    ResultCache,
    cached_explore,
    explore_report_key,
    stabilize_report_key,
)
from repro.service.protocol import BadRequest, BudgetExceeded
from repro.service.requests import (
    CampaignRequest,
    ExploreRequest,
    ServiceLimits,
    StabilizeRequest,
    parse_request,
)

LIMITS = ServiceLimits()


def _parse(kind, **params):
    return parse_request({"kind": kind, "params": params}, LIMITS)


# -- validation at the front door ---------------------------------------


def test_unknown_kind_is_bad_request():
    with pytest.raises(BadRequest, match="kind"):
        parse_request({"kind": "teleport", "params": {}}, LIMITS)


def test_params_must_be_an_object():
    with pytest.raises(BadRequest, match="params"):
        parse_request({"kind": "explore", "params": [1, 2]}, LIMITS)


def test_unknown_parameter_is_bad_request():
    with pytest.raises(BadRequest, match="max_statez") as info:
        _parse("explore", protocol="norepeat", channel="dup", max_statez=5)
    assert "known" in info.value.details


def test_unknown_protocol_names_the_registry():
    with pytest.raises(BadRequest) as info:
        _parse("explore", protocol="carrier-pigeon", channel="dup")
    assert "norepeat" in info.value.details["known"]


def test_unknown_channel_names_the_registry():
    with pytest.raises(BadRequest) as info:
        _parse("explore", protocol="norepeat", channel="wormhole")
    assert "dup" in info.value.details["known"]


def test_unknown_engine_is_bad_request():
    # The second name is a retired engine old clients may still send.
    for engine in ("quantum", "vectorized"):
        with pytest.raises(BadRequest, match="engine"):
            _parse("explore", protocol="norepeat", channel="dup", engine=engine)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("explore", {"protocol": "norepeat", "channel": "dup"}),
        ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo"}),
    ],
)
def test_retired_engine_field_is_ignored(kind, params):
    """``engine`` is accepted as scalar or batched and changes nothing:
    the request equals, and keys like, one without the field."""
    plain = _parse(kind, input="a,b", **params)
    for engine in ("scalar", "batched"):
        request = _parse(kind, input="a,b", engine=engine, **params)
        assert request == plain
        assert request.job_key() == plain.job_key()
    with pytest.raises(BadRequest, match="engine"):
        _parse(kind, input="a,b", engine="vectorized", **params)


def test_retired_reduce_parameter_is_bad_request():
    # Symmetry reduction is gone; old clients may still send the flag.
    for kind, params in (
        ("explore", {"protocol": "norepeat", "channel": "dup"}),
        ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo"}),
    ):
        for engine in ("scalar", "batched"):
            with pytest.raises(BadRequest, match="reduce") as info:
                _parse(kind, engine=engine, reduce=True, **params)
            assert "reduce" not in info.value.details["known"]
            assert "engine" in info.value.details["known"]


def test_unknown_corruption_mode_is_bad_request():
    with pytest.raises(BadRequest, match="corruption") as info:
        _parse(
            "stabilize", protocol="ss-arq", channel="lossy-fifo",
            input="a,b", corruption="cosmic-rays",
        )
    assert "full" in info.value.details["known"]


def test_campaign_without_spec_is_bad_request():
    with pytest.raises(BadRequest, match="spec"):
        _parse("campaign", rng_seed=0)


# -- budgets are enforced at admission, before any work -----------------


def test_explore_over_state_cap_is_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        _parse(
            "explore", protocol="norepeat", channel="dup",
            input="a,b", max_states=LIMITS.max_states + 1,
        )
    assert info.value.details["requested"] == LIMITS.max_states + 1
    assert info.value.details["cap"] == LIMITS.max_states


def test_stabilize_over_state_cap_is_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        _parse(
            "stabilize", protocol="ss-arq", channel="lossy-fifo",
            input="a,b", max_states=LIMITS.max_states + 1,
        )


def test_campaign_over_step_cap_is_budget_exceeded():
    from repro.fabric.spec import demo_spec

    spec = demo_spec(inputs=1, seeds=1, length=2)
    payload = dict(spec.to_dict())
    payload["max_steps"] = LIMITS.max_steps + 1
    with pytest.raises(BudgetExceeded) as info:
        _parse("campaign", spec=payload)
    assert info.value.details["budget"] == "max_steps"


def test_truncated_outcome_is_budget_exceeded_with_partial():
    """A truncated report answers budget_exceeded, warm or cold alike."""
    request = _parse(
        "explore", protocol="stenning", channel="dup",
        input="a,b,c,d", max_states=10,
    )
    from repro.verify.explorer import explore

    report = explore(request.system(), max_states=10)
    assert report.truncated
    with pytest.raises(BudgetExceeded) as info:
        request.outcome(report)
    partial = info.value.details["partial"]
    assert partial["truncated"] is True
    assert partial["states"] >= 1


# -- the key-discipline contract ----------------------------------------
#
# A request's job key must be byte-equal to what the cached verification
# layer publishes under, or the coalescer and the warm probe disagree
# about what "the same work" means.


def test_explore_job_key_matches_public_key_function():
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b,c"
    )
    assert isinstance(request, ExploreRequest)
    assert request.job_key() == explore_report_key(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
    )


def test_stabilize_job_key_matches_public_key_function():
    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo", input="a,b"
    )
    assert isinstance(request, StabilizeRequest)
    assert request.job_key() == stabilize_report_key(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        corruption=request.corruption,
        channel_depth=request.channel_depth,
        sample=request.sample,
        seed=request.seed,
        domain=request.domain,
    )


def test_cached_explore_population_is_warm_for_the_request(tmp_path):
    """Work published by the library layer is warm for the service."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    cached_explore(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        cache=cache,
    )
    assert cache.get(request.cache_kind, request.job_key()) is not None


def test_request_execution_warms_the_library_layer(tmp_path):
    """And the reverse: service-computed work is warm for the library."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    request.execute(cache, LIMITS)
    before = cache.stats()["hits"]
    cached_explore(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        cache=cache,
    )
    assert cache.stats()["hits"] == before + 1


def test_campaign_job_key_is_the_plan_fingerprint():
    from repro.fabric.spec import demo_spec

    spec = demo_spec(inputs=2, seeds=1, length=4)
    request = _parse("campaign", spec=spec.to_dict())
    assert isinstance(request, CampaignRequest)
    assert request.job_key() == request.plan().plan_fingerprint
    # Key stability under JSON object ordering: same spec, different
    # dict insertion order, same fingerprint.
    shuffled = dict(reversed(list(spec.to_dict().items())))
    again = _parse("campaign", spec=shuffled)
    assert again.job_key() == request.job_key()


def test_stabilize_outcome_strips_engine_details(tmp_path):
    """Retired knobs (engine, shards) never appear in the answer."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo",
        input="a,b", max_states=150_000,
    )
    outcome = request.execute(cache, LIMITS)
    assert "engine" not in outcome
    assert "shards" not in outcome
    assert outcome["converges"] is True


# -- enqueue dispatch: requests decompose into fabric sweep cells -------
#
# In dispatch="enqueue" mode the pool publishes these cells instead of
# executing inline, so the cell keys MUST be the request's own job key
# -- otherwise the poll for the result would never see the fabric
# worker's publication.


def test_explore_sweep_cells_carry_the_job_key():
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    (cell,) = request.sweep_cells()
    assert cell.kind == "explore"
    assert cell.cell_id == request.job_key()
    assert cell.result_key == request.job_key()
    assert cell.protocol == "norepeat"
    assert cell.input_sequence == ("a", "b")


def test_stabilize_sweep_cells_carry_the_job_key():
    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo",
        input="a,b", seed=7, sample=50,
    )
    (cell,) = request.sweep_cells()
    assert cell.kind == "stabilize"
    assert cell.cell_id == request.job_key()
    assert cell.result_key == request.job_key()
    # Every analysis knob rides along, so a remote worker reproduces
    # the exact same fingerprint.
    assert cell.seed == 7
    assert cell.sample == 50
    assert cell.domain == request.domain


def test_sweep_cell_execution_is_warm_for_the_request(tmp_path):
    """A fabric worker executing the request's cell satisfies its poll."""
    from repro.fabric.cells import execute_sweep_cell

    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    (cell,) = request.sweep_cells()
    execute_sweep_cell(cell, cache)
    result = cache.get(request.cache_kind, request.job_key())
    assert result is not None
    assert request.outcome(result)["all_safe"] is True
