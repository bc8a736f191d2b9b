"""Every experiment runs (quick mode) and all of its claims hold.

These are the reproduction's top-level regression tests: if a code change
breaks a theorem-level claim, the corresponding experiment check fails
here before it fails in the benchmark harness.
"""

import pytest

from repro.experiments.base import _MODULES, run_experiment
from repro.kernel.errors import VerificationError

FAST_IDS = [
    "T1", "T2", "T3", "T4", "T5", "T6",
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
    "A1", "A2", "A4", "A5",
]


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_experiment_passes_quick(experiment_id):
    result = run_experiment(experiment_id, seed=0, quick=True)
    assert result.experiment_id == experiment_id
    assert result.rendered and result.rows
    failed = {name: ok for name, ok in result.checks.items() if not ok}
    assert not failed, f"{experiment_id} failed: {failed}"


@pytest.mark.slow
def test_a3_probabilistic_quick():
    result = run_experiment("A3", seed=0, quick=True)
    failed = {name: ok for name, ok in result.checks.items() if not ok}
    assert not failed, f"A3 failed: {failed}"


def test_f4_fails_on_an_empty_ensemble(monkeypatch):
    """F4's checks quantify over the runs it examines, so an ensemble
    with no runs must fail all three, not pass them vacuously."""
    from repro.experiments import f4_knowledge

    class NoRuns:
        traces = ()

        def __len__(self):
            return 0

    monkeypatch.setattr(
        f4_knowledge, "exhaustive_ensemble", lambda *args, **kwargs: NoRuns()
    )
    result = f4_knowledge.run(seed=0, quick=True)
    assert result.checks == {
        "knowledge_precedes_writing": False,
        "knowledge_is_stable": False,
        "learning_times_monotone": False,
    }


def test_a2_fails_on_an_exhausted_encoding_search(monkeypatch):
    """An encoding search that runs out of budget decides nothing, so
    A2 must not read it as "not encodable" -- not even on the rows
    where "not encodable" is the expected answer."""
    from repro.experiments import a2_encoding
    from repro.kernel.errors import EncodingSearchExhausted

    def starved(family, alphabet):
        raise EncodingSearchExhausted(
            "encoding search exceeded 1 constraint checks"
        )

    monkeypatch.setattr(a2_encoding, "build_prefix_monotone_encoding", starved)
    result = a2_encoding.run(seed=0, quick=True)
    theory = {
        name: ok
        for name, ok in result.checks.items()
        if name.endswith("_matches_theory")
    }
    assert theory and not any(theory.values())
    assert {row[4] for row in result.rows} == {"unknown"}


def test_registry_is_complete():
    from repro.experiments.base import registry

    table = registry()
    assert set(table) == set(_MODULES)


def test_unknown_experiment_rejected():
    with pytest.raises(VerificationError):
        run_experiment("Z9")


def test_assert_checks_raises_on_failure():
    from repro.experiments.base import ExperimentResult

    result = ExperimentResult(
        experiment_id="X",
        title="t",
        rendered="r",
        headers=("h",),
        rows=((1,),),
        checks={"ok": True, "broken": False},
    )
    assert not result.all_checks_pass
    with pytest.raises(VerificationError, match="broken"):
        result.assert_checks()


def test_results_are_deterministic_for_fixed_seed():
    first = run_experiment("T1", seed=3, quick=True)
    second = run_experiment("T1", seed=3, quick=True)
    assert first.rows == second.rows
