"""Randomized property suite plumbing."""

import numpy as np
import pytest

from senseauction.market import Rates
from senseauction.properties import (ALL_CHECKS, PropertyViolation,
                                     RandomInstance, _with_clone,
                                     random_instance, run_property_suite)


def test_random_instance_replay_is_serializable():
    import json
    rng = np.random.default_rng(0)
    inst = random_instance(rng)
    doc = inst.replay_doc()
    assert json.loads(json.dumps(doc)) == doc
    p = inst.problem("welfare")
    assert p.objective == "welfare"
    assert len(p.edges) == len(inst.tau)


def test_suite_runs_clean_and_counts_checks():
    counts = run_property_suite(trials=25, max_drivers=5, max_riders=5,
                                seed=0)
    assert set(counts) == set(ALL_CHECKS)
    assert counts["exactness"] == 25
    assert counts["settlement"] == 25
    # Strategic checks only apply to instances with competition.
    assert 0 < counts["group_ic"] <= 25
    assert 0 < counts["reporting"] <= 25


def test_suite_is_deterministic_per_seed():
    a = run_property_suite(trials=10, max_drivers=4, max_riders=4, seed=3)
    b = run_property_suite(trials=10, max_drivers=4, max_riders=4, seed=3)
    assert a == b


def test_violation_carries_replay_document():
    with pytest.raises(PropertyViolation) as exc_info:
        raise PropertyViolation("demo", "detail", {"k": 1})
    assert exc_info.value.replay == {"k": 1}


def test_envy_free_clones_copy_one_participant():
    """A rider twin copies the first rider's rates and pairs, a driver twin
    the first driver's; each is appended after the originals, and a side
    whose first participant has no pair gets no twin."""
    inst = RandomInstance(
        rates=Rates(alpha=1.5, beta=2.75), b_true={"d1": 1.5, "d0": 1.2},
        delta_true={"r1": 1.1, "r0": 1.9}, h={"r1": 3.0, "r0": 4.0},
        f={"r1": 0.5, "r0": 0.0}, tau={("d1", "r0"): 0.3, ("d0", "r1"): 0.7},
        zeta={"r1": 2.0, "r0": 1.0})
    rider, r, rc = _with_clone(inst, "rider")
    assert (r, rc) == ("r0", "r0_twin")
    assert rider.replay_doc() == {
        "b_true": {"d1": 1.5, "d0": 1.2},
        "delta_true": {"r1": 1.1, "r0": 1.9, "r0_twin": 1.9},
        "h": {"r1": 3.0, "r0": 4.0, "r0_twin": 4.0},
        "f": {"r1": 0.5, "r0": 0.0, "r0_twin": 0.0},
        "tau": {"d1|r0": 0.3, "d0|r1": 0.7, "d1|r0_twin": 0.3},
        "zeta": {"r1": 2.0, "r0": 1.0, "r0_twin": 1.0}}
    assert list(rider.replay_doc()["tau"]) == ["d1|r0", "d0|r1", "d1|r0_twin"]
    driver, d, dc = _with_clone(inst, "driver")
    assert (d, dc) == ("d0", "d0_twin")
    assert driver.replay_doc() == {
        **inst.replay_doc(), "b_true": {"d1": 1.5, "d0": 1.2, "d0_twin": 1.2},
        "tau": {"d1|r0": 0.3, "d0|r1": 0.7, "d0_twin|r1": 0.7}}
    assert list(driver.b_true) == ["d1", "d0", "d0_twin"]
    lonely = RandomInstance(**{**inst.__dict__, "tau": {("d1", "r1"): 0.4}})
    assert _with_clone(lonely, "rider") is None
    assert _with_clone(lonely, "driver") is None
