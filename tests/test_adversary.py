"""Utility formulas, the incentive inequality, and coalition probabilities."""

import pytest

from cicsim.adversary import (Strategy, UtilityParams, estimate_gammas,
                              nash_condition, utility_collude, utility_freeload,
                              utility_honest)

from oracles import gamma_oracle


def up(**kw) -> UtilityParams:
    base = dict(reward=100.0, deposit=50.0, beta=1e-6, gamma=1e-3,
                c1=10.0, c2=1.0, c3=15.0)
    base.update(kw)
    return UtilityParams(**base)


def test_honest_utility_values():
    assert utility_honest(up(beta=0.0)) == pytest.approx(90.0)
    assert utility_honest(up()) == pytest.approx(89.99985, abs=1e-9)
    assert utility_honest(up(beta=0.0, reward=10.0, c1=10.0)) == pytest.approx(0.0)


def test_freeload_utility_values():
    # a perfect guess with matching costs collapses to the honest payoff
    p = up(gamma=1.0, c2=10.0)
    assert utility_freeload(p) == pytest.approx(utility_honest(p))
    assert utility_freeload(up(gamma=0.0, c2=1.0)) == pytest.approx(-51.0)
    assert utility_freeload(up()) == pytest.approx(-50.85, abs=5e-3)


def test_nash_condition_cases():
    assert nash_condition(up())                       # R > c1, small beta/gamma
    # R + D below the exact bound
    assert not nash_condition(up(reward=1.0, deposit=1.0, c1=50.0, c2=0.0,
                                 beta=0.4, gamma=0.9))
    # equality boundary is excluded: (R+D)(1-b)(1-g) == c1 - c2 exactly
    boundary = up(reward=3.0, deposit=1.0, beta=0.5, gamma=0.5, c1=1.0, c2=0.0)
    assert (3.0 + 1.0) * 0.5 * 0.5 == 1.0
    assert not nash_condition(boundary)


@pytest.mark.parametrize("c1, c2", [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
def test_a_perfect_guesser_is_beaten_on_costs_alone(c1, c2):
    """At gamma = 1 free-loading earns the honest payoff with c2 in place of
    c1, so honesty strictly wins exactly when c1 < c2."""
    p = up(gamma=1.0, c1=c1, c2=c2)
    assert nash_condition(p) == (utility_honest(p) > utility_freeload(p)) == (c1 < c2)


def test_nash_matches_direct_sign_comparison_on_a_grid():
    import numpy as np
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(2000):
        p = up(reward=float(rng.uniform(0, 200)), deposit=float(rng.uniform(0, 200)),
               beta=float(rng.uniform(0, 0.45)), gamma=float(rng.uniform(0, 0.99)),
               c1=float(rng.uniform(0, 60)), c2=float(rng.uniform(0, 60)))
        direct = utility_honest(p) - utility_freeload(p) > 0
        disagreements += direct != nash_condition(p)
    assert disagreements == 0


def test_collusion_utility_and_epsilon():
    value, eps = utility_collude(up(gamma1=1.0, gamma2=0.0))
    expected = (1 - 1e-6) * 100.0 - 1e-6 * 50.0 - 15.0
    assert value == pytest.approx(expected)
    assert eps == pytest.approx(15.0 - 10.0)
    value, eps = utility_collude(up(gamma1=0.0, gamma2=1.0))
    assert value == pytest.approx(-65.0)
    assert eps is None
    # expensive collusion leaves honesty preferred
    costly = up(gamma1=1.0, gamma2=0.0, c3=80.0)
    assert utility_honest(costly) > utility_collude(costly)[0]


GAMMA_POINT = dict(m_total=1600, q=0.125, th1=0.6, th2=0.25)


@pytest.mark.parametrize("coalition", [0, 1, 150, 800, 960, 1100, 1600])
def test_gammas_match_the_exact_oracle(coalition):
    gammas = estimate_gammas(coalition_size=coalition, **GAMMA_POINT)
    exact = gamma_oracle(*GAMMA_POINT.values(), coalition)
    assert gammas == pytest.approx(exact, rel=0, abs=1e-11)
    assert all(0.0 <= g <= 1.0 for g in gammas)


def test_gammas_at_certain_membership_and_on_bad_input():
    # with q = 1 the set is the whole pool, so each threshold holds or fails outright
    point = {**GAMMA_POINT, "q": 1.0}
    assert estimate_gammas(coalition_size=960, **point) == (0.0, 0.0)
    assert estimate_gammas(coalition_size=961, **point) == (1.0, 0.0)
    assert estimate_gammas(coalition_size=399, **point) == (0.0, 1.0)
    for size in (-1, 1601):
        with pytest.raises(ValueError):
            estimate_gammas(coalition_size=size, **GAMMA_POINT)
    for q in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            estimate_gammas(coalition_size=800, **{**GAMMA_POINT, "q": q})


@pytest.mark.parametrize("coalition", [400, 960])
def test_gammas_agree_with_a_seeded_monte_carlo(coalition):
    import numpy as np

    trials, (m, q, th1, th2) = 100_000, GAMMA_POINT.values()
    rng = np.random.default_rng(coalition)
    inside = rng.binomial(coalition, q, size=trials)
    size = inside + rng.binomial(m - coalition, q, size=trials)
    estimates = (np.mean(inside > th1 * size), np.mean(inside < th2 * size))
    for exact, estimate in zip(estimate_gammas(coalition_size=coalition, **GAMMA_POINT), estimates):
        # three-sigma binomial band around the exact value
        assert abs(estimate - exact) <= 3 * (exact * (1 - exact) / trials) ** 0.5 + 1e-4


def test_strategy_constructors_validate():
    assert Strategy("honest").kind == "honest"
    assert Strategy("byz_multi", fanout=3).fanout == 3
    assert Strategy("freeloader", gamma=0.2).gamma == 0.2
    assert Strategy("colluder", group=1).group == 1
    assert Strategy("silent").kind == "silent"
    with pytest.raises(ValueError):
        Strategy("nonsense")
    with pytest.raises(ValueError):
        Strategy("byz_multi", fanout=1)
    with pytest.raises(ValueError):
        Strategy("freeloader", gamma=1.5)
    with pytest.raises(ValueError):
        UtilityParams(reward=-1, deposit=0, beta=0.1)
