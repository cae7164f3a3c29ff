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


def test_gamma_extremes():
    g1, g2 = estimate_gammas(1600, 0.125, 0.6, 0.25, coalition_size=1600,
                             trials=20_000, seed=1)
    assert g1 == pytest.approx(1.0)
    assert g2 == pytest.approx(0.0)
    g1, g2 = estimate_gammas(1600, 0.125, 0.6, 0.25, coalition_size=0,
                             trials=20_000, seed=2)
    assert g1 == pytest.approx(0.0)
    assert g2 == pytest.approx(1.0)


def test_gamma_monte_carlo_against_exact_binomial_sum():
    m, q, th1, th2, coalition = 1600, 0.125, 0.6, 0.25, 150
    exact1, exact2 = gamma_oracle(m, q, th1, th2, coalition)
    mc1, mc2 = estimate_gammas(m, q, th1, th2, coalition, trials=100_000, seed=3)
    # three-sigma binomial bands around the exact values
    band1 = 3 * (exact1 * (1 - exact1) / 100_000) ** 0.5 + 1e-4
    band2 = 3 * (exact2 * (1 - exact2) / 100_000) ** 0.5 + 1e-4
    assert abs(mc1 - exact1) <= band1
    assert abs(mc2 - exact2) <= band2


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
