"""Why a selfish node executes instead of guessing.

The payoff comparison between honest execution, free-loading (reusing a
prior round's winning root while guessing the fresh seed), and colluding on
a shared seed. With any sane reward and deposit, honesty dominates as long
as the guess probability stays small, and that probability is exactly what
the round-varying digests suppress.
"""

from cicsim.adversary import (UtilityParams, estimate_gammas, nash_condition,
                              utility_collude, utility_freeload, utility_honest)

p = UtilityParams(reward=100.0, deposit=50.0, beta=1e-6, gamma=1e-3,
                  c1=10.0, c2=1.0, c3=15.0)
print(f"honest payoff:     {utility_honest(p):9.4f}")
print(f"free-load payoff:  {utility_freeload(p):9.4f}")
print(f"honesty preferred: {nash_condition(p)}")

print("\nhow good must the guess get before free-loading pays?")
for gamma in (0.5, 0.9, 0.99, 0.999):
    q = UtilityParams(reward=100.0, deposit=50.0, beta=1e-6, gamma=gamma,
                      c1=10.0, c2=1.0)
    print(f"  gamma={gamma}: honest - freeload = "
          f"{utility_honest(q) - utility_freeload(q):8.4f}")

# collusion: a coalition needs a super-threshold share of the set to win
value, epsilon = utility_collude(UtilityParams(
    reward=100.0, deposit=50.0, beta=1e-6, gamma1=1.0, gamma2=0.0,
    c1=10.0, c3=15.0))
print(f"\ncertain-majority collusion payoff {value:.4f}; deviation slack "
      f"epsilon = {epsilon} (collusion overhead minus execution cost)")

# a coalition's share of a random set tracks its share of the pool, so
# clearing th1 = 0.6 takes roughly 0.6 * 1600 = 960 members
print("\ncoalition threshold probabilities (M=1600, q=0.125, th1=0.6, th2=0.25):")
for size in (150, 800, 960, 1100, 1300):
    g1, g2 = estimate_gammas(1600, 0.125, 0.6, 0.25, size)
    print(f"  |coalition|={size:4d}: gamma1={g1:8.5f}  gamma2={g2:8.5f}")
