import hashlib
import json
import math

import pytest

from paleyfq.bounds import (
    _theta_square_floor,
    bounds_report,
    digit_sum,
    green_exponent,
    minimize_rate,
)
from paleyfq.rings import RingSpec, factor_prime_power, make_ring


def test_digit_sum():
    assert digit_sum(3, 7) == 3
    assert digit_sum(10, 7) == 4  # 10 = 13 in base 7
    for q, r in ((2, 5), (3, 3), (7, 2)):
        assert digit_sum(q**r, q) == 1
    with pytest.raises(ValueError):
        digit_sum(0, 7)


def test_green_exponent_values():
    g = green_exponent(7, 3)
    oracle = 1 / (2 * 9 * 9 * math.log(7))
    assert abs(g.exponent - oracle) < 1e-15
    assert abs(g.exponent - 3.1722e-3) < 1e-6
    assert abs(g.base - 7 ** (1 - oracle)) < 1e-12
    assert abs(g.base - 6.9569) < 1e-3


def test_green_exponent_decreasing_in_k():
    vals = [green_exponent(7, k).exponent for k in (2, 3, 4, 5, 6)]
    assert vals == sorted(vals, reverse=True)


def test_minimize_rate_example():
    m = minimize_rate(7, 4 / 9)
    assert abs(m.value - 6.903) < 1e-3
    assert 0 < m.t_star < 1


def test_minimize_rate_is_minimum():
    m = minimize_rate(7, 4 / 9)
    expo = 6 * (4 / 9)

    def f(t):
        return (1 - t**7) / ((1 - t) * t**expo)

    import random

    rng = random.Random(5)
    for _ in range(100):
        t = rng.uniform(1e-6, 1 - 1e-6)
        assert f(t) >= m.value - 1e-9


def test_minimize_rate_small_gamma_approaches_one():
    m = minimize_rate(7, 1e-9)
    assert m.value < 1.01


def test_minimize_rate_stability_under_tolerance():
    a = minimize_rate(7, 4 / 9, tol=1e-10).value
    b = minimize_rate(7, 4 / 9, tol=5e-11).value
    assert abs(a - b) < 1e-6


def test_bounds_report_c7():
    led = bounds_report(7, 3, 6, gamma=4 / 9)
    assert abs(led.lower_thm_base - 7 ** (5 / 6)) < 1e-12
    assert abs(led.lower_thm_base - 5.0613) < 1e-3
    assert led.r_k2 == 10
    assert abs(led.lower_improved - 10 ** (1 / 6) * 7 ** (2 / 3)) < 1e-12
    assert abs(led.lower_improved - 5.3716) < 1e-3
    assert abs(led.method_limit - 7 ** (8 / 9)) < 1e-12
    assert abs(led.refined_rate - 6.903) < 1e-3
    assert led.refined_rate < led.green_rate
    assert led.conjectured_tight


def test_bounds_report_marks_r_k2_timeout():
    # the solver deadline starts on entry, so 1e-9 s always expires
    led = bounds_report(7, 3, 6, budget_s=1e-9).to_json()
    assert led["r_k2_source"] == "timeout"
    assert led["r_k2"] is None and led["lower_improved_base"] is None
    assert "r_k2_source" not in bounds_report(7, 3, 6).to_json()


def test_bounds_report_gives_r_k2_lower_on_timeout():
    led = bounds_report(7, 3, 6, budget_s=1e-9).to_json()
    # at least the 7 beta pairs, and the incumbent when it is larger
    assert led["r_k2_lower"] >= 7
    assert led["r_k2"] is None and led["lower_improved_base"] is None
    assert "r_k2_lower" not in bounds_report(7, 3, 6).to_json()


def test_bounds_report_gives_r_k2_upper_on_timeout():
    led = bounds_report(7, 3, 6, budget_s=1e-9).to_json()
    # theta(C_7) = 7 cos(pi/7) / (1 + cos(pi/7)) = 3.3177..., squared 11.007
    assert led["r_k2_upper"] == 11
    assert led["r_k2_lower"] <= led["r_k2_upper"]
    assert "r_k2_upper" not in bounds_report(7, 3, 6).to_json()
    # Paley_2(F_7) is directed: no theta bound, though the solve timed out
    led = bounds_report(7, 2, 6, budget_s=1e-9).to_json()
    assert led["r_k2_source"] == "timeout"
    assert "r_k2_upper" not in led


@pytest.mark.parametrize("q, k, want", [
    # the ROADMAP table; theta(Paley_4(F_9)) = 3 and theta(Paley_5(F_16))
    # = 4 make theta^2 an integer that float error must not floor away
    (7, 3, 11), (9, 4, 9), (13, 3, 26), (13, 6, 41), (16, 3, 36),
    (16, 5, 16), (19, 3, 27),
])
def test_theta_square_floor(q, k, want):
    R = make_ring(RingSpec.field(*factor_prime_power(q)))
    assert _theta_square_floor(R, k) == want


def test_bounds_report_f3():
    led = bounds_report(3, 2, 4)
    assert abs(led.lower_thm_base - 3 ** (3 / 4)) < 1e-12
    assert led.refined_rate is None


def test_ledger_ordering_invariant():
    for q, k in ((3, 2), (5, 2), (7, 3), (13, 2), (9, 2)):
        led = bounds_report(q, k, 2 * k)
        assert led.lower_thm_base <= led.lower_improved + 1e-9
        assert led.lower_improved <= led.method_limit + 1e-9
        assert led.r_k2 is not None
        # r_{k,2} <= q^(2(1-1/k)) rounded down
        assert led.r_k2 <= math.floor(q ** (2 * (1 - 1 / k)) + 1e-9)


def test_rk2_sqrt_dominates_rk1():
    from paleyfq.indep import alpha_product
    from paleyfq.rings import RingSpec, make_ring

    for q, k in ((7, 3), (13, 2), (5, 2)):
        R = make_ring(RingSpec.field(q))
        r1 = alpha_product(R, k, 1)
        r2 = alpha_product(R, k, 2)
        assert math.sqrt(r2) >= r1 - 1e-9


def _ledger_digest(cases) -> str:
    """SHA-256 over the exact ledger JSON (floats unrounded) of each case,
    or the refusal's type and message."""
    blobs = []
    for q, k, n, gamma in cases:
        try:
            blobs.append(bounds_report(q, k, n, gamma=gamma).to_json())
        except Exception as exc:
            blobs.append([type(exc).__name__, str(exc)])
    return hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()


LEDGER_PINS = {
    # the README's `bounds --q 7 --k 3 --n 6 --gamma 4/9` and the
    # benchmark's two other bounds commands
    (7, 3, 6, 4 / 9): "6641033c98c416c9ee71a2393bd41f40d37854beecd6130d7a8f2e2e982b15d9",
    (5, 2, 4, 1 / 2): "bac6fab842577147de00529c8482414bed57c85fcbbc88f0d696cdfb01e08beb",
    (9, 2, 4, 1 / 2): "01c5864998b20a545cc16b363b97eef7b2f86df9813afbdf5c992b8b29d3ec23",
}
LEDGER_GRID = (
    [(q, k, n, None) for q in (2, 3, 4, 5, 7, 8, 9, 11) for k in (2, 3, 4)
     for n in (1, 2, 3, 6)]
    + [(13, 2, n, None) for n in (1, 2, 3, 6)]
    + [(6, 2, 3, None), (1, 2, 3, None), (7, 1, 3, None), (7, 2, 0, None),
       (2**61 - 1, 2, 3, None)]
)
LEDGER_GRID_PIN = "e1e5de89ec89e3621e0f4646f15da1c2db6c25e8c9f3eacddc72de4aa9c1c167"


@pytest.mark.parametrize("case", sorted(LEDGER_PINS))
def test_bounds_ledger_pinned(case):
    assert _ledger_digest([case]) == LEDGER_PINS[case]


def test_bounds_ledger_grid_pinned():
    # the greedy base is q ** (e / n), e the exponent of greedy_lower_bound
    assert _ledger_digest(LEDGER_GRID) == LEDGER_GRID_PIN
