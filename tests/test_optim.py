"""Parameter update rules: SGD, Adam, AdaBelief."""

import numpy as np
import pytest

from readmitlab.optim import OPTIMIZERS, AdaBelief, Adam, Sgd, make_optimizer


def param(*values):
    return {"w": np.array(values, dtype=np.float64)}


class TestSgd:
    def test_hand_step(self):
        p = param(1.0)
        Sgd(0.1).step(p, param(0.5))
        assert p["w"][0] == 0.95

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = param(3.0, -2.0)
        Sgd(0.5).step(p, param(0.0, 0.0))
        assert p["w"].tolist() == [3.0, -2.0]


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        lr = 0.037
        opt = Adam(lr, eps=1e-12)
        p = param(5.0, -1.0, 0.25)
        opt.step(p, param(0.8, -1.3e-4, 250.0))
        steps = np.array([5.0, -1.0, 0.25]) - p["w"]
        assert np.allclose(np.abs(steps), lr, atol=1e-6)
        assert np.sign(steps).tolist() == [1.0, -1.0, 1.0]

    def test_first_step_direction_invariant_to_gradient_scale(self):
        for scale in (1e-6, 1.0, 1e6):
            opt = Adam(0.01, eps=1e-12)
            p = param(1.0, 1.0)
            opt.step(p, {"w": np.array([0.3, -0.7]) * scale})
            steps = np.array([1.0, 1.0]) - p["w"]
            assert np.sign(steps).tolist() == [1.0, -1.0]
            assert np.allclose(np.abs(steps), 0.01, atol=1e-6)

    def test_all_zero_gradient_history_means_zero_drift(self):
        opt = Adam(0.5)
        p = param(2.0)
        for _ in range(10):
            opt.step(p, param(0.0))
        assert p["w"][0] == 2.0

    def test_slots_depend_on_gradients_not_parameters(self):
        grads = [param(0.4), param(-0.2), param(0.9)]
        opt_a, opt_b = Adam(1e-3), Adam(1e-3)
        p_a, p_b = param(0.0), param(100.0)
        for g in grads:
            opt_a.step(p_a, {"w": g["w"].copy()})
            opt_b.step(p_b, {"w": g["w"].copy()})
        m_a, v_a = opt_a._state["w"][:2]
        m_b, v_b = opt_b._state["w"][:2]
        assert np.array_equal(m_a, m_b)
        assert np.array_equal(v_a, v_b)


class TestAdaBelief:
    def test_swap_test_reproduces_adabelief_exactly(self):
        # the two methods differ only in the second-moment estimand; feeding
        # (g - m)^2 (+ eps) into Adam's accumulator must replay AdaBelief
        class SwappedAdam(Adam):
            second_moment_estimand = AdaBelief.second_moment_estimand

        rng = np.random.default_rng(0)
        belief, swapped = AdaBelief(1e-3), SwappedAdam(1e-3)
        p_belief, p_swapped = param(1.0, -2.0, 0.5), param(1.0, -2.0, 0.5)
        for _ in range(25):
            g = rng.normal(size=3)
            belief.step(p_belief, {"w": g.copy()})
            swapped.step(p_swapped, {"w": g.copy()})
            assert np.array_equal(p_belief["w"], p_swapped["w"])

    def test_differs_from_adam_on_the_same_gradients(self):
        adam, belief = Adam(1e-3), AdaBelief(1e-3)
        p_adam, p_belief = param(1.0), param(1.0)
        g = param(0.3)
        for _ in range(3):
            adam.step(p_adam, {"w": g["w"].copy()})
            belief.step(p_belief, {"w": g["w"].copy()})
        assert p_adam["w"][0] != p_belief["w"][0]

    def test_constant_gradients_drive_second_moment_to_eps_floor(self):
        # once m ~ g, (g - m)^2 ~ 0 and the accumulator is eps-dominated,
        # so AdaBelief takes much larger steps than Adam on the same stream;
        # beta2 = 0.999 means the early warm-up spikes need a few thousand
        # steps to wash out of the moving average
        adam, belief = Adam(1e-3), AdaBelief(1e-3)
        p_adam, p_belief = param(0.0), param(0.0)
        last_adam = last_belief = 0.0
        for _ in range(2000):
            before_a, before_b = p_adam["w"][0], p_belief["w"][0]
            adam.step(p_adam, param(0.3))
            belief.step(p_belief, param(0.3))
            last_adam = abs(p_adam["w"][0] - before_a)
            last_belief = abs(p_belief["w"][0] - before_b)
        assert last_belief > 10 * last_adam

    def test_zero_history_drift_is_zero(self):
        opt = AdaBelief(0.5)
        p = param(-4.0)
        for _ in range(5):
            opt.step(p, param(0.0))
        assert p["w"][0] == -4.0


class TestInPlaceStep:
    @staticmethod
    def formula_steps(estimand, grads, p, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """The adaptive-moment update written out with a temporary per operation."""
        m, v = np.zeros_like(p), np.zeros_like(p)
        for t, g in enumerate(grads, start=1):
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * estimand(g, m)
            p = p - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        return p

    @pytest.mark.parametrize("name", ["adam", "adabelief"])
    def test_bytes_equal_the_formula_after_20_steps(self, name):
        rng = np.random.default_rng(12)
        start = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=7)}
        grads = [{k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-4, 3)
                  for k, v in start.items()} for _ in range(20)]
        opt = make_optimizer(name, 3e-3)
        params = {k: v.copy() for k, v in start.items()}
        for g in grads:
            opt.step(params, g)
        eps_term = 1e-8 / (1.0 - 0.999)
        estimand = {"adam": lambda g, m: g * g,
                    "adabelief": lambda g, m: (g - m) * (g - m) + eps_term}[name]
        for key, p in start.items():
            want = self.formula_steps(estimand, [g[key] for g in grads], p, 3e-3)
            assert params[key].tobytes() == want.tobytes()


    @pytest.mark.parametrize("cls", [Adam, AdaBelief])
    def test_each_key_keeps_one_state_record(self, cls):
        rng = np.random.default_rng(13)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=7)}
        opt = cls(1e-3)
        opt.step(params, {k: rng.normal(size=v.shape) for k, v in params.items()})
        first = {key: tuple(state) for key, state in opt._state.items()}
        assert sorted(first) == ["a", "b"]
        assert all(len(state) == 4 for state in first.values())
        for _ in range(19):
            opt.step(params, {k: rng.normal(size=v.shape) for k, v in params.items()})
        for key, state in opt._state.items():
            assert all(now is then for now, then in zip(state, first[key], strict=True))


class TestFactory:
    def test_known_names(self):
        assert set(OPTIMIZERS) == {"sgd", "adam", "adabelief"}
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adam", 0.1), Adam)
        assert isinstance(make_optimizer("adabelief", 0.1), AdaBelief)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("adagrad", 0.1)

    def test_multi_tensor_step(self):
        opt = make_optimizer("adam", 1e-2)
        params = {"a": np.ones(3), "b": np.zeros((2, 2))}
        grads = {"a": np.full(3, 0.1), "b": np.full((2, 2), -0.2)}
        opt.step(params, grads)
        assert np.all(params["a"] < 1.0)
        assert np.all(params["b"] > 0.0)
