"""Categorical policy over discretized actions, trained with a clipped
surrogate objective.

Everything is plain numpy with hand-written backprop: two small MLPs
(policy logits and state value), Adam, reward-to-go returns with episode
boundaries, advantage normalization, and the usual ratio clip. The final
layer of the policy net starts at zero so the untrained policy is exactly
uniform over the action bins.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError

log = logging.getLogger("casca.policy")


@dataclass(frozen=True)
class PolicyConfig:
    bins: int | None = None       # None: one bin per integer in the range
    hidden: tuple = (32, 32)
    lr: float = 3e-3
    clip: float = 0.2
    discount: float = 0.9
    epochs: int = 4
    batch_size: int = 64
    entropy_coef: float = 0.01

    def validate(self) -> "PolicyConfig":
        if self.bins is not None and self.bins < 2:
            raise ValidationError(f"bins must be at least 2, got {self.bins}")
        if not 0 < self.discount <= 1:
            raise ValidationError(f"discount must be in (0,1], got {self.discount}")
        if self.clip <= 0 or self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("lr, clip, epochs and batch_size must be positive")
        return self


def action_bins(p_min: float, p_max: float, bins: int, integer: bool) -> np.ndarray:
    """Equally spaced action values across [p_min, p_max], endpoints included."""
    if bins < 2:
        raise ValidationError(f"bins must be at least 2, got {bins}")
    values = np.linspace(p_min, p_max, bins)
    if integer:
        values = np.rint(values)
    return values


class Mlp:
    """Fully connected net, tanh hidden activations, linear output."""

    def __init__(self, sizes: list[int], rng: np.random.Generator, zero_final: bool = False):
        self.sizes = list(sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        last = len(sizes) - 2
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            if zero_final and i == last:
                w = np.zeros((a, b))
            else:
                w = rng.standard_normal((a, b)) * np.sqrt(1.0 / a)
            self.weights.append(w)
            self.biases.append(np.zeros(b))

    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def forward(self, x: np.ndarray):
        acts = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.tanh(h)
                acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray) -> list[np.ndarray]:
        """Gradients in params() order given dLoss/d(output)."""
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w[i] = acts[i].T @ g
            grad_b[i] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grad_w + grad_b


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class CategoricalPolicy:
    """State -> distribution over fixed action values; plus a value head.

    State components are divided by a scale vector frozen from the first
    observed state (at least 1 per component), which keeps inputs O(1)
    without running statistics that would break replay determinism.
    """

    def __init__(self, state_dim: int, action_values: np.ndarray,
                 config: PolicyConfig, seed: int = 0):
        self.state_dim = state_dim
        self.action_values = np.asarray(action_values, dtype=float)
        if self.action_values.size < 2:
            raise ValidationError("need at least 2 action values")
        self.config = config.validate()
        self.rng = np.random.default_rng(seed)
        sizes = [state_dim, *config.hidden, self.action_values.size]
        self.policy_net = Mlp(sizes, self.rng, zero_final=True)
        self.value_net = Mlp([state_dim, *config.hidden, 1], self.rng, zero_final=True)
        self.scale: np.ndarray | None = None

    @property
    def n_bins(self) -> int:
        return self.action_values.size

    def normalize(self, state_vec) -> np.ndarray:
        vec = np.asarray(state_vec, dtype=float)
        if vec.shape != (self.state_dim,):
            raise ValidationError(
                f"state has dimension {vec.shape}, policy expects ({self.state_dim},)")
        if self.scale is None:
            self.scale = np.maximum(np.abs(vec), 1.0)
        return vec / self.scale

    def probs(self, norm_state: np.ndarray) -> np.ndarray:
        logits, _ = self.policy_net.forward(norm_state[None, :])
        return softmax(logits)[0]

    def value(self, norm_state: np.ndarray) -> float:
        out, _ = self.value_net.forward(norm_state[None, :])
        return float(out[0, 0])

    def act(self, state_vec, explore: bool = True):
        """Returns (bin index, action value, log prob, normalized state)."""
        norm = self.normalize(state_vec)
        probs = self.probs(norm)
        if explore:
            index = int(self.rng.choice(self.n_bins, p=probs))
        else:
            index = int(np.argmax(probs))
        logp = float(np.log(max(probs[index], 1e-12)))
        return index, float(self.action_values[index]), logp, norm

    def save(self, path: str) -> None:
        arrays = {}
        for prefix, net in (("p", self.policy_net), ("v", self.value_net)):
            for i, w in enumerate(net.weights):
                arrays[f"{prefix}_w{i}"] = w
            for i, b in enumerate(net.biases):
                arrays[f"{prefix}_b{i}"] = b
        arrays["scale"] = self.scale if self.scale is not None else np.zeros(0)
        arrays["action_values"] = self.action_values
        arrays["meta"] = np.frombuffer(json.dumps({
            "state_dim": self.state_dim, "hidden": list(self.config.hidden),
        }).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    def load_weights(self, path: str) -> None:
        data = np.load(path)
        for prefix, net in (("p", self.policy_net), ("v", self.value_net)):
            for i in range(len(net.weights)):
                net.weights[i][:] = data[f"{prefix}_w{i}"]
                net.biases[i][:] = data[f"{prefix}_b{i}"]
        scale = data["scale"]
        self.scale = scale if scale.size else None


@dataclass
class _Buffer:
    states: list = field(default_factory=list)
    bins: list = field(default_factory=list)
    logps: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    dones: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)

    def clear(self) -> None:
        for name in ("states", "bins", "logps", "rewards", "dones"):
            getattr(self, name).clear()


class PpoTrainer:
    """Collects (state, bin, logp, reward) rows and updates in batches."""

    def __init__(self, policy: CategoricalPolicy):
        self.policy = policy
        self.config = policy.config
        params = policy.policy_net.params()
        self._policy_opt = Adam(params, lr=self.config.lr)
        self._value_opt = Adam(policy.value_net.params(), lr=self.config.lr)
        self._buffer = _Buffer()
        self.updates = 0

    def record(self, norm_state: np.ndarray, bin_index: int, logp: float,
               reward: float, done: bool = False) -> None:
        self._buffer.states.append(np.array(norm_state, dtype=float))
        self._buffer.bins.append(bin_index)
        self._buffer.logps.append(logp)
        self._buffer.rewards.append(reward)
        self._buffer.dones.append(done)

    def mark_boundary(self) -> None:
        """Truncate the return calculation after the most recent row."""
        if self._buffer.dones:
            self._buffer.dones[-1] = True

    def maybe_update(self) -> dict | None:
        if len(self._buffer) < self.config.batch_size:
            return None
        return self.update()

    def _returns(self) -> np.ndarray:
        out = np.zeros(len(self._buffer))
        running = 0.0
        for i in range(len(self._buffer) - 1, -1, -1):
            if self._buffer.dones[i]:
                running = 0.0
            running = self._buffer.rewards[i] + self.config.discount * running
            out[i] = running
        return out

    def update(self) -> dict:
        cfg = self.config
        states = np.stack(self._buffer.states)
        bins = np.array(self._buffer.bins)
        old_logps = np.array(self._buffer.logps)
        returns = self._returns()
        n = len(states)
        onehot = np.zeros((n, self.policy.n_bins))
        onehot[np.arange(n), bins] = 1.0

        values, _ = self.policy.value_net.forward(states)
        advantages = returns - values[:, 0]
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        stats = {"samples": n, "mean_reward": float(np.mean(self._buffer.rewards))}
        for _ in range(cfg.epochs):
            logits, acts = self.policy.policy_net.forward(states)
            probs = softmax(logits)
            logp_all = np.log(np.clip(probs, 1e-12, None))
            logp = logp_all[np.arange(n), bins]
            ratio = np.exp(logp - old_logps)
            surr1 = ratio * advantages
            surr2 = np.clip(ratio, 1 - cfg.clip, 1 + cfg.clip) * advantages
            use_unclipped = surr1 <= surr2
            g_logp = np.where(use_unclipped, -advantages * ratio, 0.0)
            grad_logits = g_logp[:, None] * (onehot - probs) / n
            entropy = -np.sum(probs * logp_all, axis=1)
            grad_logits += cfg.entropy_coef * probs * (logp_all + entropy[:, None]) / n
            self._policy_opt.step(self.policy.policy_net.backward(acts, grad_logits))

            values, vacts = self.policy.value_net.forward(states)
            diff = values[:, 0] - returns
            self._value_opt.step(self.policy.value_net.backward(
                vacts, (2.0 * diff / n)[:, None]))
            stats["policy_loss"] = float(-np.minimum(surr1, surr2).mean())
            stats["value_loss"] = float((diff ** 2).mean())
            stats["entropy"] = float(entropy.mean())

        self._buffer.clear()
        self.updates += 1
        return stats
