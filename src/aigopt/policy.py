"""Trainable recipe policy: graph-convolutional AIG encoder, recipe
embedding branch, and a fused head producing action probabilities.

Everything is plain numpy with hand-written backpropagation; gradients are
validated against central finite differences in the test suite. The AIG
branch also exposes its pooled embedding, which the out-of-distribution
gate consumes.
"""

from __future__ import annotations

import hashlib
import json
import struct
import weakref
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .aig import Aig, node_features
from .mcts import MctsConfig, RecipeEvaluator, generate_recipe
from .transforms import DEFAULT_RECIPE_LEN, N_ACTIONS, Action

LOG_FLOOR = 1e-12


class ModelFormatError(ValueError):
    """Model file is not readable: bad magic, version, or checksum."""


@dataclass(frozen=True)
class PolicyConfig:
    gcn_layers: int = 3
    d_in: int = 6
    d_hidden: int = 32
    d_emb: int = 16
    d_head: int = 32
    n_actions: int = N_ACTIONS
    recipe_len: int = DEFAULT_RECIPE_LEN
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    leaky_slope: float = 0.01
    final_layer_scale: float = 0.01
    seed: int = 0


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def loss(pi_theta: np.ndarray, pi_mcts: np.ndarray) -> float:
    """Cross entropy between the search policy and the learned policy,
    with the learned probabilities floored to keep the log finite."""
    p = np.maximum(np.asarray(pi_theta, dtype=np.float64), LOG_FLOOR)
    t = np.asarray(pi_mcts, dtype=np.float64)
    return float(-(t * np.log(p)).sum())


def normalized_adjacency(aig: Aig) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency of the undirected fanin graph
    with self-loops."""
    n = aig.n_nodes
    rows = list(range(n))
    cols = list(range(n))
    base = aig.first_and()
    for k, (f0, f1) in enumerate(aig.ands):
        u = base + k
        for f in (f0, f1):
            rows.extend((u, f >> 1))
            cols.extend((f >> 1, u))
    data = np.ones(len(rows), dtype=np.float64)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adj.sum_duplicates()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ adj @ d).tocsr()


# Adjacency and node features per circuit; an entry dies with its circuit.
_GRAPHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _graph(aig: Aig) -> tuple[sp.csr_matrix, np.ndarray]:
    hit = _GRAPHS.get(aig)
    if hit is None:
        hit = (normalized_adjacency(aig), node_features(aig))
        _GRAPHS[aig] = hit
    return hit


class PolicyNetwork:
    """pi_theta(s, a) over the seven passes, for a state (G_0, prefix)."""

    def __init__(self, config: PolicyConfig | None = None):
        self.config = config or PolicyConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        d_prev = cfg.d_in
        for k in range(cfg.gcn_layers):
            self.params[f"gcn{k}.W"] = self._he(rng, d_prev, cfg.d_hidden)
            self.params[f"gcn{k}.b"] = np.zeros(cfg.d_hidden)
            self.params[f"gcn{k}.gamma"] = np.ones(cfg.d_hidden)
            self.params[f"gcn{k}.beta"] = np.zeros(cfg.d_hidden)
            self.buffers[f"gcn{k}.running_mean"] = np.zeros(cfg.d_hidden)
            self.buffers[f"gcn{k}.running_var"] = np.ones(cfg.d_hidden)
            d_prev = cfg.d_hidden
        self.params["act_emb"] = rng.normal(
            0.0, np.sqrt(2.0 / cfg.d_emb), size=(cfg.n_actions, cfg.d_emb))
        self.params["pos_emb"] = rng.normal(
            0.0, np.sqrt(2.0 / cfg.d_emb), size=(cfg.recipe_len, cfg.d_emb))
        d_cat = 2 * cfg.d_hidden + cfg.d_emb
        self.params["fc0.W"] = self._he(rng, d_cat, cfg.d_head)
        self.params["fc0.b"] = np.zeros(cfg.d_head)
        self.params["fc1.W"] = self._he(rng, cfg.d_head, cfg.d_head)
        self.params["fc1.b"] = np.zeros(cfg.d_head)
        # Final layer scaled down so the fresh policy is near-uniform.
        self.params["fc2.W"] = self._he(rng, cfg.d_head, cfg.n_actions) \
            * cfg.final_layer_scale
        self.params["fc2.b"] = np.zeros(cfg.n_actions)
        # (circuit, pooled embedding) of the last priors() input; an
        # instance slot rather than a weak mapping so the network pickles.
        self._last_haig: tuple[Aig, np.ndarray] | None = None

    @staticmethod
    def _he(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

    # -- forward -------------------------------------------------------------

    def _gcn_forward(self, aig: Aig, training: bool, update_stats: bool):
        cfg = self.config
        adj, feats = _graph(aig)
        h = feats
        cache = {"adj": adj, "layers": []}
        for k in range(cfg.gcn_layers):
            m = adj @ h
            z = m @ self.params[f"gcn{k}.W"] + self.params[f"gcn{k}.b"]
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                if update_stats:
                    mom = cfg.bn_momentum
                    rm = self.buffers[f"gcn{k}.running_mean"]
                    rv = self.buffers[f"gcn{k}.running_var"]
                    rm *= 1.0 - mom
                    rm += mom * mu
                    rv *= 1.0 - mom
                    rv += mom * var
            else:
                mu = self.buffers[f"gcn{k}.running_mean"]
                var = self.buffers[f"gcn{k}.running_var"]
            inv_std = 1.0 / np.sqrt(var + cfg.bn_eps)
            zhat = (z - mu) * inv_std
            bn_out = self.params[f"gcn{k}.gamma"] * zhat + self.params[f"gcn{k}.beta"]
            h_next = _leaky(bn_out, cfg.leaky_slope)
            cache["layers"].append(
                {"h_in": h, "m": m, "zhat": zhat, "inv_std": inv_std,
                 "bn_out": bn_out, "training": training})
            h = h_next
        h_mean = h.mean(axis=0)
        h_max_idx = h.argmax(axis=0)
        h_max = h[h_max_idx, np.arange(h.shape[1])]
        cache["h_final"] = h
        cache["h_max_idx"] = h_max_idx
        h_aig = np.concatenate([h_mean, h_max])
        return h_aig, cache

    def encode_aig(self, aig: Aig, training: bool = False) -> np.ndarray:
        """Pooled graph embedding (mean-pool ++ max-pool), length 2*d_hidden."""
        h_aig, _ = self._gcn_forward(aig, training, update_stats=False)
        return h_aig

    def encode_recipe(self, prefix) -> np.ndarray:
        """Sum of position-modulated action embeddings: each action's
        embedding is scaled elementwise by (1 + its position embedding), so
        reorderings change the result (a plain action+position sum would
        not: the position terms cancel). Empty prefix gives the zero
        vector; the output length is fixed regardless of prefix length."""
        h = np.zeros(self.config.d_emb)
        for i, action in enumerate(prefix):
            h = h + self.params["act_emb"][int(action)] \
                * (1.0 + self.params["pos_emb"][i])
        return h

    def _head(self, h_aig: np.ndarray, prefix):
        """Fused head over (AIG embedding ++ recipe embedding): two leaky
        layers and a softmax. Returns the probabilities and the activations
        the backward pass needs."""
        cfg = self.config
        a0 = np.concatenate([h_aig, self.encode_recipe(prefix)])
        z1 = a0 @ self.params["fc0.W"] + self.params["fc0.b"]
        a1 = _leaky(z1, cfg.leaky_slope)
        z2 = a1 @ self.params["fc1.W"] + self.params["fc1.b"]
        a2 = _leaky(z2, cfg.leaky_slope)
        pi = _softmax(a2 @ self.params["fc2.W"] + self.params["fc2.b"])
        return pi, {"a0": a0, "z1": z1, "a1": a1, "z2": z2, "a2": a2}

    def _forward_full(self, aig: Aig, prefix, training: bool,
                      update_stats: bool = False):
        h_aig, gcn_cache = self._gcn_forward(aig, training, update_stats)
        pi, cache = self._head(h_aig, prefix)
        cache["gcn"] = gcn_cache
        cache["prefix"] = tuple(int(a) for a in prefix)
        return pi, cache

    def priors(self, aig: Aig, prefix) -> np.ndarray:
        """Inference-mode action probabilities, always a valid distribution.
        The AIG branch of the last circuit is kept until the parameters
        change (the AIG input is fixed within one search)."""
        if self._last_haig is None or self._last_haig[0] is not aig:
            h_aig, _ = self._gcn_forward(aig, training=False, update_stats=False)
            self._last_haig = (aig, h_aig)
        pi, _ = self._head(self._last_haig[1], prefix)
        return pi

    # -- backward ------------------------------------------------------------

    def _backward(self, cache, dlogits: np.ndarray,
                  grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        a2, z2, a1, z1, a0 = (cache["a2"], cache["z2"], cache["a1"],
                              cache["z1"], cache["a0"])
        grads["fc2.W"] += np.outer(a2, dlogits)
        grads["fc2.b"] += dlogits
        da2 = self.params["fc2.W"] @ dlogits
        dz2 = da2 * _leaky_grad(z2, cfg.leaky_slope)
        grads["fc1.W"] += np.outer(a1, dz2)
        grads["fc1.b"] += dz2
        da1 = self.params["fc1.W"] @ dz2
        dz1 = da1 * _leaky_grad(z1, cfg.leaky_slope)
        grads["fc0.W"] += np.outer(a0, dz1)
        grads["fc0.b"] += dz1
        da0 = self.params["fc0.W"] @ dz1
        d_haig = da0[:2 * cfg.d_hidden]
        d_hr = da0[2 * cfg.d_hidden:]
        for i, action in enumerate(cache["prefix"]):
            grads["act_emb"][action] += d_hr * (1.0 + self.params["pos_emb"][i])
            grads["pos_emb"][i] += d_hr * self.params["act_emb"][action]
        gcn = cache["gcn"]
        h = gcn["h_final"]
        n = h.shape[0]
        dh = np.tile(d_haig[:cfg.d_hidden] / n, (n, 1))
        dh[gcn["h_max_idx"], np.arange(cfg.d_hidden)] += d_haig[cfg.d_hidden:]
        adj = gcn["adj"]
        for k in reversed(range(cfg.gcn_layers)):
            layer = gcn["layers"][k]
            dbn_out = dh * _leaky_grad(layer["bn_out"], cfg.leaky_slope)
            gamma = self.params[f"gcn{k}.gamma"]
            zhat = layer["zhat"]
            grads[f"gcn{k}.gamma"] += (dbn_out * zhat).sum(axis=0)
            grads[f"gcn{k}.beta"] += dbn_out.sum(axis=0)
            dzhat = dbn_out * gamma
            if layer["training"]:
                m_rows = zhat.shape[0]
                dz = (layer["inv_std"] / m_rows) * (
                    m_rows * dzhat
                    - dzhat.sum(axis=0)
                    - zhat * (dzhat * zhat).sum(axis=0))
            else:
                dz = dzhat * layer["inv_std"]
            grads[f"gcn{k}.W"] += layer["m"].T @ dz
            grads[f"gcn{k}.b"] += dz.sum(axis=0)
            dm = dz @ self.params[f"gcn{k}.W"].T
            dh = adj @ dm  # adjacency is symmetric
        # gradient w.r.t. input features is discarded

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(p) for name, p in self.params.items()}

    def loss_and_grads(self, batch, aigs_by_id: dict[str, Aig],
                       training: bool = True,
                       update_stats: bool = False) -> tuple[float, dict]:
        """Mean cross-entropy and mean gradients over (circuit_id, prefix,
        pi_mcts) experience tuples."""
        grads = self.zero_grads()
        total = 0.0
        for exp in batch:
            aig = aigs_by_id[exp.circuit_id]
            pi, cache = self._forward_full(aig, exp.prefix, training,
                                           update_stats)
            target = np.asarray(exp.pi, dtype=np.float64)
            total += loss(pi, target)
            self._backward(cache, pi - target, grads)
        scale = 1.0 / max(len(batch), 1)
        for name in grads:
            grads[name] *= scale
        return total * scale, grads

    def bump_version(self) -> None:
        """Drops the kept AIG embedding; call after every parameter update."""
        self._last_haig = None


# ---------------------------------------------------------------------------
# Replay buffer and training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experience:
    circuit_id: str
    prefix: tuple[Action, ...]
    pi: tuple[float, ...]
    epoch_added: int


class ReplayBuffer:
    """Bounded FIFO store of search experiences (oldest evicted first)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Experience] = []

    def add(self, exp: Experience) -> None:
        self._items.append(exp)
        if len(self._items) > self.capacity:
            self._items.pop(0)

    def sample(self, count: int, rng: np.random.Generator) -> list[Experience]:
        if len(self._items) <= count:
            return list(self._items)
        idx = rng.choice(len(self._items), size=count, replace=False)
        return [self._items[i] for i in sorted(idx)]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.01,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            self.params[name] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


@dataclass
class TrainingConfig:
    epochs: int = 50
    learning_rate: float = 0.01
    k_iterations: int = 512
    recipe_len: int = DEFAULT_RECIPE_LEN
    c_uct: float = float(np.sqrt(2.0))
    alpha: float = 1.0
    seed: int = 0


@dataclass
class TrainResult:
    losses: list[float]
    buffer: ReplayBuffer = field(repr=False)


def train(net: PolicyNetwork, circuits: list[Aig],
          cfg: TrainingConfig | None = None) -> TrainResult:
    """Policy pre-training: each epoch runs guided level-by-level search on
    every training circuit, stores the per-level root experience tuples in
    the replay buffer, then takes one optimizer step on a uniformly sampled
    mini-batch."""
    cfg = cfg or TrainingConfig()
    if not circuits:
        raise ValueError("training requires at least one circuit")
    names = [c.name for c in circuits]
    if len(set(names)) != len(names):
        raise ValueError("training circuits must have unique names")
    aigs_by_id = {c.name: c for c in circuits}
    n_tr = len(circuits)
    buffer = ReplayBuffer(2 * cfg.recipe_len * n_tr)
    adam = Adam(net.params, lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    evaluators = {c.name: RecipeEvaluator(c, recipe_len=cfg.recipe_len)
                  for c in circuits}
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        for ci, aig in enumerate(circuits):
            search_cfg = MctsConfig(
                c_uct=cfg.c_uct, iterations=cfg.k_iterations, alpha=cfg.alpha,
                seed=cfg.seed * 1_000_003 + epoch * 1009 + ci,
                recipe_len=cfg.recipe_len)

            def collect(prefix, pi, _node, _name=aig.name):
                buffer.add(Experience(_name, tuple(prefix), tuple(pi), epoch))

            generate_recipe(evaluators[aig.name], search_cfg, policy=net,
                            collect=collect)
        batch = buffer.sample(cfg.recipe_len * n_tr, rng)
        value, grads = net.loss_and_grads(batch, aigs_by_id, training=True,
                                          update_stats=True)
        adam.step(grads)
        net.bump_version()
        losses.append(value)
    return TrainResult(losses=losses, buffer=buffer)


# ---------------------------------------------------------------------------
# Serialization: magic, version, hyperparams, float64 blobs, checksum
# ---------------------------------------------------------------------------

_MAGIC = b"AIGPOLCY"
_FORMAT_VERSION = 1


def save(net: PolicyNetwork, path) -> None:
    header = {
        "config": asdict(net.config),
        "params": [[name, list(net.params[name].shape)]
                   for name in sorted(net.params)],
        "buffers": [[name, list(net.buffers[name].shape)]
                    for name in sorted(net.buffers)],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _FORMAT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for name in sorted(net.params):
        blob += net.params[name].astype("<f8").tobytes()
    for name in sorted(net.buffers):
        blob += net.buffers[name].astype("<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load(path) -> PolicyNetwork:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + 8 + 32:
        raise ModelFormatError("model file truncated")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ModelFormatError("model file checksum mismatch")
    if body[:len(_MAGIC)] != _MAGIC:
        raise ModelFormatError("bad magic; not a policy model file")
    offset = len(_MAGIC)
    version, = struct.unpack_from("<I", body, offset)
    offset += 4
    if version != _FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version} "
            f"(expected {_FORMAT_VERSION})")
    header_len, = struct.unpack_from("<I", body, offset)
    offset += 4
    header = json.loads(body[offset:offset + header_len].decode("utf-8"))
    offset += header_len
    try:
        net = PolicyNetwork(PolicyConfig(**header["config"]))
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad model config in header: {exc}") from exc
    for name, shape in header["params"]:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(body, dtype="<f8", count=size, offset=offset)
        offset += size * 8
        net.params[name] = arr.reshape(shape).copy()
    for name, shape in header["buffers"]:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(body, dtype="<f8", count=size, offset=offset)
        offset += size * 8
        net.buffers[name] = arr.reshape(shape).copy()
    if offset != len(body):
        raise ModelFormatError("model file has trailing data")
    return net
