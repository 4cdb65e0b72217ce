"""Trainable recipe policy: graph-convolutional AIG encoder, recipe
embedding branch, and a fused head producing action probabilities.

Everything is plain numpy with hand-written backpropagation; gradients are
validated against central finite differences in the test suite. The AIG
branch also exposes its pooled embedding, which the out-of-distribution
gate consumes. Only this module and the gate load numpy, so pure search
never does.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

from .aig import Aig
from .mcts import MctsConfig, RecipeEvaluator, generate_recipe
from .transforms import DEFAULT_RECIPE_LEN, N_ACTIONS, Action

LOG_FLOOR = 1e-12
NODE_FEATURES = 6  # columns of a node_features row

# The encoder and head design is fixed: batch norm with this epsilon and
# running-statistics momentum, leaky ReLU with this negative slope, and a
# final layer scaled down at initialization so the fresh policy is
# near-uniform. The input width is NODE_FEATURES and the output width is
# N_ACTIONS.
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_LEAKY_SLOPE = 0.01
_FINAL_LAYER_SCALE = 0.01
# Adam's moment decay rates and its denominator epsilon.
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class ModelFormatError(ValueError):
    """Model file is not readable: bad magic, version, checksum, a header
    whose tensors differ from the network's, or a NaN or infinite value."""


class NonFiniteError(ValueError):
    """A circuit embedding or an action prior came out NaN or infinite:
    finite but huge weights overflowed in the forward pass."""


@dataclass(frozen=True)
class PolicyConfig:
    gcn_layers: int = 3
    d_hidden: int = 32
    d_emb: int = 16
    d_head: int = 32
    recipe_len: int = DEFAULT_RECIPE_LEN
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{f.name} must be an integer, got {value!r}")
            least = 0 if f.name == "seed" else 1
            if value < least:
                raise ValueError(f"{f.name} must be >= {least}")


def _shapes(cfg: PolicyConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    """The shape of every tensor of a network with this config, by array
    group and then by name in initialization order."""
    params: dict[str, tuple[int, ...]] = {}
    buffers: dict[str, tuple[int, ...]] = {}
    d_prev = NODE_FEATURES
    for k in range(cfg.gcn_layers):
        params[f"gcn{k}.W"] = (d_prev, cfg.d_hidden)
        for name in ("b", "gamma", "beta"):
            params[f"gcn{k}.{name}"] = (cfg.d_hidden,)
        for name in ("running_mean", "running_var"):
            buffers[f"gcn{k}.{name}"] = (cfg.d_hidden,)
        d_prev = cfg.d_hidden
    params["act_emb"] = (N_ACTIONS, cfg.d_emb)
    params["pos_emb"] = (cfg.recipe_len, cfg.d_emb)
    d_in = 2 * cfg.d_hidden + cfg.d_emb
    for k, d_out in enumerate((cfg.d_head, cfg.d_head, N_ACTIONS)):
        params[f"fc{k}.W"] = (d_in, d_out)
        params[f"fc{k}.b"] = (d_out,)
        d_in = d_out
    return {"params": params, "buffers": buffers}


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, _LEAKY_SLOPE * x)


def _leaky_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, _LEAKY_SLOPE)


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


def node_features(aig: Aig) -> np.ndarray:
    """Per-node feature rows used by the graph encoder.

    Columns: one-hot kind (const/PI/and2), complemented-fanin count / 2,
    level / depth, fanout / max fanout. Shape [n_nodes, 6].
    """
    base = aig.first_and()
    feats = np.zeros((aig.n_nodes, NODE_FEATURES), dtype=np.float64)
    feats[0, 0] = 1.0
    feats[1:base, 1] = 1.0
    feats[base:, 2] = 1.0
    ands = np.array(aig.ands, dtype=np.int64).reshape(-1, 2)
    feats[base:, 3] = (ands & 1).sum(axis=1) / 2.0
    if aig.depth > 0:
        feats[:, 4] = np.array(aig.levels) / aig.depth
    fanouts = np.array(aig.fanout_counts)
    if fanouts.max() > 0:
        feats[:, 5] = fanouts / fanouts.max()
    return feats


def normalized_adjacency(aig: Aig) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Symmetric degree-normalized adjacency D^-1/2 A D^-1/2 of the
    undirected fanin graph with self-loops, as CSR arrays
    ``(indptr, indices, data)``: row i's entries sit at
    ``indptr[i]:indptr[i + 1]`` with their columns sorted. A node listed
    twice among one AND's fanins is one entry with count 2, and each
    entry is ``(inv[r] * count) * inv[c]`` with ``inv = 1 / sqrt(degree)``,
    the arrays and bits that SciPy's ``D @ A @ D`` gives."""
    n = aig.n_nodes
    u = np.arange(aig.first_and(), n, dtype=np.int64)
    fanins = np.array(aig.ands, dtype=np.int64).reshape(-1, 2) >> 1
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([loops, u, fanins[:, 0], u, fanins[:, 1]])
    cols = np.concatenate([loops, fanins[:, 0], u, fanins[:, 1], u])
    keys, counts = np.unique(rows * n + cols, return_counts=True)
    r, c = keys // n, keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    inv = 1.0 / np.sqrt(np.bincount(r, weights=counts, minlength=n))
    return indptr, c, (inv[r] * counts) * inv[c]


def _spmm_plan(csr) -> tuple:
    """Precomputes ``_spmm`` for one CSR matrix: the k-th entries of all
    rows that have one form one contiguous step, rows ordered longest
    first, so step k adds to a prefix of the rows."""
    indptr, indices, data = csr
    lengths = np.diff(indptr)
    perm = np.argsort(-lengths, kind="stable")
    longest_first = lengths[perm]
    counts = [int(np.count_nonzero(longest_first > k))
              for k in range(int(longest_first[0]))]
    order = np.concatenate([indptr[perm[:c]] + k
                            for k, c in enumerate(counts)])
    return indices[order], data[order, None], counts, np.argsort(perm)


def _spmm(plan, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``A @ x`` for ``plan = _spmm_plan(A)``. Each
    output row starts at zero and adds ``data[jj] * x[indices[jj]]`` over
    its entries in stored order, which is the order of SciPy's
    ``csr_matvecs``, so the bits match SciPy's."""
    cols, weights, counts, unperm = plan
    products = np.take(x, cols, axis=0)
    products *= weights  # in place: one nnz-row temporary, not two
    out = np.zeros((len(unperm), x.shape[1]))
    start = 0
    for count in counts:
        out[:count] += products[start:start + count]
        start += count
    return out[unperm]


def _graph(aig: Aig) -> tuple[tuple, np.ndarray]:
    """The encoder's input: (the adjacency's ``_spmm`` plan, node
    features)."""
    return _spmm_plan(normalized_adjacency(aig)), node_features(aig)


class PolicyNetwork:
    """pi_theta(s, a) over the seven passes, for a state (G_0, prefix)."""

    def __init__(self, config: PolicyConfig | None = None):
        self.config = config or PolicyConfig()
        rng = np.random.default_rng(self.config.seed)
        shapes = _shapes(self.config)
        self.params: dict[str, np.ndarray] = {}
        for name, shape in shapes["params"].items():
            kind = name.rpartition(".")[2]
            if kind == "W":  # He initialization
                self.params[name] = rng.normal(
                    0.0, np.sqrt(2.0 / shape[0]), size=shape)
            elif kind.endswith("_emb"):
                self.params[name] = rng.normal(
                    0.0, np.sqrt(2.0 / self.config.d_emb), size=shape)
            else:
                self.params[name] = (np.ones(shape) if kind == "gamma"
                                     else np.zeros(shape))
        self.params["fc2.W"] *= _FINAL_LAYER_SCALE
        self.buffers: dict[str, np.ndarray] = {
            name: np.ones(shape) if name.endswith("var") else np.zeros(shape)
            for name, shape in shapes["buffers"].items()}

    # -- forward -------------------------------------------------------------

    def _gcn_forward(self, graph, training: bool):
        cfg = self.config
        adj, h = graph
        cache = {"adj": adj, "layers": []}
        for k in range(cfg.gcn_layers):
            m = _spmm(adj, h)
            z = m @ self.params[f"gcn{k}.W"] + self.params[f"gcn{k}.b"]
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
            else:
                mu = self.buffers[f"gcn{k}.running_mean"]
                var = self.buffers[f"gcn{k}.running_var"]
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            zhat = (z - mu) * inv_std
            bn_out = self.params[f"gcn{k}.gamma"] * zhat + self.params[f"gcn{k}.beta"]
            h_next = _leaky(bn_out)
            cache["layers"].append({"m": m, "zhat": zhat, "inv_std": inv_std,
                                    "bn_out": bn_out, "mu": mu, "var": var})
            h = h_next
        h_mean = h.mean(axis=0)
        h_max_idx = h.argmax(axis=0)
        h_max = h[h_max_idx, np.arange(h.shape[1])]
        cache["h_final"] = h
        cache["h_max_idx"] = h_max_idx
        h_aig = np.concatenate([h_mean, h_max])
        return h_aig, cache

    @np.errstate(all="ignore")  # an overflow is refused, not warned about
    def encode_aig(self, aig: Aig) -> np.ndarray:
        """Pooled graph embedding (mean-pool ++ max-pool), length 2*d_hidden;
        batch norm uses the running statistics. An embedding that is not
        finite raises NonFiniteError."""
        h_aig, _ = self._gcn_forward(_graph(aig), training=False)
        if not np.isfinite(h_aig).all():
            raise NonFiniteError(f"the model's embedding of circuit "
                                 f"{aig.name!r} is not finite")
        return h_aig

    def encode_recipe(self, prefix) -> np.ndarray:
        """Sum of position-modulated action embeddings: each action's
        embedding is scaled elementwise by (1 + its position embedding), so
        reorderings change the result (a plain action+position sum would
        not: the position terms cancel). Empty prefix gives the zero
        vector; the output length is fixed regardless of prefix length.
        A prefix longer than the model's recipe length is a ValueError."""
        if len(prefix) > self.config.recipe_len:
            raise ValueError(
                f"recipe prefix of {len(prefix)} passes is longer than the "
                f"model's recipe length {self.config.recipe_len}")
        h = np.zeros(self.config.d_emb)
        for i, action in enumerate(prefix):
            h = h + self.params["act_emb"][int(action)] \
                * (1.0 + self.params["pos_emb"][i])
        return h

    def _head(self, h_aig: np.ndarray, prefix):
        """Fused head over (AIG embedding ++ recipe embedding): two leaky
        layers and a softmax. Returns the probabilities and the activations
        the backward pass needs."""
        a0 = np.concatenate([h_aig, self.encode_recipe(prefix)])
        z1 = a0 @ self.params["fc0.W"] + self.params["fc0.b"]
        a1 = _leaky(z1)
        z2 = a1 @ self.params["fc1.W"] + self.params["fc1.b"]
        a2 = _leaky(z2)
        pi = _softmax(a2 @ self.params["fc2.W"] + self.params["fc2.b"])
        return pi, {"a0": a0, "z1": z1, "a1": a1, "z2": z2, "a2": a2}

    def _track_batch_stats(self, gcn_cache) -> None:
        """Folds the batch statistics of one training-mode encoder pass into
        the batch-norm running statistics."""
        for k, layer in enumerate(gcn_cache["layers"]):
            rm = self.buffers[f"gcn{k}.running_mean"]
            rv = self.buffers[f"gcn{k}.running_var"]
            rm *= 1.0 - _BN_MOMENTUM
            rm += _BN_MOMENTUM * layer["mu"]
            rv *= 1.0 - _BN_MOMENTUM
            rv += _BN_MOMENTUM * layer["var"]

    @np.errstate(all="ignore")  # an overflow is refused, not warned about
    def priors(self, h_aig: np.ndarray, prefix) -> np.ndarray:
        """Inference-mode action probabilities for the circuit embedding
        ``h_aig`` (from ``encode_aig``) after ``prefix``: a valid
        distribution, or NonFiniteError when they are not finite. A search
        encodes its circuit once and passes the embedding to every call."""
        pi, _ = self._head(h_aig, prefix)
        if not np.isfinite(pi).all():
            raise NonFiniteError("the model's action priors are not finite")
        return pi

    # -- backward ------------------------------------------------------------

    def _backward(self, cache, gcn, prefix, dlogits: np.ndarray,
                  grads: dict[str, np.ndarray]) -> None:
        """Adds to ``grads`` the backpropagated ``dlogits``, from the caches
        of ``_head`` (over ``prefix``) and ``_gcn_forward``."""
        cfg = self.config
        a2, z2, a1, z1, a0 = (cache["a2"], cache["z2"], cache["a1"],
                              cache["z1"], cache["a0"])
        grads["fc2.W"] += np.outer(a2, dlogits)
        grads["fc2.b"] += dlogits
        da2 = self.params["fc2.W"] @ dlogits
        dz2 = da2 * _leaky_grad(z2)
        grads["fc1.W"] += np.outer(a1, dz2)
        grads["fc1.b"] += dz2
        da1 = self.params["fc1.W"] @ dz2
        dz1 = da1 * _leaky_grad(z1)
        grads["fc0.W"] += np.outer(a0, dz1)
        grads["fc0.b"] += dz1
        da0 = self.params["fc0.W"] @ dz1
        d_haig = da0[:2 * cfg.d_hidden]
        d_hr = da0[2 * cfg.d_hidden:]
        for i, action in enumerate(map(int, prefix)):
            grads["act_emb"][action] += d_hr * (1.0 + self.params["pos_emb"][i])
            grads["pos_emb"][i] += d_hr * self.params["act_emb"][action]
        h = gcn["h_final"]
        n = h.shape[0]
        dh = np.tile(d_haig[:cfg.d_hidden] / n, (n, 1))
        dh[gcn["h_max_idx"], np.arange(cfg.d_hidden)] += d_haig[cfg.d_hidden:]
        adj = gcn["adj"]
        for k in reversed(range(cfg.gcn_layers)):
            layer = gcn["layers"][k]
            dbn_out = dh * _leaky_grad(layer["bn_out"])
            gamma = self.params[f"gcn{k}.gamma"]
            zhat = layer["zhat"]
            grads[f"gcn{k}.gamma"] += (dbn_out * zhat).sum(axis=0)
            grads[f"gcn{k}.beta"] += dbn_out.sum(axis=0)
            dzhat = dbn_out * gamma
            m_rows = zhat.shape[0]
            dz = (layer["inv_std"] / m_rows) * (
                m_rows * dzhat
                - dzhat.sum(axis=0)
                - zhat * (dzhat * zhat).sum(axis=0))
            grads[f"gcn{k}.W"] += layer["m"].T @ dz
            grads[f"gcn{k}.b"] += dz.sum(axis=0)
            if k:  # the input features take no gradient
                dm = dz @ self.params[f"gcn{k}.W"].T
                dh = _spmm(adj, dm)  # adjacency is symmetric

    def loss_and_grads(self, batch,
                       aigs_by_id: dict[str, Aig]) -> tuple[float, dict]:
        """Mean cross-entropy and mean gradients over (circuit_id, prefix,
        pi_mcts) experience tuples, with batch norm in training mode. Each
        circuit is encoded once per call, since the parameters do not change
        within it; each experience still folds its circuit's batch
        statistics into the running statistics, in batch order."""
        encoded = {}
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        total = 0.0
        for exp in batch:
            if exp.circuit_id not in encoded:
                encoded[exp.circuit_id] = self._gcn_forward(
                    _graph(aigs_by_id[exp.circuit_id]), training=True)
            h_aig, gcn_cache = encoded[exp.circuit_id]
            self._track_batch_stats(gcn_cache)
            pi, cache = self._head(h_aig, exp.prefix)
            target = np.asarray(exp.pi, dtype=np.float64)
            total += loss(pi, target)
            self._backward(cache, gcn_cache, exp.prefix, pi - target, grads)
        scale = 1.0 / max(len(batch), 1)
        for name in grads:
            grads[name] *= scale
        return total * scale, grads


# ---------------------------------------------------------------------------
# Replay buffer and training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experience:
    circuit_id: str
    prefix: tuple[Action, ...]
    pi: tuple[float, ...]


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.01):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETAS
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            self.params[name] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + _ADAM_EPS)


@dataclass
class TrainingConfig:
    epochs: int = 50
    learning_rate: float = 0.01
    k_iterations: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@np.errstate(all="ignore")  # a diverged run is refused, not warned about
def train(net: PolicyNetwork, circuits: list[Aig],
          cfg: TrainingConfig | None = None) -> list[float]:
    """Policy pre-training: each epoch runs guided level-by-level search
    (alpha 1, recipes of the network's ``recipe_len``) on every training
    circuit, stores the per-level root experience tuples in a FIFO replay
    buffer of two epochs, then takes one optimizer step on a uniformly
    sampled mini-batch of one epoch's size, in buffer order. Each search
    encodes its circuit with the current parameters. Returns the
    mini-batch loss of each epoch; a loss, tensor, embedding or prior that
    is not finite is a ValueError naming the epoch."""
    cfg = cfg or TrainingConfig()
    if not circuits:
        raise ValueError("training requires at least one circuit")
    names = [c.name for c in circuits]
    if len(set(names)) != len(names):
        raise ValueError("training circuits must have unique names")
    aigs_by_id = {c.name: c for c in circuits}
    n_tr = len(circuits)
    recipe_len = net.config.recipe_len
    buffer: deque[Experience] = deque(maxlen=2 * recipe_len * n_tr)
    adam = Adam(net.params, lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        for ci, aig in enumerate(circuits):
            search_cfg = MctsConfig(
                iterations=cfg.k_iterations, alpha=1.0,
                seed=cfg.seed * 1_000_003 + epoch * 1009 + ci,
                recipe_len=recipe_len)
            try:
                result = generate_recipe(RecipeEvaluator(aig), search_cfg,
                                         policy=net)
            except NonFiniteError as exc:
                raise ValueError(f"training diverged at epoch {epoch}: "
                                 f"{exc}") from None
            for prefix, pi in result.levels:
                buffer.append(Experience(aig.name, prefix, tuple(pi)))
        batch = list(buffer)
        if len(batch) > recipe_len * n_tr:
            idx = rng.choice(len(batch), recipe_len * n_tr, replace=False)
            batch = [batch[i] for i in sorted(idx)]
        value, grads = net.loss_and_grads(batch, aigs_by_id)
        adam.step(grads)
        values = (value, *net.params.values(), *net.buffers.values())
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError(f"training diverged at epoch {epoch}: the loss "
                             "or a model tensor is not finite")
        losses.append(value)
    return losses


# ---------------------------------------------------------------------------
# Serialization: magic, version, hyperparams, float64 blobs, checksum
# ---------------------------------------------------------------------------

_MAGIC = b"AIGPOLCY"
_FORMAT_VERSION = 2
_GROUPS = ("params", "buffers")  # array groups, in blob order


def _listing(shapes: dict[str, tuple[int, ...]]) -> list:
    """The header entry of one array group: [name, shape] in blob order."""
    return [[name, list(shapes[name])] for name in sorted(shapes)]


def save(net: PolicyNetwork, path) -> None:
    header = {"config": asdict(net.config)}
    for key in _GROUPS:
        header[key] = _listing({name: value.shape for name, value
                                in getattr(net, key).items()})
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _FORMAT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for key in _GROUPS:
        group = getattr(net, key)
        for name in sorted(group):
            blob += group[name].astype("<f8").tobytes()
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
        config = PolicyConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad model config in header: {exc}") from exc
    for key in _GROUPS:
        if key not in header:
            raise ModelFormatError(f"model header lacks {key!r}")
    # Every layer lists tensors, so a config with more layers than the header
    # lists tensors cannot match it; rejecting it first keeps the shape
    # listing as small as the file.
    listed = header["params"]
    fits = isinstance(listed, list) and config.gcn_layers <= len(listed)
    shapes = _shapes(config) if fits else None
    for key in _GROUPS:
        if shapes is None or header[key] != _listing(shapes[key]):
            raise ModelFormatError(
                f"model header {key!r} lists tensors or shapes that differ "
                "from the network's")
    n_bytes = 8 * sum(math.prod(shape) for key in _GROUPS
                      for shape in shapes[key].values())
    if len(body) - offset != n_bytes:
        raise ModelFormatError(
            f"model file holds {len(body) - offset} bytes of tensors; "
            f"its header lists {n_bytes}")
    net = PolicyNetwork(config)
    for key in _GROUPS:
        group = getattr(net, key)
        for name, shape in _listing(shapes[key]):
            arr = np.frombuffer(body, dtype="<f8", count=math.prod(shape),
                                offset=offset)
            offset += arr.nbytes
            if not np.isfinite(arr).all():
                raise ModelFormatError(f"model tensor {name!r} is not finite")
            group[name] = arr.reshape(shape).copy()
    return net
