"""Stacked LSTM multi-step predictor trained by backpropagation through time.

The network maps each input point to predictions of the next
``prediction_length`` values of the predicted channels.  Everything runs
on plain numpy in double precision: the forward pass, the analytic BPTT
gradients, and the adaptive-moment optimizer with global gradient-norm
clipping.  Training is deterministic for a fixed seed.

Output layout is channel-major: column ``c * prediction_length + (i - 1)``
holds the prediction of channel ``c`` at horizon ``i``, made at the
current step.  Predictions are in normalized (z-scored) units.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError

_STD_FLOOR = 1e-12


@dataclass
class PredictorConfig:
    """Architecture, horizon, channels, and training hyperparameters."""

    input_channels: tuple
    predicted_channels: tuple
    layer_sizes: tuple = (16,)
    prediction_length: int = 3
    learning_rate: float = 1e-2
    epochs: int = 100
    clip_norm: float = 5.0
    seed: int = 0
    tbptt_length: int = 64
    series_batch_size: int = 8
    patience: int = 8
    val_fraction: float = 0.15
    norm_mean: dict = None
    norm_std: dict = None

    def __post_init__(self):
        self.input_channels = tuple(self.input_channels)
        self.predicted_channels = tuple(self.predicted_channels)
        self.layer_sizes = tuple(int(h) for h in self.layer_sizes)
        if not self.layer_sizes or any(h < 1 for h in self.layer_sizes):
            raise ValueError("layer_sizes must be non-empty positive integers")
        if self.prediction_length < 1:
            raise ValueError("prediction_length must be >= 1")
        if not self.predicted_channels:
            raise ValueError("need at least one predicted channel")
        if not self.input_channels:
            raise ValueError("need at least one input channel")
        for name in ("epochs", "tbptt_length", "series_batch_size", "patience"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not 0 <= self.val_fraction < 1:
            raise ValueError("val_fraction must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not self.clip_norm >= 0:
            raise ValueError("clip_norm must be >= 0 (0 turns clipping off)")

    @property
    def output_dim(self):
        return self.prediction_length * len(self.predicted_channels)

    def normalize(self, series, channels):
        """Z-score the named channels of a series using the stored stats."""
        if self.norm_mean is None or self.norm_std is None:
            raise ValueError("normalization statistics not set; train first")
        cols = []
        for name in channels:
            mu = self.norm_mean[name]
            sd = max(self.norm_std[name], _STD_FLOOR)
            cols.append((series.channel(name) - mu) / sd)
        return np.column_stack(cols)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LstmLayer:
    """Gate weights, stacked input/forget/cell/output along the first axis."""

    w_x: np.ndarray  # (4H, D_in)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray    # (4H,)

    @property
    def hidden_size(self):
        return self.w_h.shape[1]


@dataclass
class LstmNetwork:
    layers: list
    w_out: np.ndarray  # (K, H_last)
    b_out: np.ndarray  # (K,)

    def parameters(self):
        """Flat list of parameter arrays, layers first, output map last."""
        arrays = []
        for layer in self.layers:
            arrays.extend([layer.w_x, layer.w_h, layer.b])
        arrays.extend([self.w_out, self.b_out])
        return arrays

    def copy(self):
        return LstmNetwork(
            [LstmLayer(l.w_x.copy(), l.w_h.copy(), l.b.copy()) for l in self.layers],
            self.w_out.copy(),
            self.b_out.copy(),
        )


def init_network(config, rng=None):
    """Seeded uniform init scaled by fan-in; forget-gate bias starts at 1."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    layers = []
    d_in = len(config.input_channels)
    for h in config.layer_sizes:
        sx = 1.0 / math.sqrt(d_in)
        sh = 1.0 / math.sqrt(h)
        w_x = rng.uniform(-sx, sx, size=(4 * h, d_in))
        w_h = rng.uniform(-sh, sh, size=(4 * h, h))
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0
        layers.append(LstmLayer(w_x, w_h, b))
        d_in = h
    k = config.output_dim
    so = 1.0 / math.sqrt(d_in)
    w_out = rng.uniform(-so, so, size=(k, d_in))
    b_out = np.zeros(k)
    return LstmNetwork(layers, w_out, b_out)


# ---------------------------------------------------------------------------
# forward / backward over one chunk

def _zero_state(net, b):
    """Zero (h, c) states for a batch of ``b``; both share one list of
    per-layer arrays, which nothing writes into."""
    zeros = [np.zeros((b, l.hidden_size)) for l in net.layers]
    return zeros, zeros


def _forward(net, x, h0, c0):
    """Run the stack over a chunk.  x: (B, T, D_in).

    Returns (outputs (B, T, K), caches, h_final, c_final) where the final
    states are lists per layer for carrying across chunks.  A layer's cache
    is (inputs, gates (B, T, 4H) as i|f|g|o, cells, tanh_c, hidden, h0, c0).
    """
    b, t_len, _ = x.shape
    inputs = x
    caches = []
    h_finals, c_finals = [], []
    for li, layer in enumerate(net.layers):
        h_size = layer.hidden_size
        h = h0[li]
        c = c0[li]
        gates = np.empty((b, t_len, 4 * h_size))
        cells = np.empty((b, t_len, h_size))
        tanh_c = np.empty((b, t_len, h_size))
        hidden = np.empty((b, t_len, h_size))
        for t in range(t_len):
            z = inputs[:, t] @ layer.w_x.T + h @ layer.w_h.T + layer.b
            # one elementwise sigmoid over i|f|g|o, then g gets its tanh
            act = _sigmoid(z)
            act[:, 2 * h_size:3 * h_size] = np.tanh(z[:, 2 * h_size:3 * h_size])
            i, f = act[:, :h_size], act[:, h_size:2 * h_size]
            g, o = act[:, 2 * h_size:3 * h_size], act[:, 3 * h_size:]
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[:, t] = act
            cells[:, t] = c
            tanh_c[:, t] = tc
            hidden[:, t] = h
        caches.append((inputs, gates, cells, tanh_c, hidden, h0[li], c0[li]))
        h_finals.append(h)
        c_finals.append(c)
        inputs = hidden
    outputs = inputs @ net.w_out.T + net.b_out
    return outputs, caches, h_finals, c_finals


def _backward(net, caches, d_out):
    """Analytic gradients for one chunk given d(loss)/d(outputs)."""
    hidden_last = caches[-1][4]
    d_w_out = np.einsum("btk,bth->kh", d_out, hidden_last)
    d_b_out = d_out.sum(axis=(0, 1))
    d_hidden = d_out @ net.w_out

    layer_grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        inputs, gates, cells, tanh_c, hidden, h0, c0 = caches[li]
        b, t_len, h_size = hidden.shape

        d_w_x = np.zeros_like(layer.w_x)
        d_w_h = np.zeros_like(layer.w_h)
        d_b = np.zeros_like(layer.b)
        d_inputs = np.empty_like(inputs)
        dh_carry = np.zeros((b, h_size))
        dc_carry = np.zeros((b, h_size))
        for t in range(t_len - 1, -1, -1):
            dh = d_hidden[:, t] + dh_carry
            gt = gates[:, t]
            i, f = gt[:, :h_size], gt[:, h_size:2 * h_size]
            g, o = gt[:, 2 * h_size:3 * h_size], gt[:, 3 * h_size:]
            tc = tanh_c[:, t]
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            c_prev = cells[:, t - 1] if t > 0 else c0
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_carry = dc * f
            dz = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f),
                 dg * (1.0 - g * g), do * o * (1.0 - o)],
                axis=1,
            )
            x_t = inputs[:, t]
            h_prev = hidden[:, t - 1] if t > 0 else h0
            d_w_x += dz.T @ x_t
            d_w_h += dz.T @ h_prev
            d_b += dz.sum(axis=0)
            d_inputs[:, t] = dz @ layer.w_x
            dh_carry = dz @ layer.w_h
        layer_grads[li] = (d_w_x, d_w_h, d_b)
        d_hidden = d_inputs

    grads = []
    for g3 in layer_grads:
        grads.extend(g3)
    grads.extend([d_w_out, d_b_out])
    return grads


def _chunk(net, x, targets, mask, h, c):
    """One chunk step: (sse, mask count, gradients of sse/count, h, c).

    An all-zero mask gives zero gradients and hands the states back as is.
    """
    count = float(mask.sum())
    if count == 0:
        return 0.0, 0.0, [np.zeros_like(p) for p in net.parameters()], h, c
    outputs, caches, h, c = _forward(net, x, h, c)
    resid = (outputs - targets) * mask
    sse = float(np.sum(resid * resid))
    d_out = 2.0 * resid * mask / count
    return sse, count, _backward(net, caches, d_out), h, c


def loss_and_gradients(net, x, targets, mask, h0=None, c0=None):
    """Masked mean squared error over one chunk plus analytic gradients.

    ``mask`` is a float array broadcastable to ``targets``; entries with
    mask 0 contribute nothing.  Returned gradients are ordered like
    :meth:`LstmNetwork.parameters`.  Training runs the same chunk step.
    """
    zeros, _ = _zero_state(net, x.shape[0])
    sse, count, grads, _, _ = _chunk(
        net, x, targets, mask,
        zeros if h0 is None else h0, zeros if c0 is None else c0,
    )
    return (sse / count if count else 0.0), grads


# ---------------------------------------------------------------------------
# batching helpers

def make_targets(x_pred, prediction_length):
    """Multi-step targets and validity mask from a (T, d) predicted matrix.

    target[t, c*l + i-1] = x_pred[t+i, c] when it exists, else 0 with a
    zero mask entry.
    """
    t_len, d = x_pred.shape
    l = prediction_length
    targets = np.zeros((t_len, l * d))
    mask = np.zeros((t_len, l * d))
    for c in range(d):
        for i in range(1, l + 1):
            col = c * l + (i - 1)
            targets[: t_len - i, col] = x_pred[i:, c]
            mask[: t_len - i, col] = 1.0
    return targets, mask


def _make_batch(series_list, config):
    """Pad series to a common length; returns (x, targets, mask)."""
    xs = [config.normalize(s, config.input_channels) for s in series_list]
    ps = [config.normalize(s, config.predicted_channels) for s in series_list]
    t_max = max(x.shape[0] for x in xs)
    b = len(xs)
    d_in = xs[0].shape[1]
    k = config.output_dim
    x = np.zeros((b, t_max, d_in))
    targets = np.zeros((b, t_max, k))
    mask = np.zeros((b, t_max, k))
    for j, (xi, pi) in enumerate(zip(xs, ps)):
        t_len = xi.shape[0]
        x[j, :t_len] = xi
        tg, mk = make_targets(pi, config.prediction_length)
        targets[j, :t_len] = tg
        mask[j, :t_len] = mk
    return x, targets, mask


# ---------------------------------------------------------------------------
# optimizer

class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def clip_gradients(grads, max_norm):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if max_norm and total > max_norm:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads, total


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainingLog:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def compute_norm_stats(series_list, channels):
    """Per-channel mean/std pooled over all samples of all series."""
    mean, std = {}, {}
    for name in channels:
        pooled = np.concatenate([s.channel(name) for s in series_list])
        mean[name] = float(pooled.mean())
        std[name] = float(max(pooled.std(), _STD_FLOOR))
    return mean, std


def _epoch_loss(net, config, x, targets, mask):
    """Forward-only masked MSE over full sequences.

    Residuals are summed per tbptt chunk, which keeps the bits of a
    chunked pass with carried state.
    """
    out, _, _, _ = _forward(net, x, *_zero_state(net, x.shape[0]))
    sse = 0.0
    for t0 in range(0, x.shape[1], config.tbptt_length):
        t1 = t0 + config.tbptt_length
        resid = (out[:, t0:t1] - targets[:, t0:t1]) * mask[:, t0:t1]
        sse += float(np.sum(resid * resid))
    count = float(mask.sum())
    return sse / count if count else 0.0


def train(series_list, config, val_series=None):
    """Train a predictor on normal series; returns (network, training log).

    Accepts a plain list of series or a Dataset.  Normalization statistics
    are computed from the training series and stored on the config (in
    place).  Early stopping monitors the masked MSE on ``val_series`` when
    given, otherwise on a held-out fraction of the training series (seeded
    shuffle); the weights from the best epoch are returned.

    Raises :class:`TrainingDivergedError` if the loss becomes non-finite.
    """
    series_list = list(getattr(series_list, "series", series_list))
    if not series_list:
        raise ValueError("no training series")
    horizon = config.prediction_length
    for s in series_list:
        if len(s) <= horizon + 1:
            raise ValueError("every training series must be longer than horizon+1")
        if s.labels is not None and s.labels.any():
            raise ValueError("training series must be all-normal")

    stat_channels = set(config.input_channels) | set(config.predicted_channels)
    config.norm_mean, config.norm_std = compute_norm_stats(
        series_list, sorted(stat_channels)
    )

    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 11]))
    if val_series is None and len(series_list) >= 3 and config.val_fraction > 0:
        order = rng.permutation(len(series_list))
        n_val = max(1, int(round(config.val_fraction * len(series_list))))
        val_idx = set(order[len(series_list) - n_val:].tolist())
        val_series = [series_list[i] for i in sorted(val_idx)]
        series_list = [
            series_list[i] for i in range(len(series_list)) if i not in val_idx
        ]

    x, targets, mask = _make_batch(series_list, config)
    if val_series:
        vx, vt, vm = _make_batch(val_series, config)
    else:
        vx = None

    net = init_network(config, np.random.default_rng(
        np.random.SeedSequence([int(config.seed), 13])))
    params = net.parameters()
    adam = _Adam(params, config.learning_rate)
    log = TrainingLog()
    best_val = math.inf
    best_net = net.copy()
    since_best = 0
    n_series, t_max, _ = x.shape
    batch = config.series_batch_size

    for epoch in range(config.epochs):
        sse = 0.0
        order = rng.permutation(n_series)
        for b0 in range(0, n_series, batch):
            rows = order[b0:b0 + batch]
            bx, bt, bm = x[rows], targets[rows], mask[rows]
            h, c = _zero_state(net, len(rows))
            for t0 in range(0, t_max, config.tbptt_length):
                t1 = t0 + config.tbptt_length
                chunk_sse, count, grads, h, c = _chunk(
                    net, bx[:, t0:t1], bt[:, t0:t1], bm[:, t0:t1], h, c
                )
                if count == 0:
                    continue
                sse += chunk_sse
                grads, _ = clip_gradients(grads, config.clip_norm)
                adam.step(params, grads)
        train_loss = sse / float(mask.sum())
        if not math.isfinite(train_loss):
            raise TrainingDivergedError(epoch)
        val_loss = (
            _epoch_loss(net, config, vx, vt, vm) if vx is not None else train_loss
        )
        log.train_losses.append(train_loss)
        log.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_net = net.copy()
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                log.stopped_early = True
                break
    return best_net, log


def predict(net, config, series):
    """Multi-step predictions for every point of a series.

    Returns a (len(series), output_dim) array in normalized units; row t
    holds the predictions made at t for the next ``prediction_length``
    steps of each predicted channel, channel-major.
    """
    missing = [c for c in config.input_channels if c not in series.channel_names]
    if missing:
        raise ValueError(f"series lacks input channels {missing}")
    if len(series) < 2:
        raise ValueError("series too short to predict from")
    x = config.normalize(series, config.input_channels)[np.newaxis]
    out, _, _, _ = _forward(net, x, *_zero_state(net, 1))
    return out[0]


# ---------------------------------------------------------------------------
# serialization

def network_to_dict(net, config):
    return {
        "version": 1,
        "kind": "lstm-network",
        "config": {
            "input_channels": list(config.input_channels),
            "predicted_channels": list(config.predicted_channels),
            "layer_sizes": list(config.layer_sizes),
            "prediction_length": config.prediction_length,
            "learning_rate": config.learning_rate,
            "epochs": config.epochs,
            "clip_norm": config.clip_norm,
            "seed": config.seed,
            "tbptt_length": config.tbptt_length,
            "series_batch_size": config.series_batch_size,
            "patience": config.patience,
            "val_fraction": config.val_fraction,
            "norm_mean": config.norm_mean,
            "norm_std": config.norm_std,
        },
        "layers": [
            {"w_x": l.w_x.tolist(), "w_h": l.w_h.tolist(), "b": l.b.tolist()}
            for l in net.layers
        ],
        "w_out": net.w_out.tolist(),
        "b_out": net.b_out.tolist(),
    }


def network_from_dict(doc):
    if doc.get("kind") != "lstm-network":
        raise ValueError("not an LSTM network document")
    config = PredictorConfig(**doc["config"])
    layers = [
        LstmLayer(
            np.asarray(l["w_x"], dtype=float),
            np.asarray(l["w_h"], dtype=float),
            np.asarray(l["b"], dtype=float),
        )
        for l in doc["layers"]
    ]
    net = LstmNetwork(
        layers, np.asarray(doc["w_out"], dtype=float),
        np.asarray(doc["b_out"], dtype=float)
    )
    dims_ok = all(
        l.w_x.shape[0] == 4 * l.hidden_size and l.b.shape[0] == 4 * l.hidden_size
        for l in layers
    )
    if not dims_ok or net.w_out.shape[0] != config.output_dim:
        raise ValueError("inconsistent dimensions in network document")
    stats = [v for d in (config.norm_mean, config.norm_std) if d for v in d.values()]
    numbers = np.concatenate([p.ravel() for p in net.parameters()] + [stats])
    if not np.isfinite(numbers).all():
        raise ValueError("network document contains non-finite numbers")
    return net, config
