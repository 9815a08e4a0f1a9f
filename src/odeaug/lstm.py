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

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (InvalidJobError, TrainingDivergedError, check_count,
                     check_document, check_real)

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
        self.layer_sizes = tuple(self.layer_sizes)
        if not self.layer_sizes:
            raise ValueError("layer_sizes must be non-empty")
        for h in self.layer_sizes:
            check_count("layer_sizes", h)
        names = self.input_channels + self.predicted_channels
        if not (self.input_channels and self.predicted_channels
                and all(isinstance(c, str) for c in names)):
            raise ValueError("need input and predicted channels, named by "
                             f"strings, got {names!r}")
        for stats in (self.norm_mean, self.norm_std):
            if stats is not None and not (isinstance(stats, dict)
                                          and set(names) <= set(stats)):
                raise ValueError("norm_mean and norm_std must map every "
                                 f"channel to a number, got {stats!r}")
        for name in ("prediction_length", "epochs", "tbptt_length",
                     "series_batch_size", "patience"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0)
        check_real("val_fraction", self.val_fraction, 0, 1, high_open=True)
        check_real("learning_rate", self.learning_rate, 0, low_open=True)
        check_real("clip_norm", self.clip_norm, 0)  # 0 turns clipping off

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
    """Logistic function without overflow, branch-free.

    With ``e = exp(-|z|)`` this is ``1 / (1 + e)`` where ``z >= 0`` and
    ``e / (1 + e)`` elsewhere: the same operations on the same operands
    as evaluating ``1 / (1 + exp(-z))`` and ``exp(z) / (1 + exp(z))`` on
    the two halves separately, so the result is the same bit for bit,
    ±0.0, overflow and NaN included, without boolean gathers and scatters.
    ``-|z|`` is taken as ``z`` off the ``z >= 0`` half, so a NaN keeps its
    sign bit.
    """
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    out = np.where(pos, 1.0, e)
    out /= 1.0 + e
    return out


@dataclass
class LstmLayer:
    """Gate weights, stacked input/forget/cell/output along the first axis."""

    w_x: np.ndarray  # (4H, D_in)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray    # (4H,)

    @property
    def hidden_size(self):
        return self.w_h.shape[-1]


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


def _network(arrays):
    """The network whose :meth:`LstmNetwork.parameters` are ``arrays``."""
    layers = [LstmLayer(*arrays[i:i + 3]) for i in range(0, len(arrays) - 2, 3)]
    return LstmNetwork(layers, arrays[-2], arrays[-1])


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
#
# These run one network, or a stack of networks whose arrays carry a
# leading model axis: x is then (M, B, T, D_in) and each state (M, B, H).
# A stacked product makes the same per-slice BLAS call as the product of
# one network, so a model's numbers do not depend on what it is stacked
# with, and zero rows padded onto a batch add exact zeros.
#
# One batching rule keeps a row's bits independent of its batch: no
# forward product has one row.  numpy sends (1, n) @ (n, k) to gemv and
# a taller product to gemm, and the two differ in the last bits, while
# gemm gives a row the same bits whatever rows share the call.  So a
# batch of one series is padded with a zero row, and the output layer is
# one product over every (row, step) of a chunk, which a one-step chunk
# cannot shrink to one row.

def _zero_state(net, *batch_shape):
    """Zero (h, c) states of shape ``batch_shape + (H,)``; both share one
    list of per-layer arrays, which nothing writes into."""
    zeros = [np.zeros(batch_shape + (l.hidden_size,)) for l in net.layers]
    return zeros, zeros


def _forward(net, x, h0, c0):
    """Run the stack over a chunk.  x: (..., B, T, D_in).

    Returns (outputs (..., B, T, K), caches, h_final, c_final) where the
    final states are lists per layer for carrying across chunks.  A layer's
    cache is (inputs, gates (..., B, T, 4H) as i|f|g|o, cells, tanh_c,
    hidden, h0, c0).
    """
    t_len = x.shape[-2]
    inputs = x
    caches = []
    h_finals, c_finals = [], []
    for li, layer in enumerate(net.layers):
        h_size = layer.hidden_size
        w_x_t = np.swapaxes(layer.w_x, -1, -2)
        w_h_t = np.swapaxes(layer.w_h, -1, -2)
        bias = layer.b[..., np.newaxis, :]
        h = h0[li]
        c = c0[li]
        gates = np.empty(x.shape[:-1] + (4 * h_size,))
        cells = np.empty(x.shape[:-1] + (h_size,))
        tanh_c = np.empty_like(cells)
        hidden = np.empty_like(cells)
        for t in range(t_len):
            z = inputs[..., t, :] @ w_x_t + h @ w_h_t + bias
            # one elementwise sigmoid over i|f|g|o, then g gets its tanh
            act = _sigmoid(z)
            act[..., 2 * h_size:3 * h_size] = np.tanh(z[..., 2 * h_size:3 * h_size])
            i, f = act[..., :h_size], act[..., h_size:2 * h_size]
            g, o = act[..., 2 * h_size:3 * h_size], act[..., 3 * h_size:]
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[..., t, :] = act
            cells[..., t, :] = c
            tanh_c[..., t, :] = tc
            hidden[..., t, :] = h
        caches.append((inputs, gates, cells, tanh_c, hidden, h0[li], c0[li]))
        h_finals.append(h)
        c_finals.append(c)
        inputs = hidden
    rows = inputs.reshape(inputs.shape[:-3] + (-1, inputs.shape[-1]))
    outputs = ((rows @ np.swapaxes(net.w_out, -1, -2)).reshape(
        inputs.shape[:-1] + (-1,)) + net.b_out[..., np.newaxis, np.newaxis, :])
    return outputs, caches, h_finals, c_finals


def _backward(net, caches, d_out):
    """Analytic gradients for one chunk given d(loss)/d(outputs)."""
    hidden_last = caches[-1][4]
    d_w_out = np.einsum("...btk,...bth->...kh", d_out, hidden_last)
    d_b_out = d_out.sum(axis=(-3, -2))
    d_hidden = d_out @ net.w_out[..., np.newaxis, :, :]

    layer_grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        inputs, gates, cells, tanh_c, hidden, h0, c0 = caches[li]
        t_len = hidden.shape[-2]
        h_size = layer.hidden_size

        d_w_x = np.zeros_like(layer.w_x)
        d_w_h = np.zeros_like(layer.w_h)
        d_b = np.zeros_like(layer.b)
        d_inputs = np.empty_like(inputs)
        dh_carry = np.zeros_like(h0)
        dc_carry = np.zeros_like(h0)
        for t in range(t_len - 1, -1, -1):
            dh = d_hidden[..., t, :] + dh_carry
            gt = gates[..., t, :]
            i, f = gt[..., :h_size], gt[..., h_size:2 * h_size]
            g, o = gt[..., 2 * h_size:3 * h_size], gt[..., 3 * h_size:]
            tc = tanh_c[..., t, :]
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            c_prev = cells[..., t - 1, :] if t > 0 else c0
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_carry = dc * f
            dz = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f),
                 dg * (1.0 - g * g), do * o * (1.0 - o)],
                axis=-1,
            )
            dz_t = np.swapaxes(dz, -1, -2)
            h_prev = hidden[..., t - 1, :] if t > 0 else h0
            d_w_x += dz_t @ inputs[..., t, :]
            d_w_h += dz_t @ h_prev
            d_b += dz.sum(axis=-2)
            d_inputs[..., t, :] = dz @ layer.w_x
            dh_carry = dz @ layer.w_h
        layer_grads[li] = (d_w_x, d_w_h, d_b)
        d_hidden = d_inputs

    grads = []
    for g3 in layer_grads:
        grads.extend(g3)
    grads.extend([d_w_out, d_b_out])
    return grads


def _chunk(net, x, targets, mask, h, c):
    """One chunk step: (resid, mask count, gradients of sse/count, h, c).

    ``resid`` is the masked residual and the count is per model; a model
    whose chunk mask is all zero gets zero gradients.
    """
    count = mask.sum(axis=(-3, -2, -1))
    outputs, caches, h, c = _forward(net, x, h, c)
    resid = (outputs - targets) * mask
    d_out = 2.0 * resid * mask / np.maximum(count, 1.0)[..., None, None, None]
    return resid, count, _backward(net, caches, d_out), h, c


def loss_and_gradients(net, x, targets, mask, h0=None, c0=None):
    """Masked mean squared error over one chunk plus analytic gradients.

    ``mask`` is a float array broadcastable to ``targets``; entries with
    mask 0 contribute nothing.  Returned gradients are ordered like
    :meth:`LstmNetwork.parameters`.  Training runs the same chunk step.
    """
    zeros, _ = _zero_state(net, x.shape[0])
    resid, count, grads, _, _ = _chunk(
        net, x, targets, mask,
        zeros if h0 is None else h0, zeros if c0 is None else c0,
    )
    return (float(np.sum(resid * resid)) / count if count else 0.0), grads


# ---------------------------------------------------------------------------
# batching helpers

def make_targets(x_pred, prediction_length):
    """Multi-step targets and validity mask from a (T, d) predicted matrix.

    target[t, c*l + i-1] = x_pred[t+i, c] when it exists, else 0 with a
    zero mask entry; a series no longer than ``i`` has no such target.
    """
    t_len, d = x_pred.shape
    l = prediction_length
    targets = np.zeros((t_len, l * d))
    mask = np.zeros((t_len, l * d))
    for c in range(d):
        for i in range(1, l + 1):
            col = c * l + (i - 1)
            stop = max(t_len - i, 0)
            targets[:stop, col] = x_pred[i:, c]
            mask[:stop, col] = 1.0
    return targets, mask


def _make_batch(series_list, config):
    """Pad series to a common length; returns (x, targets, mask).

    The mask is boolean; chunks are copied out of it as floats.
    """
    xs = [config.normalize(s, config.input_channels) for s in series_list]
    ps = [config.normalize(s, config.predicted_channels) for s in series_list]
    t_max = max(x.shape[0] for x in xs)
    b = len(xs)
    d_in = xs[0].shape[1]
    k = config.output_dim
    x = np.zeros((b, t_max, d_in))
    targets = np.zeros((b, t_max, k))
    mask = np.zeros((b, t_max, k), dtype=bool)
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
    """Adam over stacked (M, ...) parameters; each model keeps its own t."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lrs):
        self.lr = np.array(lrs, dtype=float)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = [0] * len(lrs)

    def step(self, params, grads, ids):
        """Update the models ``ids`` (ascending) from their stacked gradients."""
        for k in ids:
            self.t[k] += 1
        # the bias corrections in Python floats, as for one model
        b1c = np.array([1.0 - self.beta1 ** self.t[k] for k in ids])
        b2c = np.array([1.0 - self.beta2 ** self.t[k] for k in ids])
        lr = self.lr[ids]
        sel = _selector(ids, len(self.t))
        for p, g, m, v in zip(params, grads, self.m, self.v):
            col = (-1,) + (1,) * (g.ndim - 1)
            m_k, v_k = m[sel], v[sel]
            m_k *= self.beta1
            m_k += (1.0 - self.beta1) * g
            v_k *= self.beta2
            v_k += (1.0 - self.beta2) * (g * g)
            m[sel], v[sel] = m_k, v_k
            p[sel] -= (lr.reshape(col) * (m_k / b1c.reshape(col))
                       / (np.sqrt(v_k / b2c.reshape(col)) + self.eps))


def _selector(ids, n):
    """Index of models ``ids`` (ascending) in an n-stack: a view when all."""
    return slice(None) if len(ids) == n else np.asarray(ids)


def clip_gradients(grads, max_norm):
    """Scale each model's stacked gradients down to global norm ``max_norm``.

    ``max_norm`` is an (M,) array; a model whose entry is 0 is not clipped.
    """
    totals = np.sqrt(sum((g * g).reshape(len(g), -1).sum(axis=1) for g in grads))
    clip = (max_norm > 0) & (totals > max_norm)
    if not clip.any():
        return grads
    scale = np.ones_like(totals)
    scale[clip] = max_norm[clip] / totals[clip]
    return [g * scale.reshape((-1,) + (1,) * (g.ndim - 1)) for g in grads]


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


def _job_problem(series_list, config, first):
    """Why a job cannot be trained (stacked with ``first``), or None."""
    if not series_list:
        return "no training series"
    for s in series_list:
        if len(s) <= config.prediction_length + 1:
            return "every training series must be longer than horizon+1"
        if s.labels is not None and s.labels.any():
            return "training series must be all-normal"
    shape = (config.layer_sizes, config.tbptt_length,
             len(config.input_channels), config.output_dim)
    if shape != (first.layer_sizes, first.tbptt_length,
                 len(first.input_channels), first.output_dim):
        return ("stacked jobs must share layer_sizes, tbptt_length and the "
                "input and output widths")
    return None


class _Model:
    """One job of a stacked training call: its data, shuffles and early stop."""

    def __init__(self, index, series_list, config, val_series):
        self.index = index
        self.config = config
        stat_channels = set(config.input_channels) | set(config.predicted_channels)
        config.norm_mean, config.norm_std = compute_norm_stats(
            series_list, sorted(stat_channels)
        )
        self.rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), 11]))
        if val_series is None and len(series_list) >= 3 and config.val_fraction > 0:
            order = self.rng.permutation(len(series_list))
            n_val = max(1, int(round(config.val_fraction * len(series_list))))
            val_idx = set(order[len(series_list) - n_val:].tolist())
            val_series = [series_list[i] for i in sorted(val_idx)]
            series_list = [
                series_list[i] for i in range(len(series_list)) if i not in val_idx
            ]
        self.data = _make_batch(series_list, config)
        self.points = float(self.data[2].sum())
        self.val = _make_batch(val_series, config) if val_series else None
        self.best = init_network(config, np.random.default_rng(
            np.random.SeedSequence([int(config.seed), 13]))).parameters()
        self.best_val = math.inf
        self.since_best = 0
        self.sse = 0.0
        self.log = TrainingLog()


def _pad_chunk(members, t0, t1):
    """Steps t0..t1 of each member's rows, zero-padded into a stack.

    ``members`` are pairs of an (x, targets, mask) triple and a row index
    array.  Returns the three (G, B, T, .) arrays, B at least two, and
    each member's unpadded (rows, steps).
    """
    sizes = [(rows.size, max(0, min(t1, data[0].shape[1]) - t0))
             for data, rows in members]
    shape = (len(members), max(2, *(b for b, _ in sizes)),
             max(s for _, s in sizes))
    stacked = []
    for k in range(3):
        out = np.zeros(shape + (members[0][0][k].shape[2],))
        for j, ((data, rows), (_, steps)) in enumerate(zip(members, sizes)):
            out[j, :rows.size, :steps] = data[k][rows, t0:t0 + steps]
        stacked.append(out)
    return stacked, sizes


def _sse(r):
    """Squared error summed over one model's unpadded slice of a chunk.

    Summed over that slice alone, so the bits match one model's chunk.
    """
    return float(np.sum(r * r))


def _train_step(params, adam, clip, group, tbptt):
    """One batch per model of ``group`` (pairs of model and rows), by chunks."""
    ids = [model.index for model, _ in group]
    sel = _selector(ids, len(adam.t))
    members = [(model.data, rows) for model, rows in group]
    h, c = _zero_state(_network(params), len(group),
                       max(2, *(r.size for _, r in group)))
    for t0 in range(0, max(model.data[0].shape[1] for model, _ in group), tbptt):
        (x, targets, mask), sizes = _pad_chunk(members, t0, t0 + tbptt)
        net = _network([p[sel] for p in params])
        resid, count, grads, h, c = _chunk(net, x, targets, mask, h, c)
        live = count > 0
        if not live.any():
            break  # every later chunk is past the data too
        for j, (model, _) in enumerate(group):
            if live[j]:
                rows, steps = sizes[j]
                model.sse += _sse(resid[j, :rows, :steps])
        grads = clip_gradients(grads, clip[sel])
        if not live.all():
            grads = [g[live] for g in grads]
        adam.step(params, grads, [k for k, on in zip(ids, live) if on])


def _outputs(net, x, tbptt):
    """Outputs (..., B, T, K) of a forward pass over x (..., B, T, D) in
    ``tbptt``-step chunks that carry the state; no chunk's cache is kept.
    """
    out = np.empty(x.shape[:-1] + (net.b_out.shape[-1],))
    h, c = _zero_state(net, *x.shape[:-2])
    for t0 in range(0, x.shape[-2], tbptt):
        chunk, caches, h, c = _forward(net, x[..., t0:t0 + tbptt, :], h, c)
        del caches  # freed before the next chunk allocates its own
        out[..., t0:t0 + tbptt, :] = chunk
    return out


def _val_losses(params, group, tbptt):
    """Masked validation MSE of each model in ``group``.

    Squared residuals are summed per tbptt chunk, as a model's own
    training chunks would sum them.
    """
    sel = _selector([model.index for model in group], len(params[0]))
    members = [(model.val, np.arange(model.val[0].shape[0])) for model in group]
    (x, targets, mask), sizes = _pad_chunk(
        members, 0, max(model.val[0].shape[1] for model in group))
    resid = (_outputs(_network([p[sel] for p in params]), x, tbptt)
             - targets) * mask
    losses = []
    for j, (model, (rows, steps)) in enumerate(zip(group, sizes)):
        sse = sum(_sse(resid[j, :rows, t0:min(t0 + tbptt, steps)])
                  for t0 in range(0, steps, tbptt))
        count = float(model.val[2].sum())
        losses.append(sse / count if count else 0.0)
    return losses


def train_many(jobs):
    """Train one predictor per job in one stacked pass.

    ``jobs`` is a sequence of ``(series_list, config, val_series)``; returns
    ``[(network, training log), ...]`` in job order.  Each job gets the
    network and log that :func:`train` gives it alone, bit for bit: a model
    keeps its own shuffles, normalization, optimizer state, clip norm,
    best-epoch weights and early stop, and a stopped model takes no more
    steps.  Jobs must share ``layer_sizes``, ``tbptt_length`` and the input
    and output widths.  Every job is checked before training starts; a bad
    job raises :class:`InvalidJobError`, a diverging one
    :class:`TrainingDivergedError`, and both carry the job's index as
    ``job``.
    """
    jobs = [(list(series_list), config, val)
            for series_list, config, val in jobs]
    if not jobs:
        raise ValueError("no training jobs")
    for index, (series_list, config, _) in enumerate(jobs):
        problem = _job_problem(series_list, config, jobs[0][1])
        if problem:
            raise InvalidJobError(index, problem)
    models = [_Model(index, *job) for index, job in enumerate(jobs)]

    params = [np.stack(arrays) for arrays in zip(*(m.best for m in models))]
    adam = _Adam(params, [m.config.learning_rate for m in models])
    clip = np.array([m.config.clip_norm for m in models], dtype=float)
    tbptt = models[0].config.tbptt_length
    running = models
    epoch = 0
    while running:
        plans = []
        for model in running:
            model.sse = 0.0
            order = model.rng.permutation(model.data[0].shape[0])
            size = model.config.series_batch_size
            plans.append([(model, order[b0:b0 + size])
                          for b0 in range(0, order.size, size)])
        for step in itertools.zip_longest(*plans):
            _train_step(params, adam, clip,
                        [member for member in step if member is not None], tbptt)

        train_losses = [model.sse / model.points for model in running]
        for model, loss in zip(running, train_losses):
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, job=model.index)
        val_losses = dict(zip(running, train_losses))
        with_val = [model for model in running if model.val is not None]
        if with_val:
            val_losses.update(zip(with_val, _val_losses(params, with_val, tbptt)))

        for model, train_loss in zip(running, train_losses):
            val_loss = val_losses[model]
            model.log.train_losses.append(train_loss)
            model.log.val_losses.append(val_loss)
            if val_loss < model.best_val:
                model.best_val = val_loss
                model.best = [p[model.index].copy() for p in params]
                model.log.best_epoch = epoch
                model.since_best = 0
            else:
                model.since_best += 1
                if model.since_best >= model.config.patience:
                    model.log.stopped_early = True
        epoch += 1
        running = [model for model in running
                   if not model.log.stopped_early and epoch < model.config.epochs]
    return [(_network(model.best), model.log) for model in models]


def train(series_list, config, val_series=None):
    """Train a predictor on normal series; returns (network, training log).

    Normalization statistics are computed from the training series and
    stored on the config (in place).  Early stopping monitors the masked
    MSE on ``val_series`` when given, otherwise on a held-out fraction of
    the training series (seeded shuffle); the weights from the best epoch
    are returned.  This is :func:`train_many` with one job.

    Raises :class:`TrainingDivergedError` if the loss becomes non-finite.
    """
    return train_many([(series_list, config, val_series)])[0]


def predict_many(net, config, series_list):
    """Multi-step predictions for every point of each series.

    Returns one (len(series), output_dim) array per series, in normalized
    units; row t holds the predictions made at t for the next
    ``prediction_length`` steps of each predicted channel, channel-major.
    Every series is checked before any forward pass.

    Every series is a row of one batch, longest first, in chunks that
    carry the state.  A chunk ends where its shortest row does, which then
    leaves the batch, and a lone row gets a zero row.  A chunk holds at
    most ``tbptt_length`` steps and, above one step, at most
    ``series_batch_size * tbptt_length`` row-steps, as in training.  A
    series' rows do not depend on the other series or the chunk lengths:
    they equal one unchunked pass over the series and a zero row.
    """
    series_list = list(series_list)
    for series in series_list:
        missing = [c for c in config.input_channels
                   if c not in series.channel_names]
        if missing:
            raise ValueError(f"series lacks input channels {missing}")
        if len(series) < 2:
            raise ValueError("series too short to predict from")
    if not series_list:
        return []
    # the series end to end, unpadded, in one input and one output array
    lengths = np.array([len(s) for s in series_list])
    ends = np.cumsum(lengths)
    x_all = np.empty((ends[-1], len(config.input_channels)))
    for series, end, t_len in zip(series_list, ends, lengths):
        x_all[end - t_len:end] = config.normalize(series, config.input_channels)
    out_all = np.empty((ends[-1], net.b_out.shape[-1]))
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = (ends - lengths)[order], lengths[order]

    budget = config.series_batch_size * config.tbptt_length
    h, c = _zero_state(net, max(2, len(series_list)))
    t0, live = 0, len(series_list)
    while live:
        rows = max(2, live)
        steps = max(1, min(config.tbptt_length, budget // rows))
        t1 = min(t0 + steps, int(lengths[live - 1]))
        at = starts[:live, np.newaxis] + np.arange(t0, t1)
        x = np.zeros((rows, t1 - t0, x_all.shape[1]))
        x[:live] = x_all[at]
        out, caches, h, c = _forward(net, x, [a[:rows] for a in h],
                                     [a[:rows] for a in c])
        del caches  # freed before the next chunk allocates its own
        out_all[at] = out[:live]
        t0 = t1
        live = int(np.count_nonzero(lengths > t0))
    return np.split(out_all, ends[:-1])


def predict(net, config, series):
    """Multi-step predictions for every point of one series: a
    (len(series), output_dim) array, as one series of :func:`predict_many`.
    """
    return predict_many(net, config, [series])[0]


# ---------------------------------------------------------------------------
# serialization

def network_to_dict(net, config):
    return {
        "version": 1,
        "kind": "lstm-network",
        "config": asdict(config),
        "layers": [
            {"w_x": l.w_x.tolist(), "w_h": l.w_h.tolist(), "b": l.b.tolist()}
            for l in net.layers
        ],
        "w_out": net.w_out.tolist(),
        "b_out": net.b_out.tolist(),
    }


def network_from_dict(doc):
    check_document(doc, "lstm-network")
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
    d_in, shapes = len(config.input_channels), []
    for h in config.layer_sizes:
        shapes += [(4 * h, d_in), (4 * h, h), (4 * h,)]
        d_in = h
    shapes += [(config.output_dim, d_in), (config.output_dim,)]
    if [p.shape for p in net.parameters()] != shapes:
        raise ValueError("inconsistent dimensions in network document")
    stats = [v for d in (config.norm_mean, config.norm_std) if d for v in d.values()]
    numbers = np.concatenate([p.ravel() for p in net.parameters()] + [stats])
    if not np.isfinite(numbers).all():
        raise ValueError("network document contains non-finite numbers")
    return net, config
