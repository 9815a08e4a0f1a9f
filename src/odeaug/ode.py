"""ODE model representation, integration, and two-stage parameter fitting.

The model is linear1, ``dx/dt = p0 * u - p1 * x + p2`` (:func:`rhs`), with
window-wise parameters ``P = (p0, p1, p2)``.
Fitting runs in two stages: a gradient-matching regression solved by
stochastic gradient descent (the derivative targets come from
:mod:`odeaug.series`), followed by an optional particle-swarm refinement
of the integration RMSE.  Several drop fractions of high-curvature
points give multiple gradient-stage candidates; the swarm is seeded with
all of them.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (DivergenceError, RefinementFailedError,
                     UnidentifiableError, as_block, check_count,
                     check_document, check_real)
from .series import TimeSeries, curvature, derivative, moving_average


#: The model, a first-order linear response to a control input with
#: parameters (gain, decay, offset); documents name it by this id.
STRUCTURE_ID = "linear1"
PARAM_COUNT = 3


def rhs(p, x, u):
    """dx/dt of the model.

    ``x`` and ``u`` may be scalars or equal-length arrays, and each
    parameter a scalar or an array column.  The model is linear in its
    parameters, rhs = rhs(0, x, u) + sum_j p[j] * (rhs(e_j, x, u) -
    rhs(0, x, u)), which the gradient-matching solver uses to derive its
    design rows from ``rhs`` alone.
    """
    return p[0] * u - p[1] * x + p[2]


def equilibrium(p, u):
    """The state at which :func:`rhs` is zero under a constant control ``u``."""
    return (p[0] * u + p[2]) / p[1]


@dataclass
class OdeParams:
    """Window-wise parameter tuples: list of (start, end, params), each
    ``params`` holding :data:`PARAM_COUNT` values.

    Windows must be contiguous, non-overlapping, in order, and cover the
    fitted span; ``end`` is exclusive.  Indices outside the span clamp to
    the nearest window, which lets fitted parameters drive generated
    series longer than the fitting pair.
    """

    windows: list

    def __post_init__(self):
        if not self.windows:
            raise ValueError("at least one window required")
        norm = []
        prev_end = None
        for start, end, params in self.windows:
            check_count("window start", start, 0)
            check_count("window end", end)
            start, end, params = int(start), int(end), tuple(params)
            if end <= start:
                raise ValueError(f"empty window ({start}, {end})")
            if len(params) != PARAM_COUNT:
                raise ValueError(
                    f"{STRUCTURE_ID} expects {PARAM_COUNT} parameters, "
                    f"window [{start},{end}) has {len(params)}"
                )
            if prev_end is not None and start != prev_end:
                raise ValueError("windows must be contiguous and ordered")
            for p in params:
                check_real("window parameters", p)
            norm.append((start, end, tuple(float(p) for p in params)))
            prev_end = end
        self.windows = norm

    @classmethod
    def single(cls, params, length):
        return cls([(0, int(length), tuple(params))])


def stability_notes(params):
    """Human-readable warnings for parameter regimes known to be unstable."""
    return [
        f"window [{start},{end}): decay coefficient {p[1]:g} is not "
        "positive; trajectories will not relax to an equilibrium"
        for start, end, p in params.windows if p[1] <= 0.0
    ]


@dataclass(frozen=True)
class SeriesPair:
    """Aligned (control, dependent) channels sharing one sample grid."""

    control: np.ndarray
    dependent: np.ndarray
    sample_period: float

    def __post_init__(self):
        object.__setattr__(self, "control", np.asarray(self.control, dtype=float))
        object.__setattr__(self, "dependent", np.asarray(self.dependent, dtype=float))
        if self.control.shape != self.dependent.shape or self.control.ndim != 1:
            raise ValueError("control and dependent must be aligned 1-D arrays")
        if not (self.sample_period > 0):
            raise ValueError("sample_period must be positive")

    @classmethod
    def from_series(cls, series: TimeSeries, control, dependent):
        """The pair of channels named ``control`` and ``dependent``."""
        return cls(
            series.channel(control),
            series.channel(dependent),
            series.sample_period,
        )

    def __len__(self):
        return self.control.shape[0]


# ---------------------------------------------------------------------------
# integration

def integrate(params, x0, control, dt, abs_bound=None):
    """Fixed-step classical Runge-Kutta trajectory under a sampled control.

    ``params`` is an :class:`OdeParams`, one parameter vector for the
    whole span, or a ``(P, 3)`` swarm of such vectors.  The control is held
    constant over each sample for the intra-step stages.  Returns one value
    per control sample, starting at ``x0``: an ``(n,)`` array, or ``(P, n)``
    for a swarm.  A single trajectory is stepped in plain floats
    (:func:`_integrate_single`); a swarm is evaluated as an affine
    recurrence (:func:`_integrate_swarm`), whose rows match single calls
    to about 1e-13 of the row's largest value, not bit for bit.

    Raises
    ------
    DivergenceError
        If the state becomes non-finite, or ``abs_bound`` is given and
        ``|x|`` exceeds it.  The error carries the offending step index.
        A swarm does not raise; each diverged row is NaN from that step on.
    """
    control = np.asarray(control, dtype=float)
    n = control.shape[0]
    if n < 1:
        raise ValueError("control must contain at least one sample")
    if not (dt > 0):
        raise ValueError("dt must be positive")
    swarm = isinstance(params, np.ndarray) and params.ndim == 2
    if swarm:
        if params.shape[1] != PARAM_COUNT:
            raise ValueError(
                f"{STRUCTURE_ID} expects {PARAM_COUNT} parameters, "
                f"swarm has {params.shape[1]}")
        if not np.all(np.isfinite(params)):
            raise ValueError("swarm parameters must be finite")
        out = _integrate_swarm(params, float(x0), control, float(dt))
    else:
        if not isinstance(params, OdeParams):
            params = OdeParams.single(params, n)
        out = _integrate_single(params.windows, float(x0), control, float(dt))
    # every step is stored, so the first bad one is found exactly
    steps = out[..., 1:]
    bad = ~np.isfinite(steps)
    if abs_bound is not None:
        with np.errstate(invalid="ignore"):
            bad |= np.abs(steps) > abs_bound
    if not swarm:
        if bad.any():
            raise DivergenceError(int(np.argmax(bad)) + 1)
        return out
    for row in np.flatnonzero(bad.any(axis=-1)):
        out[row, int(np.argmax(bad[row])) + 1:] = np.nan
    return out


def _integrate_single(windows, x, control, dt):
    """One RK4 trajectory over window-wise parameters, in Python floats.

    The stages are :func:`rhs` inlined, with the same operations in the
    same order, so the result does not depend on whether the arithmetic
    runs on floats or numpy scalars; floats are several times faster.
    """
    n = control.shape[0]
    us = control.tolist()
    half = 0.5 * dt
    sixth = dt / 6.0
    xs = [x]
    append = xs.append
    # step i runs under the first window with i < end; the last window also
    # covers every step past its end
    stops = [min(max(end, 0), n - 1) for _, end, _ in windows[:-1]] + [n - 1]
    for start, stop, (_, _, (p0, p1, p2)) in zip([0] + stops, stops, windows):
        for u in us[start:stop]:
            pu = p0 * u
            k1 = pu - p1 * x + p2
            k2 = pu - p1 * (x + half * k1) + p2
            k3 = pu - p1 * (x + half * k2) + p2
            k4 = pu - p1 * (x + dt * k3) + p2
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            append(x)
    return np.array(xs)


#: A loop step whose stage values stay below this cannot overflow.
_STAGE_LIMIT = 0.25 * np.finfo(float).max


def _integrate_swarm(params, x0, control, dt):
    """RK4 trajectories of a ``(P, 3)`` swarm, as an affine prefix scan.

    Under a held control, one RK4 step of linear1 is exactly the affine
    map ``x' = a x + s (p0 u + p2)`` with ``z = -p1 dt``, ``a`` the
    degree-4 Taylor polynomial of ``exp(z)`` and ``s = dt (1 + z/2 + z²/6
    + z³/24)``.  Folding ``a x0`` into the first forcing term, the state
    after step ``i`` is ``sum_{j<=i} a^(i-j) b_j``, which a doubling scan
    (Hillis & Steele 1986) sums in ceil(log2 n) array steps.

    A row whose scan leaves the floats, or whose loop stages may come
    near doing so, is run in the loop itself, :func:`_integrate_single`,
    so its trajectory and the step at which it diverges are the loop's.
    That covers the loop's stages overflowing a step before its state
    does (from 1e301 at decay -800, k4 overflows while ``a x`` is finite)
    and a row at rest whose ``a^k`` overflows, where the scan's
    ``inf * 0`` is NaN but the loop stays exactly 0.
    """
    n = control.shape[0]
    p0, p1, p2 = (col[:, np.newaxis] for col in params.T)
    out = np.empty((params.shape[0], n))
    out[:, 0] = x0
    u = control[:-1]
    with np.errstate(all="ignore"):
        z = -p1 * dt
        a = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        s = dt * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        b = out[:, 1:]
        np.multiply(s, p0 * u + p2, out=b)
        b[:, :1] += a * x0
        k, a_k = 1, a
        while k < b.shape[1]:
            b[:, k:] += a_k * b[:, :-k]
            k, a_k = 2 * k, a_k * a_k

        # a bound on every stage value of a loop step from any state of
        # the row: |k1| <= lam |x| + forcing, and each later stage grows
        # by at most (1 + lam dt); NaN where the scan left the floats
        lam = np.abs(params[:, 1])
        x_max = np.max(np.abs(out), axis=1)
        f_max = (np.abs(params[:, 0]) * np.max(np.abs(u), initial=0.0)
                 + np.abs(params[:, 2]))
        stage = (6.0 * (1.0 + dt) * (1.0 + lam * dt) ** 3
                 * (lam * x_max + f_max) + x_max)
    for row in np.flatnonzero(~(stage < _STAGE_LIMIT)):
        out[row] = _integrate_single([(0, n, tuple(params[row].tolist()))],
                                     x0, control, dt)
    return out


def integration_rmse(params, pair, abs_bound=None):
    """RMSE between the observed dependent channel and the integrated model.

    Integration starts from the first observed dependent sample.  A
    diverging trajectory scores ``inf`` instead of raising.  A ``(P, 3)``
    swarm of parameter vectors gives a ``(P,)`` array of scores.
    """
    try:
        traj = integrate(
            params,
            pair.dependent[0],
            pair.control,
            pair.sample_period,
            abs_bound=abs_bound,
        )
    except DivergenceError:
        return math.inf
    if traj.ndim == 1:
        return float(np.sqrt(np.mean((traj - pair.dependent) ** 2)))
    # diverged rows end in NaN; row means along the contiguous last axis
    # match the single-trajectory np.mean bit for bit
    ok = ~np.isnan(traj[:, -1])
    rmse = np.full(traj.shape[0], math.inf)
    rmse[ok] = np.sqrt(np.mean((traj[ok] - pair.dependent) ** 2, axis=1))
    return rmse


def _divergence_bound(dependent):
    rng = float(np.max(dependent) - np.min(dependent))
    scale = max(rng, float(np.max(np.abs(dependent))), 1.0)
    return 1e6 * scale


# ---------------------------------------------------------------------------
# configuration

@dataclass
class SgdConfig:
    """Preconditioned SGD schedule: constant warmup, 1/t decay, tail average.

    The per-parameter preconditioner makes the rate scale-free; the decay
    phase plus Polyak tail averaging lets the iterate settle onto the
    least-squares solution instead of hovering around it.
    """

    learning_rate: float = 0.05
    epochs: int = 800
    warmup_fraction: float = 0.33
    lr_decay: float = 0.3
    average_fraction: float = 0.4

    def __post_init__(self):
        check_count("epochs", self.epochs)
        check_real("learning_rate", self.learning_rate, 0, low_open=True)
        check_real("warmup_fraction", self.warmup_fraction, 0, 1)
        check_real("average_fraction", self.average_fraction, 0, 1)
        check_real("lr_decay", self.lr_decay, 0)


@dataclass
class PsoConfig:
    swarm_size: int = 30
    iterations: int = 100
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    seed: int = 0

    def __post_init__(self):
        check_count("swarm_size", self.swarm_size)
        check_count("iterations", self.iterations, 0)
        for name in ("inertia", "cognitive", "social"):
            check_real(name, getattr(self, name))
        check_count("seed", self.seed, -math.inf)


@dataclass
class FitConfig:
    drop_fractions: tuple = (0.05, 0.1, 0.2)
    smooth_window: int = 5
    curvature_max_order: int = 3
    min_points: int = 32
    seed: int = 0
    sgd: SgdConfig = field(default_factory=SgdConfig)
    use_pso: bool = False
    pso: PsoConfig = field(default_factory=PsoConfig)
    #: Optional explicit window boundaries ((start, end), ...); None fits a
    #: single window spanning the whole pair.
    window_bounds: tuple = None

    def __post_init__(self):
        self.drop_fractions = tuple(self.drop_fractions)
        if not self.drop_fractions:
            raise ValueError("drop_fractions must be non-empty")
        for q in self.drop_fractions:
            check_real("drop_fractions", q, 0, 0.5)
        check_count("smooth_window", self.smooth_window)
        if self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd")
        check_count("curvature_max_order", self.curvature_max_order)
        check_count("min_points", self.min_points, PARAM_COUNT)
        check_count("seed", self.seed, -math.inf)
        self.sgd = as_block("sgd", self.sgd, SgdConfig)
        if not isinstance(self.use_pso, bool):
            raise ValueError(f"use_pso must be true or false, got {self.use_pso!r}")
        self.pso = as_block("pso", self.pso, PsoConfig)
        previous_end = 0
        for start, end in self.window_bounds or ():
            check_count("window_bounds", start, 0)
            check_count("window_bounds", end, 0)
            if not (start == previous_end and end > start):
                raise ValueError(
                    "window_bounds must be contiguous, ordered integer "
                    "(start, end) pairs starting at 0")
            previous_end = end
        if self.window_bounds is not None:
            self.window_bounds = tuple(
                (int(start), int(end)) for start, end in self.window_bounds)


class FitCandidate(NamedTuple):
    params: tuple
    rmse: float
    drop_fraction: float


@dataclass
class FitReport:
    params: OdeParams
    rmse: float
    dropped_fraction: float
    pso_used: bool
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# gradient-matching stage

#: Epochs per block of the deferred loss check in :func:`_sgd_minimize`;
#: its temporary is this many residual vectors, whatever the epoch count.
_LOSS_CHUNK = 16


def _sgd_minimize(targets, rows, offsets, config, rng):
    """Per-point SGD on the squared gradient-matching residual.

    ``rows`` are the ``(n, 3)`` parameter-gradient design rows of linear1
    and ``offsets`` the right-hand side at zero parameters, one per
    retained point; the model is linear in its parameters, so the
    residual of point ``t`` is ``targets[t] - offsets[t] - rows[t] . p``.
    Updates are preconditioned by the inverse mean-square design row.  The
    preconditioner is constant, so the fixed point is still the unweighted
    least-squares solution; it only makes the step size independent of
    channel units.

    The per-point loop is straight-line float code over one 7-float row
    per point, ``(target - offset, f0, f1, f2, g0, g1, g2)`` with
    ``g = f * pre``.  It keeps the operation order of a generic loop over
    the parameters, so every iterate equals that loop's bit for bit
    (``tests/test_ode.py`` keeps it as the reference).  The Polyak tail
    average accumulates in epoch order.  The loop stops at the first epoch
    whose iterate is not finite; the loss of each epoch's iterate is
    checked after the loop, in blocks of ``_LOSS_CHUNK`` epochs whose row
    means equal the per-epoch ``np.mean`` bit for bit.

    Raises
    ------
    UnidentifiableError
        If any epoch's mean squared residual is not finite.
    """
    n = rows.shape[0]
    pre = 1.0 / np.maximum(np.mean(rows * rows, axis=0), 1e-300)
    y_off = targets - offsets
    # plain-float rows (tolist, not tuple(row), which boxes numpy scalars):
    # the per-point loop is an order of magnitude faster on Python floats
    data = np.column_stack([y_off, rows, rows * pre]).tolist()

    order = np.arange(n)
    epochs = config.epochs
    warmup = int(config.warmup_fraction * epochs)
    avg_start = int((1.0 - config.average_fraction) * epochs)
    lr0 = config.learning_rate
    iterates = np.empty((epochs, 3))
    p0 = p1 = p2 = 0.0
    a0 = a1 = a2 = 0.0
    for epoch in range(epochs):
        lr = lr0 if epoch < warmup else lr0 / (1.0 + config.lr_decay * (epoch - warmup))
        two_lr = 2.0 * lr
        rng.shuffle(order)
        for t in order.tolist():
            r, f0, f1, f2, g0, g1, g2 = data[t]
            c = two_lr * (r - f0 * p0 - f1 * p1 - f2 * p2)
            p0 += c * g0
            p1 += c * g1
            p2 += c * g2
        # a non-finite parameter makes every residual non-finite (0 * inf
        # is NaN), so the deferred check would raise on this epoch anyway
        if not (math.isfinite(p0) and math.isfinite(p1) and math.isfinite(p2)):
            raise UnidentifiableError("gradient regression diverged")
        iterates[epoch] = p0, p1, p2
        if epoch >= avg_start:
            a0 += p0
            a1 += p1
            a2 += p2

    # one gemv per epoch, as ``rows @ p`` makes, stacked over a block; the
    # residuals are squared in place, so a block holds one temporary.  A
    # huge but finite iterate overflows here; the check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, epochs, _LOSS_CHUNK):
            block = iterates[start:start + _LOSS_CHUNK, :, np.newaxis]
            resid = (rows @ block)[..., 0]
            np.subtract(y_off, resid, out=resid)
            resid *= resid
            if not np.all(np.isfinite(np.mean(resid, axis=1))):
                raise UnidentifiableError("gradient regression diverged")
    n_acc = epochs - avg_start
    return np.array([a0, a1, a2]) / n_acc if n_acc else iterates[-1].copy()


def _retained_indices(smoothed, dt, q, max_order):
    n = smoothed.shape[0]
    n_drop = int(round(q * n))
    if n_drop == 0:
        return np.arange(n)
    score = curvature(smoothed, dt, max_order)
    # stable sort keeps ties deterministic
    order = np.argsort(score, kind="stable")
    return np.sort(order[: n - n_drop])


def fit_gradient_sgd(pair, drop_fractions, config=None):
    """Gradient-matching candidates, one per drop fraction.

    For each fraction ``q``: smooth the dependent channel, estimate its
    first derivative, drop the top-``q`` fraction of points by curvature
    score, and regress the derivative targets onto the model right-hand
    side by seeded SGD.  Candidates are scored by integration RMSE against
    the raw pair and returned sorted ascending.

    Raises
    ------
    ValueError
        On a fraction outside [0, 0.5] or fewer than ``min_points``
        retained samples.
    UnidentifiableError
        If the regression design is rank-deficient (e.g. constant control
        with the state held at equilibrium), or the SGD diverges.
    """
    config = config or FitConfig()
    n = len(pair)
    for q in drop_fractions:
        if not (0.0 <= q <= 0.5):
            raise ValueError(f"drop fraction {q} outside [0, 0.5]")
    smoothed = moving_average(pair.dependent, config.smooth_window)
    targets = derivative(smoothed, pair.sample_period, 1)
    bound = _divergence_bound(pair.dependent)

    candidates = []
    ss = np.random.SeedSequence([_seed_entropy(config.seed), 101])
    streams = ss.spawn(len(drop_fractions))
    for q, stream in zip(drop_fractions, streams):
        keep = _retained_indices(smoothed, pair.sample_period, q, config.curvature_max_order)
        if keep.shape[0] < config.min_points:
            raise ValueError(
                f"only {keep.shape[0]} samples retained after dropping; "
                f"need at least {config.min_points}"
            )
        # linear in the parameters: the right-hand side at zero parameters
        # and at each unit vector defines the whole regression
        xs, us = smoothed[keep], pair.control[keep]
        offsets = rhs(np.zeros(PARAM_COUNT), xs, us)
        rows = np.column_stack(
            [rhs(e_j, xs, us) - offsets for e_j in np.eye(PARAM_COUNT)]
        )
        _check_identifiable(rows)
        rng = np.random.default_rng(stream)
        p = _sgd_minimize(targets[keep], rows, offsets, config.sgd, rng)
        rmse = integration_rmse(OdeParams.single(p, n), pair, abs_bound=bound)
        candidates.append(FitCandidate(tuple(float(v) for v in p), rmse, float(q)))
    candidates.sort(key=lambda c: c.rmse)
    return candidates


def _check_identifiable(rows):
    if np.linalg.matrix_rank(rows) < rows.shape[1]:
        raise UnidentifiableError(
            "retained points do not identify the parameters "
            "(rank-deficient regression design)"
        )


def _seed_entropy(seed):
    return int(seed) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# particle-swarm refinement

def _candidate_box(candidates):
    arr = np.asarray(candidates, dtype=float)
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    floor = 0.1 * np.maximum(np.abs(lo), np.abs(hi)) + 1e-3
    span = np.maximum(span, floor)
    return lo - 0.5 * span, hi + 0.5 * span


def refine_pso(candidates, pair, config=None):
    """Particle-swarm refinement of the integration RMSE.

    The swarm starts from all candidates plus uniform samples in a box
    around them, so the result is never worse than the best candidate.
    Returns ``(params, rmse)``.

    Raises
    ------
    RefinementFailedError
        If every evaluation in the run diverged; carries the first
        candidate as the best available fallback.
    """
    config = config or PsoConfig()
    if not candidates:
        raise ValueError("need at least one candidate")
    cand = [tuple(float(v) for v in c) for c in candidates]
    dim = len(cand[0])
    bound = _divergence_bound(pair.dependent)
    rng = np.random.default_rng(
        np.random.SeedSequence([_seed_entropy(config.seed), 202])
    )
    n_particles = max(config.swarm_size, len(cand))
    lo, hi = _candidate_box(cand)
    x = np.empty((n_particles, dim))
    x[: len(cand)] = np.asarray(cand, dtype=float)
    if n_particles > len(cand):
        x[len(cand):] = rng.uniform(lo, hi, size=(n_particles - len(cand), dim))
    v = np.zeros_like(x)

    # only the seeded candidates are scored up front, so a 0-iteration call
    # degenerates to "best candidate"; box-filling particles are first
    # evaluated after they move
    pbest = x.copy()
    pbest_f = np.full(n_particles, math.inf)
    pbest_f[: len(cand)] = integration_rmse(x[: len(cand)], pair, abs_bound=bound)
    g_idx = int(np.argmin(pbest_f))
    gbest, gbest_f = pbest[g_idx].copy(), float(pbest_f[g_idx])

    for _ in range(config.iterations):
        r1 = rng.random((n_particles, dim))
        r2 = rng.random((n_particles, dim))
        v = (config.inertia * v
             + config.cognitive * r1 * (pbest - x)
             + config.social * r2 * (gbest - x))
        x = x + v
        fitness = integration_rmse(x, pair, abs_bound=bound)
        improved = fitness < pbest_f
        pbest[improved] = x[improved]
        pbest_f[improved] = fitness[improved]
        g_idx = int(np.argmin(pbest_f))
        if pbest_f[g_idx] < gbest_f:
            gbest, gbest_f = pbest[g_idx].copy(), float(pbest_f[g_idx])

    if not math.isfinite(gbest_f):
        raise RefinementFailedError(cand[0], gbest_f)
    return tuple(float(v) for v in gbest), gbest_f


# ---------------------------------------------------------------------------
# full fit

def fit(pair, config=None):
    """Fit window-wise ODE parameters to a (control, dependent) pair.

    Runs the gradient stage over ``config.drop_fractions`` per window and
    keeps the candidate with the lowest integration RMSE; the swarm
    refinement, seeded with every candidate, runs only when
    ``config.use_pso`` is set.  The report's RMSE is re-evaluated on
    the assembled window parameters, so it is self-consistent by
    construction.
    """
    config = config or FitConfig()
    n = len(pair)
    bounds = config.window_bounds or [(0, n)]
    if bounds[0][0] != 0 or bounds[-1][1] != n:
        raise ValueError("window bounds must cover the whole pair")

    windows = []
    dropped_weight = 0.0
    pso_used = False
    for w_idx, (start, end) in enumerate(bounds):
        sub = SeriesPair(
            pair.control[start:end], pair.dependent[start:end], pair.sample_period
        )
        sub_config = replace(config, seed=_seed_entropy(config.seed) + 977 * w_idx)
        cands = fit_gradient_sgd(sub, config.drop_fractions, sub_config)
        best_params, _, best_q = cands[0]
        if config.use_pso:
            # one stream per fit seed, swarm seed and window: neither seed
            # is ignored
            stream = np.random.SeedSequence([_seed_entropy(config.seed),
                                             _seed_entropy(config.pso.seed), w_idx])
            pso_cfg = replace(config.pso, seed=int(stream.generate_state(1)[0]))
            best_params, _ = refine_pso([c.params for c in cands], sub, pso_cfg)
            pso_used = True
        windows.append((start, end, best_params))
        dropped_weight += best_q * (end - start)

    params = OdeParams(windows)
    rmse = integration_rmse(params, pair)
    return FitReport(
        params=params,
        rmse=rmse,
        dropped_fraction=dropped_weight / n,
        pso_used=pso_used,
        notes=stability_notes(params),
    )


# ---------------------------------------------------------------------------
# serialization

def params_to_dict(params, **meta):
    doc = {
        "version": 1,
        "kind": "ode-model",
        "structure": STRUCTURE_ID,
        "windows": [
            {"start": s, "end": e, "params": list(p)} for s, e, p in params.windows
        ],
    }
    doc.update(meta)
    return doc


def params_from_dict(doc):
    check_document(doc, "ode-model")
    if doc["structure"] != STRUCTURE_ID:
        raise ValueError(f"unknown ODE structure {doc['structure']!r}")
    return OdeParams(
        [(w["start"], w["end"], tuple(w["params"])) for w in doc["windows"]])
