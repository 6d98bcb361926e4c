"""Concrete Lie group models and piecewise-exponential paths.

Every supported group is 2-step nilpotent in exponential coordinates, and a
model keeps two data: its bracket pairs (a, b, k), meaning [e_a, e_b] = e_k
(the nonzero structure constants up to antisymmetry), and which coordinates
are circles.  The torus T^d has no pairs and only circles; its universal
cover R^d has neither.  The Heisenberg group H = R x R^2 has the one pair
(1, 2, 0), and its compact quotient S^1 x R^2 the same pair with the central
coordinate a circle.  A universal cover keeps the pairs and drops the circles.

Every bracket lands in the centre, so the BCH series stops after one term and
each operation is one closed form, written once as a loop over the pairs
(none on a torus).  With ad_g the matrix of xi -> [g, xi]:

    g h = g + h + [g, h] / 2,          Ad_g = I + ad_g,
    chart_to_body(g) = I - ad_g / 2,   Ad*_{g^{-1}} = (I - ad_g)^T.

Group elements are flat coordinate arrays in this chart; circle coordinates
are normalized to [0, 1).  Elements may be stacked in rows: every GroupModel
operation serves one element or many through one body.  Rows are gathered
with ``ndarray.take``: numpy indexes rows with an index array several times
more slowly.

Paths carry a constant left-trivialized velocity on each segment, so the left
logarithm of the velocity is exact and every path integrand downstream is
piecewise-analytic.  Every path keeps one breakpoint invariant, checked by
every constructor: its breakpoints increase strictly from exactly 0 to
exactly 1.  A product path (``path_product``) adds no
sample times: it hits p(t) q(t) at the union of its factors' breakpoints and
takes one exponential step between them.  By the invariant that union is
already a valid run of breakpoints, so the product's table is built from it
directly, without re-sampling or re-checking it.  The cover is simply
connected, so that fixes the product's homotopy class, which is all a
product path is read for.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "GroupModel",
    "GroupPath",
    "circle_count",
    "path_product",
    "concat_paths",
]

# kind -> (fixed dimension or None, bracket pairs, how many leading
# coordinates are circles, None for all of them)
_FAMILIES = {
    "torus": (None, (), None),
    "universal_torus": (None, (), 0),
    "heisenberg": (3, ((1, 2, 0),), 0),
    "central_extension": (3, ((1, 2, 0),), 1),
}


def circle_count(kind: str, dim: int) -> int:
    """How many coordinates of the ``kind`` model of dimension ``dim`` are
    circles: the rank of its fundamental group."""
    circles = _FAMILIES[kind][2]
    return dim if circles is None else circles


class GroupModel:
    """One of the supported groups, with chart arithmetic and algebra data.

    The model is its bracket pairs and its circle coordinates; ``kind`` only
    labels it.  A scenario reads the same two data, never the label: a
    bracket pair gives a Casimir and level-set orbits, and coordinates that
    are all circles give the torus cover text.  Every operation takes one
    element of shape (n,) or stacked ones of shape (rows, n) (more leading
    axes broadcast alike), and a single element broadcasts against rows: the
    result has one row, matrix or distance per row, each computed with the
    arithmetic of a single element."""

    __slots__ = ("kind", "dim", "pairs", "circles", "structure", "_circle")

    def __init__(self, kind: str, dim: int | None = None):
        if kind not in _FAMILIES:
            raise InputError(f"unknown group kind {kind!r}")
        fixed, pairs, _ = _FAMILIES[kind]
        if fixed is not None:
            if dim not in (None, fixed):
                raise InputError(f"{kind} has dimension {fixed}, got {dim}")
            dim = fixed
        elif dim is None or dim < 1:
            raise InputError(f"{kind} needs a positive dimension, got {dim}")
        dim = int(dim)
        self.kind = kind  # a label for repr and messages; no operation branches on it
        self.dim = dim
        self.pairs = pairs
        self.circles = tuple(range(circle_count(kind, dim)))
        # the dense structure tensor c[a, b, k] of [e_a, e_b] = sum_k c[a, b, k] e_k
        self.structure = np.zeros((dim, dim, dim))
        for a, b, k in pairs:
            self.structure[a, b, k], self.structure[b, a, k] = 1.0, -1.0
        self.structure.flags.writeable = False
        mask = np.zeros(dim, dtype=bool)
        mask[list(self.circles)] = True
        self._circle = mask if self.circles else None  # None: nothing to wrap

    def __repr__(self):
        return f"GroupModel({self.kind!r}, {self.dim})"

    def _data(self):
        return self.dim, self.pairs, self.circles

    def __eq__(self, other):
        return isinstance(other, GroupModel) and self._data() == other._data()

    def __hash__(self):
        return hash(self._data())

    # -- chart structure ---------------------------------------------------

    @property
    def is_simply_connected(self) -> bool:
        return not self.circles

    def cover(self) -> "GroupModel":
        """The universal cover: the same brackets on the same chart, no
        circles."""
        if not self.circles:
            return self
        family = next(k for k, (_, pairs, circles) in _FAMILIES.items() if pairs == self.pairs and circles == 0)
        return GroupModel(family, self.dim)

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _check(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if not g.ndim or g.shape[-1] != self.dim:
            raise InputError(f"expected element of shape ({self.dim},) or (..., {self.dim}), got {g.shape}")
        return g

    def _wrap(self, g) -> np.ndarray:
        """Reduce the circle coordinates of a fresh array in place."""
        mask = self._circle
        if mask is not None:
            g[..., mask] = np.mod(g[..., mask], 1.0)
        return g

    def _unit_plus_ad(self, g, scale: float) -> np.ndarray:
        """I + scale ad_g for each element of g: pair (a, b, k) puts g_a at
        (k, b) and -g_b at (k, a)."""
        g = self._check(g)
        m = np.tile(np.eye(self.dim), g.shape[:-1] + (1, 1))
        for a, b, k in self.pairs:
            m[..., k, b] += scale * g[..., a]
            m[..., k, a] -= scale * g[..., b]
        return m

    def normalize(self, g) -> np.ndarray:
        """Canonical chart representative; idempotent."""
        return self._wrap(self._check(g).copy())

    def chart_to_body(self, g) -> np.ndarray:
        """Matrix taking chart-coordinate displacements at g to body-frame
        velocities, I - ad_g / 2; the identity on abelian charts."""
        return self._unit_plus_ad(g, -0.5)

    # -- group operations --------------------------------------------------

    def multiply(self, g, h) -> np.ndarray:
        g, h = self._check(g), self._check(h)
        out = g + h
        for a, b, k in self.pairs:
            out[..., k] += 0.5 * (g[..., a] * h[..., b] - g[..., b] * h[..., a])
        return self._wrap(out)

    def inverse(self, g) -> np.ndarray:
        # g^{-1} = -g, since [g, -g] = 0
        return self._wrap(-self._check(g))

    def exp(self, xi, t: float = 1.0) -> np.ndarray:
        """exp(t xi); the chart is exponential, so this is scaling plus
        normalization."""
        return self._wrap(t * self._check(xi))

    def log(self, g) -> np.ndarray:
        if not self.is_simply_connected:
            raise InputError(f"no global logarithm on {self.kind}")
        return self._check(g).copy()

    def distance(self, g, h):
        """Chart distance, the circle coordinates taken the short way round:
        a float for two elements, one per row for stacked ones."""
        d = self._check(g) - self._check(h)
        mask = self._circle
        if mask is not None:
            d[..., mask] = np.mod(d[..., mask] + 0.5, 1.0) - 0.5
        dist = np.sqrt((d * d).sum(axis=-1))
        return float(dist) if dist.ndim == 0 else dist

    # -- algebra structure -------------------------------------------------

    def bracket(self, xi, eta) -> np.ndarray:
        xi, eta = self._check(xi), self._check(eta)
        out = np.zeros(np.broadcast_shapes(xi.shape, eta.shape))
        for a, b, k in self.pairs:
            out[..., k] += xi[..., a] * eta[..., b] - xi[..., b] * eta[..., a]
        return out

    def adjoint(self, g) -> np.ndarray:
        """Ad_g = I + ad_g."""
        return self._unit_plus_ad(g, 1.0)

    def coadjoint_inv(self, g) -> np.ndarray:
        """Matrix of mu -> Ad*_{g^{-1}} mu, defined by
        <Ad*_{g^{-1}} mu, xi> = <mu, Ad_{g^{-1}} xi>; it is (I - ad_g)^T."""
        return np.swapaxes(self._unit_plus_ad(g, -1.0), -1, -2)

    def coadjoint_inv_apply(self, gs, mus) -> np.ndarray:
        """Row-wise Ad*_{g^{-1}} mu = mu - ad_g^T mu for stacked elements and
        covectors (a single covector is applied to every element), without
        building the matrices."""
        gs, mus = np.atleast_2d(np.asarray(gs, dtype=float)), np.asarray(mus, dtype=float)
        if mus.shape == gs.shape:
            out = mus.copy()
        else:  # one side is a single row, against which the products broadcast
            out = np.empty(np.broadcast(gs, mus).shape)
            out[...] = mus
        for a, b, k in self.pairs:
            psi = mus[..., k]
            out[:, a] += psi * gs[:, b]
            out[:, b] -= psi * gs[:, a]
        return out


def _ranges(starts, counts) -> np.ndarray:
    """The index ranges starts[i] : starts[i] + counts[i], one after another."""
    counts = np.asarray(counts, dtype=np.intp)
    firsts = counts.cumsum() - counts
    return np.arange(counts.sum()) + np.repeat(np.asarray(starts, dtype=np.intp) - firsts, counts)


def _interleave(a, a_starts, a_counts, b, b_starts, b_counts) -> np.ndarray:
    """Rows a[a_starts[i] : + a_counts[i]] then b[b_starts[i] : + b_counts[i]],
    block after block."""
    a_counts, b_counts = np.asarray(a_counts), np.asarray(b_counts)
    sizes = a_counts + b_counts
    firsts = sizes.cumsum() - sizes
    out = np.empty((sizes.sum(),) + a.shape[1:])
    out[_ranges(firsts, a_counts)] = a.take(_ranges(a_starts, a_counts), axis=0)
    out[_ranges(firsts + a_counts, b_counts)] = b.take(_ranges(b_starts, b_counts), axis=0)
    return out


class GroupPath:
    """B piecewise-exponential paths on [0,1]: on segment k a path is
    node_k * exp((t - t_k) direction_k), continuous by construction.

    The paths share one flat segment table: path b owns the rows
    ``offsets[b]:offsets[b + 1]`` of ``directions`` and ``durations`` and the
    one-longer run of breakpoints ``offsets[b] + b : offsets[b + 1] + b + 1``
    of ``times`` and ``nodes``, so ragged segment counts need no padding.
    A path built alone is a single path (B = 1): its ``base``, its
    ``endpoint()`` and every kernel result on it have shape (n,).  A batch
    (``batched``) gives them a leading axis of length B.

    Segment durations must be positive and sum to 1 within 1e-12 on every
    path.  A path's breakpoints, their running sums with the last set to
    exactly 1, must then increase strictly from exactly 0, or building the
    path raises InputError: a sum can absorb a tiny duration or pass 1
    before the last.  Instances are treated as immutable after
    construction.
    """

    __slots__ = ("model", "directions", "durations", "offsets", "bases", "batched", "times", "nodes", "_first", "_points")

    def __init__(self, model: GroupModel, segments, base=None):
        segments = list(segments)
        for direction, _ in segments:
            if np.shape(direction) != (model.dim,):
                raise InputError(f"segment direction shape {np.shape(direction)} != ({model.dim},)")
        directions = np.array([d for d, _ in segments], dtype=float).reshape(-1, model.dim)
        durations = np.array([w for _, w in segments], dtype=float)
        self._setup(model, directions, durations, base, None)

    @classmethod
    def from_table(cls, model: GroupModel, directions, durations, base=None, counts=None) -> "GroupPath":
        """Path from a segment table of stacked ``(segments, dim)`` directions
        and durations.  With ``counts`` the result is a batch of len(counts)
        paths: path b takes the next counts[b] rows and starts at base[b]
        (default the identity)."""
        path = cls.__new__(cls)
        path._setup(model, np.asarray(directions, dtype=float), np.asarray(durations, dtype=float), base, counts)
        return path

    def _setup(self, model: GroupModel, directions, durations, base, counts):
        self.batched = counts is not None
        segments, n = len(durations), model.dim
        counts = np.array([segments] if counts is None else counts, dtype=np.intp)
        nb = len(counts)
        if nb == 0 or counts.min() < 1 or counts.sum() != segments:
            raise InputError("a path needs at least one segment")
        # each check is written to fail on NaN, which max and min propagate
        if not durations.min() > 0:
            raise InputError(f"segment duration {durations[~(durations > 0)][0]} is not positive")
        offsets = np.zeros(nb + 1, dtype=np.intp)
        counts.cumsum(out=offsets[1:])
        owner = np.arange(nb).repeat(counts)  # path of each segment
        self._first = np.arange(segments) + owner  # breakpoint starting each segment
        self._points = None  # path of each breakpoint, made by point_paths()
        # the running sums run per path on a (paths, segments) layout, zero
        # padded behind shorter paths: cumsum is sequential, so the padding
        # leaves them exact
        width = counts.max()
        valid = None if segments == nb * width else np.arange(width + 1) <= counts[:, None]
        if valid is None:
            padded = durations.reshape(nb, width)
            steps = (durations[:, None] * directions).reshape(nb, width, n)
        else:
            local = np.arange(segments) - offsets[owner]
            padded, steps = np.zeros((nb, width)), np.zeros((nb, width, n))
            padded[owner, local] = durations
            steps[owner, local] = durations[:, None] * directions
        cum = padded.cumsum(axis=1)
        totals = np.add.reduceat(durations, offsets[:-1])  # each path's cum[-1]
        gaps = np.abs(totals - 1.0)
        if not gaps.max() <= 1e-12:
            raise InputError(f"durations sum to {totals[~(gaps <= 1e-12)][0]}, expected 1")
        self.model = model
        self.directions = directions
        self.durations = durations
        self.offsets = offsets
        if base is None:
            self.bases = np.zeros((nb, n))
        elif np.shape(base) in ((n,), (nb, n)):
            self.bases = model.normalize(np.broadcast_to(base, (nb, n)))
        else:
            raise InputError(f"expected base of shape ({n},), got {np.shape(base)}")

        # the breakpoints run strictly from exactly 0 to exactly 1: the last is
        # set to 1, and a running sum may absorb a positive duration or pass 1
        # before the last, so every step is compared, the padding excepted
        times = np.zeros((nb, width + 1))
        times[:, 1:] = cum
        times[np.arange(nb), counts] = 1.0
        rising = (times[:, 1:] > times[:, :-1]) | (False if valid is None else ~valid[:, 1:])
        if not rising.all():
            b, k = np.argwhere(~rising)[0]
            raise InputError(f"breakpoint {times[b, k]} before a path's end is not below {times[b, k + 1]}, the next one")
        # node_{k+1} = node_k * exp(duration_k direction_k): in the exponential
        # chart the product is a running sum, plus the central terms
        # [node_k, step_k]/2, which read only non-central coordinates.  A cumsum
        # costs per row it runs along, so a batch of one-segment paths (lifts,
        # tails) adds its single step instead: the same sum
        nodes = np.concatenate([self.bases[:, None], steps], axis=1)
        if width == 1:
            nodes[:, 1] += nodes[:, 0]
        else:
            nodes = nodes.cumsum(axis=1)
        for a, b, k in model.pairs:
            central = 0.5 * (nodes[:, :-1, a] * steps[..., b] - nodes[:, :-1, b] * steps[..., a])
            nodes[:, 1:, k] += central if width == 1 else central.cumsum(axis=1)
        if valid is None:
            self.times, nodes = times.ravel(), nodes.reshape(-1, n)
        else:
            self.times, nodes = times[valid], nodes[valid]
        mask = model._circle
        if mask is not None:
            nodes[:, mask] = np.mod(nodes[:, mask], 1.0)
        self.nodes = nodes

    # -- constructors ------------------------------------------------------

    @classmethod
    def straight(cls, model: GroupModel, xi, base=None) -> "GroupPath":
        """t -> base * exp(t xi); a batch of one-segment paths when ``xi``
        stacks several directions (rows)."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim == 2:
            ones = np.empty(len(xi), dtype=np.intp)
            ones.fill(1)
            return cls.from_table(model, xi, ones, base, ones)
        return cls(model, [(xi, 1.0)], base)

    @classmethod
    def from_samples(cls, model: GroupModel, ts, gs, counts=None) -> "GroupPath":
        """Interpolating path: one exponential segment between consecutive
        samples.  The samples are the nodes and their times the breakpoints,
        each path's ends set to exactly 0 and 1, so the path hits every
        sample bit for bit.  Needs a global logarithm.  With ``counts``,
        ``ts`` and ``gs`` hold the samples of len(counts) paths one after
        another, counts[b] of them for path b, and the result is a batch."""
        ts = np.array(ts, dtype=float)
        gs = np.array(gs, dtype=float)
        if gs.shape != (len(ts), model.dim):
            raise InputError(f"expected samples of shape ({len(ts)}, {model.dim}), got {gs.shape}")
        if not model.is_simply_connected:
            raise InputError(f"no global logarithm on {model.kind}")
        sizes = np.array([len(ts)] if counts is None else counts, dtype=np.intp)
        if len(sizes) == 0 or sizes.min() < 2 or sizes.sum() != len(ts):
            raise InputError("sample times must increase from 0 to 1")
        lasts = sizes.cumsum() - 1
        firsts = lasts - sizes + 1
        if not (abs(ts.take(firsts)).max() <= 1e-12 and abs(ts.take(lasts) - 1.0).max() <= 1e-12):
            raise InputError("sample times must increase from 0 to 1")
        ts[firsts], ts[lasts] = 0.0, 1.0
        return cls._from_nodes(model, ts, gs, firsts, lasts, counts is not None)

    @classmethod
    def _from_nodes(cls, model: GroupModel, ts, gs, firsts, lasts, batched: bool) -> "GroupPath":
        """The segment table through nodes ``gs`` at breakpoints ``ts``, both
        kept as given: path b owns the rows firsts[b] to lasts[b], whose times
        must run from exactly 0 to exactly 1.  Only the steps between them are
        checked, to be positive."""
        # a step joins each two consecutive nodes; the one from a path's last
        # node to the next path's first is dropped
        steps = np.empty(len(ts) - 1, dtype=bool)
        steps.fill(True)
        steps[lasts[:-1]] = False
        path = cls.__new__(cls)
        path.model, path.batched = model, batched
        path.offsets = np.zeros(len(lasts) + 1, dtype=np.intp)
        path.offsets[1:] = lasts - np.arange(len(lasts))  # path b ends after lasts[b] - b segments
        path._first = first = steps.nonzero()[0]  # the node starting each segment
        path._points = None
        path.durations = (ts[1:] - ts[:-1]).take(first)
        if not path.durations.min() > 0:  # NaN fails
            raise InputError("sample times must increase from 0 to 1")
        path.times, path.nodes, path.bases = ts, gs, gs.take(firsts, axis=0)
        # g_i^{-1} g_{i+1} is its own logarithm in the exponential chart
        path.directions = model.multiply(-gs[:-1], gs[1:]).take(first, axis=0) / path.durations[:, None]
        return path

    # -- batch structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _shaped(self, rows):
        """Per-path rows as returned to the caller: a single path drops the
        batch axis."""
        return rows if self.batched else rows[0]

    @property
    def base(self) -> np.ndarray:
        return self._shaped(self.bases)

    def counts(self) -> np.ndarray:
        """Number of segments of each path."""
        return self.offsets[1:] - self.offsets[:-1]

    def point_paths(self) -> np.ndarray:
        """Path of each breakpoint (row of ``times`` and ``nodes``)."""
        if self._points is None:
            self._points = np.arange(len(self)).repeat(self.counts() + 1)
        return self._points

    def ends(self) -> np.ndarray:
        """Endpoint of each path, shape (B, n) also for a single path."""
        return self.nodes.take(self.offsets[1:] + np.arange(len(self)), axis=0)

    def sum_segments(self, rows) -> np.ndarray:
        """Per-path sums of per-segment rows (a kernel's output), each added
        up in segment order, so a path's sum does not depend on the batch
        around it."""
        if len(rows) == len(self):  # one segment per path: the rows are the sums
            return self._shaped(rows)
        return self._shaped(np.add.reduceat(rows, self.offsets[:-1], axis=0))

    # -- evaluation --------------------------------------------------------

    def segment_index(self, ts, paths=None) -> np.ndarray:
        """Row of the segment table holding each parameter, clipped into its
        path's range; ``paths`` names the path of each parameter and is
        needed only when there are several."""
        ts = np.minimum(np.maximum(ts, 0.0), 1.0)
        if paths is None:
            if len(self) > 1:
                raise InputError("parameters on a batch of paths need the path of each")
            paths = np.zeros(len(ts), dtype=np.intp)
        paths = np.asarray(paths, dtype=np.intp)
        # merge breakpoints and parameters ordered by (path, value); lexsort is
        # stable, so a breakpoint comes before an equal parameter (searchsorted's
        # right side).  A parameter with i parameters before it at merged
        # position r has r - i breakpoints before it: all of the earlier
        # paths' and, up to it, from 1 to all of its own path's
        npts = len(self.times)
        order = np.lexsort((np.concatenate([self.times, ts]), np.concatenate([self.point_paths(), paths])))
        is_param = order >= npts
        below = np.empty(len(ts), dtype=np.intp)
        below[order[is_param] - npts] = is_param.nonzero()[0] - np.arange(len(ts))
        return np.minimum(below - paths - 1, self.offsets[1:][paths] - 1)

    def at_segments(self, ks, ts) -> np.ndarray:
        """Path points at parameters ``ts`` known to lie in segments ``ks``."""
        first = self._first.take(ks)
        s = (ts - self.times.take(first))[:, None]
        return self.model.multiply(self.nodes.take(first, axis=0), s * self.directions.take(ks, axis=0))

    def midpoints(self) -> np.ndarray:
        """Path point at the middle of each segment, in table order.  A path
        is affine in the chart on a segment, so this is the mean of the
        segment's two nodes, exact up to rounding in every coordinate that
        is not a circle.  A wrapped circle coordinate has no such midpoint,
        but no circle is the input of a bracket pair, so Ad* never reads
        one."""
        f = self._first
        return 0.5 * (self.nodes.take(f, axis=0) + self.nodes.take(f + 1, axis=0))

    def evaluate_many(self, ts, paths=None) -> np.ndarray:
        """Points at parameters ``ts``; ``paths`` names the path of each when
        there are several."""
        ts = np.asarray(ts, dtype=float)
        if len(ts) and (ts.min() < -1e-12 or ts.max() > 1.0 + 1e-12):
            raise InputError("path parameters outside [0, 1]")
        return self.at_segments(self.segment_index(ts, paths), ts)

    def endpoint(self) -> np.ndarray:
        return self._shaped(self.ends())

    def __repr__(self):
        if self.batched:
            return f"GroupPath({self.model!r}, {len(self)} paths, {len(self.durations)} segments)"
        return f"GroupPath({self.model!r}, {len(self.durations)} segments)"


def _union_grids(p: GroupPath, q: GroupPath):
    """Sample times for each pair of paths of p and q: the sorted, distinct
    union of both paths' breakpoints.  Returns the times, the segment rows of
    p and of q holding each, and the number of times per pair."""
    grid = np.concatenate([p.times, q.times])
    owner = np.concatenate([p.point_paths(), q.point_paths()])
    # one stable merge by (pair, time), p before q on ties.  The last of a run
    # of equal times has passed every breakpoint at or before it, both t = 0
    # starts included; a pair ends at 1 and the next starts at 0, so a run
    # stays in its pair
    order = np.lexsort((grid, owner))
    grid = grid.take(order)
    at_p = (order < len(p.times)).cumsum() - 1  # last breakpoint of p passed
    ends = np.empty(len(grid), dtype=bool)
    ends[-1] = True
    np.not_equal(grid[1:], grid[:-1], out=ends[:-1])
    ends = ends.nonzero()[0]
    grid, owner, at_p = grid.take(ends), owner.take(order.take(ends)), at_p.take(ends)
    # by the breakpoint invariant a pair's last time, and only it, is 1,
    # where both paths have passed their last breakpoint: its segments are
    # the ones before
    last = grid == 1.0
    kp = at_p - owner - last
    kq = ends - at_p - owner - 1 - last
    return grid, kp, kq, np.bincount(owner)


# endpoint bound of path_product: absolute at unit scale, relative beyond
_ENDPOINT_ABS, _ENDPOINT_REL = 1e-10, 1e-13


def path_product(p: GroupPath, q: GroupPath) -> GroupPath:
    """Piecewise-exponential representative of t -> p(t) q(t), pair by pair
    for batches of the same size.

    Both paths must be based at the identity of the same simply connected
    model.  The pointwise product is sampled once, at the union of both
    paths' breakpoints, and each step between samples is re-expressed through
    the left logarithm.  The breakpoint invariant of every path makes that
    union run strictly from exactly 0 to exactly 1 on each pair, so it is
    the product's breakpoints as it stands: the table is built from it
    without re-sampling or re-checking, only the product's steps checked to
    be positive.  The representative hits p(t) q(t) at every sample.  On a
    torus cover it is the pointwise product; on a nonabelian model it is
    homotopic to it with the ends fixed, which is all that the momentum map,
    the cocycle and the lifted action read.  Its endpoint differs from
    p(1) q(1) by rounding only.  A gap above
    max(1e-10, 1e-13 times the largest endpoint coordinate) raises
    NumericalError: the relative part covers coordinates far from unit scale,
    whose rounding alone exceeds an absolute bound.
    """
    model = p.model
    if q.model != model:
        raise InputError("path_product needs paths in the same model")
    if p.batched != q.batched or len(p) != len(q):
        raise InputError("path_product needs two single paths or two batches of the same size")
    if not model.is_simply_connected:
        raise InputError("path_product is defined on universal-cover models")
    if p.bases.any() or q.bases.any():
        if model.distance(np.concatenate([p.bases, q.bases]), model.identity()).max() > 1e-10:
            raise InputError("path_product needs identity-based paths")

    ts, kp, kq, counts = _union_grids(p, q)
    prods = model.multiply(p.at_segments(kp, ts), q.at_segments(kq, ts))
    lasts = counts.cumsum() - 1
    out = GroupPath._from_nodes(model, ts, prods, lasts - counts + 1, lasts, p.batched)
    target = model.multiply(p.ends(), q.ends())
    bound = np.maximum(_ENDPOINT_ABS, _ENDPOINT_REL * np.abs(target).max(axis=1))
    if not (model.distance(prods.take(lasts, axis=0), target) <= bound).all():
        raise NumericalError("path_product endpoint tolerance not met")
    return out


def concat_paths(p: GroupPath, q: GroupPath) -> GroupPath:
    """First traverse p on [0, 1/2], then q on [1/2, 1], pair by pair for
    batches of the same size.

    The result starts at p's base and carries q's velocities, which is q
    deck-translated so its start matches p's endpoint exactly; the inputs
    must already agree there up to that translation for the result to
    represent concatenation in the base group.
    """
    model = p.model
    if q.model != model:
        raise InputError("concat_paths needs paths in the same model")
    if p.batched != q.batched or len(p) != len(q):
        raise InputError("concat_paths needs two single paths or two batches of the same size")
    # compressing a leg into half the parameter window doubles its velocity
    # so each segment still covers the same arc
    cp, cq = p.counts(), q.counts()
    directions = _interleave(2.0 * p.directions, p.offsets[:-1], cp, 2.0 * q.directions, q.offsets[:-1], cq)
    durations = _interleave(0.5 * p.durations, p.offsets[:-1], cp, 0.5 * q.durations, q.offsets[:-1], cq)
    return GroupPath.from_table(model, directions, durations, p.base, cp + cq if p.batched else None)
