"""The flat-gather field lookup against the fancy-indexing lookup.

``reference_locate``, ``reference_interp_slice`` and ``reference_lookup``
are the kernel's lookup as it was written before it gathered corners with
``take`` on the raveled slice: every corner's weight product and index
tuple rebuilt for each read.  The reference blends the two bracketing
time slices into one, ``S0 + wt (S1 - S0)``, and interpolates on that
slice; it blended the two slices' interpolated values until the kernel
made one slice per read.  They are kept here, not in the package, as the
oracle the flat gather must reproduce bit for bit, NaN and signed zeros
included.  A reserve-rule period's read (``lookup_recorded``) is checked
against the same blend of two reference lookups.

``flat_gather_lookup`` is the flat gather as it was before it made that
slice: both bracketing slices gathered, then blended.  On a stored time
(``wt == 0``) one slice gives the value, and the kernel must still
reproduce it bit for bit there.
"""

from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde.gridio import read_grid, write_grid
from carbon_fbsde.model import make_cap_msr
from carbon_fbsde.pde_kernel import (_SLACK, FieldReader, ValueGrid, _locate,
                                     _query_axes, _time_bracket, lookup,
                                     lookup_recorded, recorded_shifts)

# the second cap of the ``two-period-msr`` preset
_, RESERVE_CAP = make_cap_msr(0.6, 0.6, 0.18, 0.72, 0.12, 0.88)


def reference_locate(nodes: np.ndarray, x):
    """Uniform-grid bracketing indices, weights and in-range mask."""
    pos = (np.asarray(x, dtype=float) - nodes[0]) / (nodes[1] - nodes[0])
    ok = (pos >= -_SLACK) & (pos <= nodes.size - 1 + _SLACK)
    i = np.clip(np.floor(pos).astype(np.int64), 0, nodes.size - 2)
    w = np.clip(pos - i, 0.0, 1.0)
    return i, w, ok, pos


def reference_interp_slice(S: np.ndarray, located):
    """Multilinear interpolation on one stored time slice."""
    acc = 0.0
    for corner in product((0, 1), repeat=len(located)):
        w = 1.0
        idx = []
        for (i, wt), c in zip(located, corner):
            w = w * (wt if c else (1.0 - wt))
            idx.append(i + c)
        acc = acc + w * S[tuple(idx)]
    return acc


def reference_lookup(grid: ValueGrid, t: float, p, e):
    """Multilinear field value at time ``t`` with an in-box mask.

    ``t`` is clamped to ``[t0, tau]``; the stored time axis may hold
    one shorter remainder step, so its bracket comes from a search.
    Points outside the spatial box are clamped onto it for the value and
    marked ``False`` in the mask; the caller decides what that means.
    Returns ``(value, in_box)``.
    """
    times = grid.times
    t = min(max(t, times[0]), times[-1])
    it = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
    wt = min(max((t - times[it]) / (times[it + 1] - times[it]), 0.0), 1.0)

    located, in_box = [], True
    for _, nodes, x in _query_axes(grid, p, e):
        i, w, ok, _ = reference_locate(nodes, x)
        located.append((i, w))
        in_box = in_box & ok
    S = grid.values[it]
    if wt > 0.0:
        S = S + wt * (grid.values[it + 1] - S)
    return reference_interp_slice(S, located), in_box


def flat_gather_lookup(grid: ValueGrid, t: float, p, e):
    """``lookup`` as it was when it gathered both bracketing slices: the
    ``2^d`` corner weights and flat offsets once, each slice gathered
    corner by corner with ``take``, the two values blended in time."""
    it, wt = _time_bracket(grid.times, t)
    shape = grid.values.shape[1:]
    stride = int(np.prod(shape))
    base, corners, in_box = 0, [(1.0, 0)], True
    for (_, nodes, x), n in zip(_query_axes(grid, p, e), shape):
        stride //= n
        i, w, ok, _ = _locate(nodes, x)
        base += i * stride
        corners = [(wc * a, oc + c) for wc, oc in corners
                   for a, c in ((1.0 - w, 0), (w, stride))]
        in_box = in_box & ok

    def gather(S):
        flat, acc = S.ravel(), 0.0
        for wc, oc in corners:
            term = flat.take(base + oc)
            term *= wc
            acc += term
        return acc

    value = gather(grid.values[it])
    if wt > 0.0:
        later = gather(grid.values[it + 1])
        value *= 1.0 - wt
        later *= wt
        value += later
    return value, in_box


def reference_lookup_recorded(grid: ValueGrid, t: float, p, e, ep):
    """The reserve-rule read: the field moved by the cap at each of the two
    emissions nodes that bracket ``ep``, blended linearly in ``ep``; the
    mask is that of ``p``, ``e`` and ``ep``."""
    j, theta, ep_ok, _ = reference_locate(grid.e_nodes, ep)
    level = grid.meta["cap_level"]
    below, _ = reference_lookup(grid, t, p, e - (RESERVE_CAP.level(grid.e_nodes[j]) - level))
    above, _ = reference_lookup(grid, t, p,
                                e - (RESERVE_CAP.level(grid.e_nodes[j + 1]) - level))
    _, in_box = reference_lookup(grid, t, p, e)
    return (1.0 - theta) * below + theta * above, in_box & ep_ok


def read(grid, t, p, e, ep):
    """``lookup``, or the reserve-rule read when ``ep`` is given."""
    if ep is None:
        return lookup(grid, t, p, e)
    return lookup_recorded(grid, t, p, e, recorded_shifts(grid, RESERVE_CAP, ep))


def reference_read(grid, t, p, e, ep):
    """:func:`read` by the reference lookups."""
    if ep is None:
        return reference_lookup(grid, t, p, e)
    return reference_lookup_recorded(grid, t, p, e, ep)


def _grid(kind: str, seed: int = 7) -> ValueGrid:
    """Small grid of the given layout with values that stress the sum:
    signs, exact zeros of both signs, ones and a wide magnitude range.  The
    ``recorded`` grid is a reserve-rule period solved at the cap 0.5."""
    rng = np.random.default_rng(seed)
    # one shorter step first, as the solver stores a remainder step
    times = np.concatenate([[0.0], 0.03 + np.arange(6) * 0.09])
    e_nodes = np.linspace(-1.0, 1.5, 12)
    p_nodes = np.linspace(-2.0, 2.0, 5) if kind == "factor" else None
    shape = (times.size,) + ((5,) if p_nodes is not None else ()) + (12,)
    values = rng.uniform(-0.5, 1.5, shape) * 10.0 ** rng.integers(-3, 4, shape)
    special = rng.choice([0.0, -0.0, 1.0, np.nan], shape)
    values = np.where(rng.random(shape) < 0.25, special, values)
    values[2] = -0.0  # a slice of negative zeros: a lone -0.0 sum reads +0.0
    return ValueGrid(times=times, e_nodes=e_nodes, values=values, rate=0.0,
                     p_nodes=p_nodes,
                     meta={"cap_level": 0.5} if kind == "recorded" else {})


GRIDS = {kind: _grid(kind) for kind in ("plain", "factor", "recorded")}

# unit coordinate along an axis: inside, on a node, outside the box, or NaN
UNIT = st.one_of(
    st.floats(-0.4, 1.4),
    st.integers(0, 12).map(lambda k: k / 12.0),
    st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12, -0.0, float("nan")]),
)


@st.composite
def times_of(draw, grid):
    times = grid.times
    k = draw(st.integers(0, times.size - 1))
    where = draw(st.sampled_from(["node", "between", "past", "before"]))
    if where == "node":
        return float(times[k])
    if where == "between":
        k = min(k, times.size - 2)
        return float(times[k] + draw(st.floats(0.0, 1.0)) * (times[k + 1] - times[k]))
    gap = draw(st.floats(1e-12, 2.0))
    return grid.tau + gap if where == "past" else grid.t0 - gap


def _bits(v):
    """Float bits with every NaN folded onto one pattern."""
    v = np.asarray(v, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


def _queries(grid, units, shape):
    """Map unit coordinates onto the grid's axes as scalars or arrays; the
    recorded emissions ``ep`` of a reserve-rule grid range over its
    emissions axis."""
    recorded = "cap_level" in grid.meta
    axes = (([grid.p_nodes] if grid.has_p else []) + [grid.e_nodes]
            + ([grid.e_nodes] if recorded else []))
    coords = []
    for k, nodes in enumerate(axes):
        x = nodes[0] + np.array([u[k] for u in units]) * (nodes[-1] - nodes[0])
        if shape == "scalar" or (shape == "mixed" and k == 0):
            x = float(x[0])
        coords.append(x)
    p = coords.pop(0) if grid.has_p else None
    e = coords.pop(0)
    ep = coords.pop(0) if recorded else None
    return p, e, ep


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(GRIDS)),
       shape=st.sampled_from(["scalar", "array", "mixed"]))
def test_lookup_matches_the_fancy_index_lookup_bit_for_bit(data, kind, shape):
    grid = GRIDS[kind]
    t = data.draw(times_of(grid))
    units = data.draw(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=12))
    p, e, ep = _queries(grid, units, shape)

    with np.errstate(invalid="ignore"):  # NaN queries cast to an index
        value, in_box = read(grid, t, p, e, ep)
        ref_value, ref_in_box = reference_read(grid, t, p, e, ep)
    assert np.array_equal(value, ref_value, equal_nan=True)
    assert np.array_equal(_bits(value), _bits(ref_value))
    assert np.array_equal(in_box, ref_in_box)
    assert np.shape(value) == np.shape(ref_value)
    assert type(value) is type(ref_value)


@st.composite
def node_times_of(draw, grid):
    """A stored time, or one before ``t0`` (clamped onto it): ``wt == 0``."""
    if draw(st.booleans()):
        return grid.t0 - draw(st.floats(1e-12, 2.0))
    return float(grid.times[draw(st.integers(0, grid.times.size - 2))])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(GRIDS)),
       shape=st.sampled_from(["scalar", "array", "mixed"]))
def test_a_read_on_a_stored_time_is_the_flat_gather_bit_for_bit(data, kind, shape):
    """No blend where one slice gives the value: the start price, a date's
    settlement and its left value read exactly what they read before."""
    grid = GRIDS[kind]
    t = data.draw(node_times_of(grid))
    assert _time_bracket(grid.times, t)[1] == 0.0
    units = data.draw(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=12))
    p, e, ep = _queries(grid, units, shape)
    with np.errstate(invalid="ignore"):
        if ep is None:
            value, in_box = lookup(grid, t, p, e)
            ref_value, ref_in_box = flat_gather_lookup(grid, t, p, e)
        else:
            theta, lo, hi, ep_ok = recorded_shifts(grid, RESERVE_CAP, ep)
            value, in_box = lookup_recorded(grid, t, p, e, (theta, lo, hi, ep_ok))
            ref_value, _ = flat_gather_lookup(grid, t, p, e - lo)
            upper, _ = flat_gather_lookup(grid, t, p, e - hi)
            ref_value *= 1.0 - theta
            upper *= theta
            ref_value += upper
            ref_in_box = flat_gather_lookup(grid, t, p, e)[1] & ep_ok
    assert np.array_equal(_bits(value), _bits(ref_value))
    assert np.array_equal(in_box, ref_in_box)
    assert type(value) is type(ref_value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(GRIDS)))
def test_a_reader_sharing_slices_and_factor_places_reads_what_lookup_reads(data, kind):
    """A run of reads through one :class:`FieldReader`, as a ``simulate``
    pass makes them: the factor placed once for several reads, times that
    repeat (a shared slice) or move on, emissions new at every read.  Each
    read equals a fresh ``lookup`` (or ``lookup_recorded``) bit for bit."""
    grid = GRIDS[kind]
    n = data.draw(st.integers(1, 8))
    units = data.draw(st.lists(st.tuples(UNIT, UNIT), min_size=n, max_size=n))
    p, e, ep = _queries(grid, units, "array")
    shifts = None if ep is None else recorded_shifts(grid, RESERVE_CAP, ep)
    reader = FieldReader(grid, shifts)
    at = reader.locate(p)
    t = data.draw(times_of(grid))
    with np.errstate(invalid="ignore"):
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                t = data.draw(times_of(grid))
            if data.draw(st.booleans()):
                p, _, _ = _queries(grid, data.draw(st.lists(
                    st.tuples(UNIT, UNIT), min_size=n, max_size=n)), "array")
                at = reader.locate(p)
            _, e, _ = _queries(grid, data.draw(st.lists(
                st.tuples(UNIT, UNIT), min_size=n, max_size=n)), "array")
            value, in_box = reader.read(t, at, e)
            ref_value, ref_in_box = (lookup(grid, t, p, e) if shifts is None
                                     else lookup_recorded(grid, t, p, e, shifts))
            assert np.array_equal(_bits(value), _bits(ref_value))
            assert np.array_equal(in_box, ref_in_box)


@pytest.mark.parametrize("kind", ["factor"])
def test_a_swapped_corner_order_shows_in_the_bits(kind):
    """The bit-for-bit check above can see the corner order: the reference
    summing the same terms last corner first disagrees somewhere.  (With
    one spatial axis the two terms commute, so any order agrees.)"""
    grid = GRIDS[kind]
    rng = np.random.default_rng(3)
    finite = ValueGrid(times=grid.times, e_nodes=grid.e_nodes,
                       values=rng.uniform(0.0, 1.0, grid.values.shape), rate=0.0,
                       p_nodes=grid.p_nodes)
    p, e, _ = _queries(finite, rng.uniform(0.0, 1.0, (256, 2)), "array")
    t = 0.5 * (finite.times[3] + finite.times[4])
    value, _ = lookup(finite, t, p, e)
    assert np.array_equal(value, reference_lookup(finite, t, p, e)[0])

    def swapped(corner, repeat, in_order=product):
        return list(in_order(corner, repeat=repeat))[::-1]

    with mock.patch(f"{__name__}.product", swapped):
        assert not np.array_equal(value, reference_lookup(finite, t, p, e)[0])


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_a_ring_of_slices_reads_what_the_whole_grid_reads(tmp_path, kind):
    """``lookup`` (or, on the reserve-rule grid, ``lookup_recorded``) on a
    streamed grid, whose ``values`` keep only the last two
    slices read, lands on the whole grid's bracket and bits: on every node,
    where one slice gives the value, between nodes, and clamped past both
    ends."""
    grid = GRIDS[kind]
    path = tmp_path / "grid"
    write_grid(grid, path)
    times = grid.times.tolist()
    queries = sorted([grid.t0 - 1.0, grid.tau + 1.0, *times,
                      *(0.5 * (a + b) for a, b in zip(times, times[1:]))])
    p, e, ep = _queries(grid, np.random.default_rng(5).uniform(-0.1, 1.1, (64, 2)),
                        "array")
    with np.errstate(invalid="ignore"):  # NaN values in the grid
        streamed = read_grid(path, scan=lambda ring: [read(ring, t, p, e, ep)
                                                      for t in queries], ring=2)
        for t, (value, in_box) in zip(queries, streamed):
            ref_value, ref_in_box = read(grid, t, p, e, ep)
            assert np.array_equal(_bits(value), _bits(ref_value)), t
            assert np.array_equal(in_box, ref_in_box)


def test_a_slice_that_left_the_ring_is_refused(tmp_path):
    path = tmp_path / "grid"
    write_grid(GRIDS["plain"], path)
    with pytest.raises(RuntimeError, match="read and dropped"):
        read_grid(path, scan=lambda ring: (ring.values[3], ring.values[1]), ring=2)
