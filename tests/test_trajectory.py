import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privregion.core import Disk, Point, make_rng
from privregion.trajectory import (
    _WRITE_BLOCK,
    CutResult,
    MaxStepsExceeded,
    TrackFormatError,
    Trajectory,
    cut_privacy_region,
    default_exit_dt,
    read_track,
    simulate_brownian,
    simulate_exit_offsets,
    squared_perturbation,
    write_track,
)

UNIT = Disk(Point(0.0, 0.0), 1.0)


def track(*xy, t=None):
    pos = np.asarray(xy, dtype=float)
    times = np.arange(len(pos), dtype=float) if t is None else np.asarray(t, dtype=float)
    return Trajectory(times, pos)


class TestTrajectory:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.array([1.0, 0.5]), np.zeros((2, 2)))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.array([]), np.zeros((0, 2)))

    @pytest.mark.filterwarnings("error")
    def test_increasing_check_spans_the_float_range(self):
        # differencing -1.7e308 and 1.7e308 would overflow
        assert len(Trajectory(np.array([-1.7e308, 1.7e308]), np.zeros((2, 2)))) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [math.nan, 0.0]]))

    def test_samples_immutable(self):
        tr = track((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            tr.positions[0, 0] = 5.0
        with pytest.raises(ValueError):
            tr.times[0] = -1.0

    def test_slice_endpoints(self):
        tr = track((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))
        sub = tr.slice(1, 2)
        assert len(sub) == 2
        assert sub.start == Point(1.0, 0.0)
        assert sub.end == Point(2.0, 0.0)
        with pytest.raises(IndexError):
            tr.slice(2, 4)

    def test_cut_result_consistency(self):
        with pytest.raises(ValueError):
            CutResult(None, 3.0, None, None)
        with pytest.raises(ValueError):
            CutResult(track((0.0, 0.0)), math.inf, 0.0, 0.0)


class TestSimulateBrownian:
    def test_zero_steps_is_start_only(self, rng):
        tr = simulate_brownian(Point(2.0, -1.0), 1.0, 0.1, 0, rng)
        assert len(tr) == 1
        assert tr.start == Point(2.0, -1.0)

    def test_increment_moments(self, rng):
        sigma2, dt = 0.8, 0.05
        tr = simulate_brownian((0.0, 0.0), sigma2, dt, 40_000, rng)
        incr = np.diff(tr.positions, axis=0).ravel()
        v = sigma2 * dt
        # var of the sample variance of n normals is ~ 2 v^2 / n
        tol = 5.0 * v * math.sqrt(2.0 / incr.size)
        assert abs(incr.var() - v) < tol
        assert abs(incr.mean()) < 5.0 * math.sqrt(v / incr.size)

    def test_time_grid(self, rng):
        tr = simulate_brownian((0.0, 0.0), 1.0, 0.25, 4, rng)
        assert np.array_equal(tr.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))

    def test_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            simulate_brownian((0.0, 0.0), 0.0, 0.1, 1, rng)
        with pytest.raises(ValueError):
            simulate_brownian((0.0, 0.0), 1.0, 0.1, -1, rng)


class TestDefaultExitDt:
    def test_policy_value(self):
        assert default_exit_dt(2.0, 0.5) == pytest.approx(1e-4 * 4.0 / 0.5)

    def test_elementwise_on_arrays(self):
        radii = np.array([1.0, 3.0])
        dts = default_exit_dt(radii, 2.0)
        assert np.allclose(dts, 1e-4 * radii**2 / 2.0)


class TestSimulateUntilExit:
    def test_exit_sample_is_first_outside(self, rng):
        # each path stops at its first sample outside its own disk
        starts = np.array([[0.0, 0.0], [0.5, -0.2], [3.0, 1.0]])
        radii = np.array([1.0, 0.8, 4.0])
        out = simulate_exit_offsets(starts, radii, 1.0, 1e-3, 1_000_000, rng)
        d = np.hypot(out[:, 0], out[:, 1])
        assert np.all(d > radii)
        assert np.all(d < radii + 10.0 * math.sqrt(1e-3))

    def test_overshoot_small_at_fine_dt(self, rng):
        dt = default_exit_dt(1.0, 1.0)
        out = simulate_exit_offsets(np.zeros((200, 2)), np.ones(200), 1.0, dt, 1_000_000, rng)
        mean_r = float(np.hypot(out[:, 0], out[:, 1]).mean())
        # overshoot is O(sqrt(sigma2 dt)) = 0.01 here
        assert 1.0 < mean_r < 1.05

    def test_exit_mean_matches_start(self, rng):
        # Optional stopping: the exit position has mean equal to the start.
        start = np.tile([0.5, 0.0], (4000, 1))
        out = simulate_exit_offsets(start, np.ones(4000), 1.0, 1e-4, 10**6, rng)
        se = out.std(axis=0) / math.sqrt(len(out))
        assert np.all(np.abs(out.mean(axis=0) - [0.5, 0.0]) < 5.0 * se)

    def test_start_on_boundary_rejected(self, rng):
        starts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            simulate_exit_offsets(starts, np.ones(2), 1.0, 1e-3, 100, rng)

    def test_offsets_budget_guard(self, rng):
        with pytest.raises(MaxStepsExceeded):
            simulate_exit_offsets(np.zeros((4, 2)), np.full(4, 1e6), 1.0, np.full(4, 1e-3), 10, rng)


class TestCutting:
    def test_middle_window(self):
        tr = track((0.0, 0.0), (0.5, 0.0), (2.0, 0.0), (3.0, 0.0), (0.2, 0.0))
        cut = cut_privacy_region(tr, UNIT)
        assert cut.t1 == 2.0 and cut.t2 == 3.0
        assert np.array_equal(cut.published.positions, tr.positions[2:4])
        assert cut.sp == pytest.approx((2.0 - 0.0) ** 2 + (3.0 - 0.2) ** 2)

    def test_all_inside_publishes_nothing(self):
        tr = track((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))
        cut = cut_privacy_region(tr, UNIT)
        assert cut.published is None
        assert math.isinf(cut.sp)
        assert cut.t1 is None and cut.t2 is None

    def test_start_outside_keeps_head(self):
        tr = track((2.0, 0.0), (0.1, 0.0), (3.0, 0.0))
        cut = cut_privacy_region(tr, UNIT)
        assert cut.t1 == 0.0 and cut.t2 == 2.0
        assert len(cut.published) == 3
        assert cut.sp == 0.0

    def test_boundary_sample_stays_private(self):
        # Exactly on the boundary counts as inside.
        tr = track((0.0, 0.0), (1.0, 0.0), (0.0, 0.0))
        assert cut_privacy_region(tr, UNIT).published is None

    def test_cut_idempotent(self, rng):
        tr = simulate_brownian((0.2, 0.1), 1.0, 0.01, 400, rng)
        cut = cut_privacy_region(tr, UNIT)
        if cut.published is None:
            pytest.skip("path never left the region")
        again = cut_privacy_region(cut.published, UNIT)
        assert again.t1 == cut.t1 and again.t2 == cut.t2
        assert np.array_equal(again.published.positions, cut.published.positions)


class TestSquaredPerturbation:
    def test_identity_is_zero(self):
        tr = track((1.0, 2.0), (3.0, 4.0))
        assert squared_perturbation(tr, tr) == 0.0

    def test_one_sided_displacement(self):
        orig = track((0.0, 0.0), (3.0, 4.0), (10.0, 0.0))
        assert squared_perturbation(orig.slice(1, 2), orig) == pytest.approx(25.0)

    def test_none_is_infinite(self):
        assert math.isinf(squared_perturbation(None, track((0.0, 0.0))))

    def test_altered_sample_is_infinite(self):
        orig = track((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        fake = Trajectory(orig.times[1:], np.array([[1.0, 0.1], [2.0, 0.0]]))
        assert math.isinf(squared_perturbation(fake, orig))

    def test_foreign_times_are_infinite(self):
        orig = track((0.0, 0.0), (1.0, 0.0))
        fake = Trajectory(np.array([0.25]), np.array([[0.0, 0.0]]))
        assert math.isinf(squared_perturbation(fake, orig))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9), st.integers())
    def test_cut_reports_its_own_sp(self, i0, i1, seed):
        rng = make_rng(abs(seed) % 2**32)
        tr = Trajectory(
            np.arange(10, dtype=float), rng.normal(0.0, 1.2, size=(10, 2))
        )
        cut = cut_privacy_region(tr, UNIT)
        assert cut.sp == squared_perturbation(cut.published, tr)
        # any genuine restriction has finite SP
        lo, hi = min(i0, i1), max(i0, i1)
        assert math.isfinite(squared_perturbation(tr.slice(lo, hi), tr))


class TestTrackIo:
    def test_round_trip_exact(self, rng, tmp_path):
        tr = simulate_brownian((0.3, -0.7), 1.0, 1.0 / 3.0, 50, rng)
        path = tmp_path / "track.csv"
        write_track(tr, path)
        back = read_track(path)
        assert np.array_equal(back.times, tr.times)
        assert np.array_equal(back.positions, tr.positions)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,x,y\n0,0,0\n")
        with pytest.raises(TrackFormatError, match="header"):
            read_track(p)

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y\n0.0,1.0,2.0\n1.0,oops,2.0\n")
        with pytest.raises(TrackFormatError, match=r"bad\.csv:3"):
            read_track(p)

    def test_field_count_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y\n0.0,1.0\n")
        with pytest.raises(TrackFormatError, match="3 fields"):
            read_track(p)

    def test_empty_track_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("t,x,y\n")
        with pytest.raises(TrackFormatError, match="no samples"):
            read_track(p)


def reference_read_track(path) -> Trajectory:
    """The per-line parser ``read_track`` used before its loadtxt rewrite."""
    times: list[float] = []
    coords: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [col.strip() for col in header.split(",")] != ["t", "x", "y"]:
            raise TrackFormatError(f"{path}:1: expected header 't,x,y', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise TrackFormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                t, x, y = (float(v) for v in parts)
            except ValueError as exc:
                raise TrackFormatError(f"{path}:{lineno}: {exc}") from None
            times.append(t)
            coords.append((x, y))
    if not times:
        raise TrackFormatError(f"{path}: track has no samples")
    try:
        return Trajectory(np.array(times), np.array(coords))
    except ValueError as exc:
        raise TrackFormatError(f"{path}: {exc}") from None


def read_outcome(reader, path):
    """("ok", bit patterns) for an accepted track, ("error", message) otherwise."""
    try:
        tr = reader(path)
    except TrackFormatError as exc:
        return ("error", str(exc))
    return ("ok", tr.times.view(np.int64).tolist(), tr.positions.view(np.int64).tolist())


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("track_io")


_PAD = st.sampled_from(["", " ", "\t", " \t "])
_FIELD = st.one_of(
    st.sampled_from(["+1.5", ".5", "5.", "1e5", "1E-3", "-0", "-0.0", "0", "1.50", "-7"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_BAD_LINE = st.sampled_from(
    [
        "# note",
        "0,0,1 # note",
        '"1",2,3',
        "1,2",
        "1,2,3,4",
        "1,2,3,",
        "oops,1,2",
        "0x10,1,2",
        "1;2;3",
        "9,inf,0",
        "9,0,-Infinity",
        "9,nan,0",
    ]
)


@st.composite
def track_texts(draw):
    """A track file mixing valid rows with blank, padded and malformed lines."""
    lines = [draw(st.sampled_from(["t,x,y", " t , x , y "]))]
    i = 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 2 + ["bad", "back"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif kind == "bad":
            lines.append(draw(_BAD_LINE))
        else:
            # "back" repeats an earlier time: a non-increasing track
            i = i - 2 if kind == "back" else i + 1
            spellings = [f"{i}", f"+{i}", f"{i}.", f"{i}.50", f"{i}e0", f"{10 * i}e-1"]
            t = draw(st.sampled_from(spellings))
            fields = [t, draw(_FIELD), draw(_FIELD)]
            lines.append(",".join(draw(_PAD) + f + draw(_PAD) for f in fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestReadTrackMatchesLineParser:
    @given(text=track_texts())
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_reference(self, io_dir, text):
        p = io_dir / "diff.csv"
        # unlink, not truncate: ext4 flushes a truncated file's data on close
        p.unlink(missing_ok=True)
        p.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_track, p) == read_outcome(reference_read_track, p)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0,1,2\n1,1_0,2\n", 3),  # digit underscore: float() reads 10.0
            ("0,1,2\n\n1,2,٣\n", 4),  # ARABIC-INDIC DIGIT THREE: float() reads 3.0
            ("0,1,2\n \n1,1_0,2\n", 4),  # the same through the whitespace-line path
        ],
    )
    def test_python_only_spellings_rejected_with_line(self, io_dir, body, line):
        p = io_dir / "bad.csv"
        p.write_text("t,x,y\n" + body, encoding="utf-8")
        assert read_outcome(reference_read_track, p)[0] == "ok"
        with pytest.raises(TrackFormatError, match=rf"bad\.csv:{line}: could not convert"):
            read_track(p)

    def test_separator_controls_next_to_a_comma_are_whitespace(self, io_dir):
        # loadtxt strips U+001C..U+001F like whitespace; float() refused them
        p = io_dir / "fs.csv"
        p.write_text("t,x,y\n0,1\x1c,2\n", encoding="utf-8")
        assert read_outcome(reference_read_track, p)[0] == "error"
        tr = read_track(p)
        assert tr.positions.tolist() == [[1.0, 2.0]]

    def test_whitespace_only_lines_are_skipped(self, io_dir):
        p = io_dir / "ws.csv"
        p.write_bytes(b"t,x,y\r\n0, 1.50 ,-0.0\r\n \t \r\n\r\n1,2,3\r\n")
        tr = read_track(p)
        assert tr.times.tolist() == [0.0, 1.0]
        assert tr.positions.view(np.int64).tolist() == read_outcome(reference_read_track, p)[2]


_EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7e308,
    -1.7e308,
    1.7976931348623157e308,
    1e-4,  # repr switches to exponent notation below 1e-4 ...
    9.999999999999999e-05,
    1.0000000000000002e-4,
    1e16,  # ... and from 1e16 up
    9999999999999998.0,
    1.0000000000000002e16,
]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def finite_tracks(draw):
    times = sorted(draw(st.lists(_FINITE, min_size=1, max_size=30, unique=True)))
    xy = draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=len(times), max_size=len(times)))
    return Trajectory(np.array(times), np.array(xy).reshape(-1, 2))


def expected_text(tr: Trajectory) -> str:
    rows = zip(tr.times.tolist(), tr.positions.tolist())
    return "t,x,y\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, (x, y) in rows)


def assert_bit_exact(a: Trajectory, b: Trajectory) -> None:
    assert np.array_equal(a.times.view(np.int64), b.times.view(np.int64))
    assert np.array_equal(a.positions.view(np.int64), b.positions.view(np.int64))


class TestWriteTrackFormat:
    @given(tr=finite_tracks())
    @settings(max_examples=200, deadline=None)
    def test_rows_are_float_reprs(self, io_dir, tr):
        p = io_dir / "out.csv"
        write_track(tr, p)
        assert p.read_bytes() == expected_text(tr).encode("utf-8")
        assert_bit_exact(read_track(p), tr)

    @pytest.mark.parametrize(
        "n", [1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 3 * _WRITE_BLOCK]
    )
    def test_block_boundaries(self, io_dir, n):
        rng = make_rng(n)
        pos = rng.normal(0.0, 1e3, size=(n, 2))
        pos[::5, 0] = -0.0
        pos[1::7, 1] = rng.choice(_EDGE_FLOATS, size=len(pos[1::7]))
        tr = Trajectory(np.arange(n) * 0.1 - 3.0, pos)
        p = io_dir / f"block{n}.csv"
        write_track(tr, p)
        text = p.read_text(encoding="utf-8")
        assert text == expected_text(tr)
        assert text.count("\n") == n + 1
        assert_bit_exact(read_track(p), tr)


class TestExitLawAgainstExact:
    def test_simulated_exits_approach_exact_law(self, rng):
        # Angles of simulated exits from an off-center start vs the exact
        # law sampled independently; two-sample KS at a fixed seed.
        from privregion.harmonic import sample_exit_offsets

        n = 1500
        start = np.tile([0.5, 0.0], (n, 1))
        dt = default_exit_dt(1.0, 1.0)
        sim = simulate_exit_offsets(start, np.ones(n), 1.0, dt, 10**6, rng)
        exact = sample_exit_offsets(start, np.ones(n), n, rng)
        res = stats.ks_2samp(np.arctan2(sim[:, 1], sim[:, 0]), np.arctan2(exact[:, 1], exact[:, 0]))
        assert res.pvalue > 0.01
