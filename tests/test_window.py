"""The quiescent-region window: selection, bounds, and what a windowed run
keeps of the whole-mesh path (one test per guarantee of `bpdg.window`)."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bpdg import cli
from bpdg.cli import RunConfig, parse_config, run
from bpdg.decomposition import optimal_2d, speed_ratios
from bpdg.dg_core import (
    OUTFLOW,
    PERIODIC,
    SSPRK3,
    Basis2D,
    InflowSegment,
    Mesh2D,
    global_max_speeds,
    point_values,
    project,
    ssp_step,
    step_controller,
)
from bpdg.limiters import LimiterChain, build_node_set
from bpdg.physics import AdmissibilityError, EulerModel
from bpdg.quadrature import gauss_rule
from bpdg.window import THRESHOLD_C, Quiescence, Window

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
EPS = np.finfo(float).eps
AMBIENT = (5.0, 0.0, 0.0, 0.4127)
# the Mach 80 desk jet on 40 x 20 cells: 20 steps
JET = replace(parse_config(CONFIG_DIR / "mach80_jet_desk.cfg"), nx=40, ny=20, t_end=0.0046)


def _whole_mesh(monkeypatch):
    """Set every window to the full mesh: the run steps the field itself."""
    monkeypatch.setattr(Quiescence, "window", lambda self, field, last=None: None)


def _run(cfg, tmp_path, monkeypatch, whole=False):
    """The report and final coefficients of a run of `cfg`, windowed or (`whole`) not."""
    final = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_field_csv", lambda path, field: final.append(field.coeffs.copy()))
        if whole:
            _whole_mesh(patch)
        report = run(replace(cfg, out_dir=str(tmp_path / ("whole" if whole else "window"))))
    return report, final[-1]


def _record_windows(monkeypatch):
    """Record each step's start coefficients and the window it was stepped on."""
    starts = []
    window = Quiescence.window

    def recorded(self, field, last=None):
        cut = window(self, field, last)
        starts.append((field.coeffs.copy(), cut))
        return cut

    monkeypatch.setattr(Quiescence, "window", recorded)
    return starts


def _uniform(mesh, k=2):
    model = EulerModel()
    return project(model.conserved(*AMBIENT), mesh, Basis2D(k), model)


def _outflow_mesh(nx=20, ny=12, **bcs):
    sides = dict(bc_left=OUTFLOW, bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    return Mesh2D(0.0, 2.0, -0.5, 0.5, nx, ny, **{**sides, **bcs})


def _disturbed(cells, stages=3):
    """A uniform field with the density of `cells` raised, and the
    `Quiescence` of the uniform field."""
    field = _uniform(_outflow_mesh())
    quiescence = Quiescence.of(field, stages)
    for i, j in cells:
        field.coeffs[i, j, 0, 0] *= 1.5
    return field, quiescence


# ------------------------------------------------------------ whole runs


def test_windowed_jet_matches_the_whole_mesh_path(tmp_path, monkeypatch):
    starts = _record_windows(monkeypatch)
    win, u_win = _run(JET, tmp_path, monkeypatch)
    whole, u_whole = _run(JET, tmp_path, monkeypatch, whole=True)
    assert win.steps == whole.steps == 20 and win.t_final == whole.t_final
    assert win.limiting.cells_limited == whole.limiting.cells_limited > 0
    assert win.limiting.troubled_cells == whole.limiting.troubled_cells > 0
    assert not win.bp_violation
    # every step stepped a window short of the mesh, on average under half of it
    cells = JET.nx * JET.ny
    shares = [cut.nx * cut.ny / cells for _, cut in starts if cut is not None]
    assert len(shares) == win.steps and np.mean(shares) < 0.5
    # the means agree to round-off: within the threshold's relative size,
    # 64 eps, of each component's largest mean
    mean_win, mean_whole = u_win[:, :, 0], u_whole[:, :, 0]
    scale = np.abs(mean_whole).max(axis=(0, 1))
    assert np.all(np.abs(mean_win - mean_whole).max(axis=(0, 1)) <= THRESHOLD_C * EPS * scale)


def test_windowed_report_reduces_every_steps_full_field(tmp_path, monkeypatch):
    """A windowed run reduces the means, and checks them against the region,
    over the initial field and then over each step's window only: that
    equals the same reductions over every step's full field, since a frozen
    cell keeps the bits it had when it was last reduced."""
    starts = _record_windows(monkeypatch)
    report, final = _run(JET, tmp_path, monkeypatch)
    # each step's start field (the first is the initial one), then the last
    means = np.stack([coeffs[:, :, 0] for coeffs, _ in starts] + [final[:, :, 0]])
    assert len(means) == report.steps + 1 and all(cut is not None for _, cut in starts)
    np.testing.assert_array_equal(report.min_mean, means.min(axis=(0, 1, 2)))
    np.testing.assert_array_equal(report.max_mean, means.max(axis=(0, 1, 2)))
    assert report.bp_violation == (not EulerModel(JET.gamma).region.contains(means).all())


def test_a_windowed_step_leaves_the_cells_outside_its_window_bit_unchanged(tmp_path, monkeypatch):
    """Frozen cells keep their bits, and so stay admissible."""
    starts = _record_windows(monkeypatch)
    report, final = _run(JET, tmp_path, monkeypatch)
    ends = [coeffs for coeffs, _ in starts[1:]] + [final]
    region = EulerModel(JET.gamma).region
    for (before, cut), after in zip(starts, ends):
        outside = np.ones(before.shape[:2], dtype=bool)
        outside[cut.cells] = False
        assert outside.any()
        np.testing.assert_array_equal(after[outside], before[outside])
        assert region.contains(after[outside][:, 0]).all()
    assert len(starts) == report.steps


def test_windowed_run_evaluates_each_rk_state_once(monkeypatch):
    """As the whole-mesh path does, plus one evaluation of each new window:
    a window of other cells is another state, the values the last limiting
    returned are not its values.  The set-up's one evaluation is on the
    first window, and step 1 reads the values its limiting returned."""
    calls = []
    stacked = Basis2D.stacked_values

    def counted(self, coeffs):
        calls.append(coeffs.shape)
        return stacked(self, coeffs)

    monkeypatch.setattr(Basis2D, "stacked_values", counted)
    starts = _record_windows(monkeypatch)
    run(JET, write_outputs=False)
    windows = [cut for _, cut in starts]
    moved = sum(a != b for a, b in zip(windows, windows[1:]))
    assert 0 < moved < len(starts) - 1
    assert len(calls) == 1 + moved
    assert calls[0][:2] == (windows[0].nx, windows[0].ny)


def test_a_uniform_periodic_euler_run_has_no_active_cell(monkeypatch):
    cfg = RunConfig(model="euler2d", initial="uniform", bc=PERIODIC, nx=12, ny=8, t_end=0.5)
    starts = _record_windows(monkeypatch)
    win = run(cfg, write_outputs=False)
    # no active cell: each step steps the padded box about cell (0, 0)
    assert [cut.bounds for _, cut in starts] == [(0, 5, 0, 5)] * win.steps
    _whole_mesh(monkeypatch)
    whole = run(cfg, write_outputs=False)
    assert win.steps == whole.steps > 1 and win.t_final == whole.t_final == cfg.t_end


@pytest.mark.parametrize("config", ["advection_desk.cfg", "advection_classic.cfg", "burgers_riemann_desk.cfg"])
def test_advection_and_burgers_never_get_a_window(config, monkeypatch):
    built = []
    of = Quiescence.of

    def recorded(field, stages):
        built.append(of(field, stages))
        return built[-1]

    def never(self, field, last=None):
        raise AssertionError("a window was looked for")

    monkeypatch.setattr(Quiescence, "of", staticmethod(recorded))
    monkeypatch.setattr(Quiescence, "window", never)
    report = run(replace(parse_config(CONFIG_DIR / config), t_end=0.02), write_outputs=False)
    assert report.steps > 0 and built == [None]
    assert Quiescence.of(_uniform(_outflow_mesh()), 3) is not None


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("nx, ny", [(51, 51), (41, 25), (27, 15)])
def test_a_uniform_jet_steps_windows_on_every_mesh(nx, ny, k, monkeypatch):
    """The ambient is projected exactly, so its cells are bit-equal on any
    mesh; a quadrature projection of it is not on these (at k = 2, and at
    k = 3 on 27 x 15), and the run then stepped the whole mesh."""
    starts = _record_windows(monkeypatch)
    report = run(replace(JET, nx=nx, ny=ny, k=k, t_end=0.0005), write_outputs=False)
    assert len(starts) == report.steps > 0
    assert all(cut is not None for _, cut in starts)


def _setup(cfg, monkeypatch, whole):
    """What a run of `cfg` built before its first step, on the set-up's
    window or (`whole`) with every step's window set to the full mesh: the
    initial field, the initial limiting's counts, the report's mean bounds
    and region check, and the first step's (dt, speeds)."""
    seen, built = {}, []
    of = Quiescence.of

    def recorded(field, stages):
        seen["field"] = field  # the run's field, which the set-up's window is pasted into
        return of(field, stages)

    class MarkedReport(cli.RunReport):
        def __init__(self, min_mean, max_mean, bp_violation, limiting):
            built.append((seen["field"].coeffs.copy(), vars(limiting).copy(), min_mean.copy(), max_mean.copy(),
                          bp_violation))
            super().__init__(min_mean, max_mean, bp_violation, limiting)

    with monkeypatch.context() as patch:
        patch.setattr(Quiescence, "of", staticmethod(recorded))
        patch.setattr(cli, "RunReport", MarkedReport)
        if whole:
            _whole_mesh(patch)
        report = run(cfg, write_outputs=False)
    assert len(built) == 1 and report.steps > 1
    return (*built[0], report.speed_history[0])


# an ambient whose density lies in [eps_rho * EULER_FLOOR, eps_rho): inside
# the region, below the BP limiter's floor at every node of every cell
THIN = RunConfig(model="euler2d", initial="uniform", bc=PERIODIC, nx=12, ny=8, t_end=0.05,
                 ambient=(0.99999999995e-13, 0.0, 0.0, 1e-12))


@pytest.mark.parametrize(
    "cfg", [replace(JET, t_end=0.0005), replace(JET, t_end=0.0005, dt_policy="classic"),
            replace(JET, t_end=0.0005, tvb_m=0.0), THIN],
    ids=["optimal", "classic", "tvb-0", "thin"])
def test_the_windowed_set_up_equals_the_whole_mesh_set_up(cfg, monkeypatch):
    """The frozen cells hold the exact constant, which the set-up's limiting
    would leave bit-unchanged: its field, mean bounds and first step are the
    whole-mesh set-up's, bit for bit.  So are its counts, but for an ambient
    below the density floor: the BP limiter then limits (to theta 0, a no-op
    on a constant) every cell it is given, and the frozen cells are left
    unlimited and uncounted, as in any windowed step."""
    field, counts, lo, hi, violation, first = _setup(cfg, monkeypatch, whole=False)
    field_w, counts_w, lo_w, hi_w, violation_w, first_w = _setup(cfg, monkeypatch, whole=True)
    np.testing.assert_array_equal(field, field_w)
    np.testing.assert_array_equal(lo, lo_w)
    np.testing.assert_array_equal(hi, hi_w)
    assert violation == violation_w is False and first == first_w
    if cfg is THIN:
        assert counts == {**counts_w, "cells_limited": 5 * 5} and counts_w["cells_limited"] == 12 * 8
        assert counts["min_theta"] == 0.0
    else:
        assert counts == counts_w


# ------------------------------------------------------------- selection


def test_the_threshold_is_64_eps_of_the_largest_reference_coefficient():
    field = _uniform(_outflow_mesh())
    quiescence = Quiescence.of(field, 3)
    assert quiescence.tol == THRESHOLD_C * EPS * np.abs(field.coeffs[0, 0]).max()
    assert not quiescence.active(field).any()
    field.coeffs[5, 5, 2, 3] += 0.9 * quiescence.tol
    field.coeffs[7, 3, 1, 1] += 1.1 * quiescence.tol
    assert np.argwhere(quiescence.active(field)).tolist() == [[7, 3]]


def test_the_cells_an_inflow_segment_covers_are_active_from_the_start():
    model = EulerModel()
    inflow = InflowSegment(model.conserved(5.0, 30.0, 0.0, 0.4127), -0.05, 0.05)
    field = _uniform(_outflow_mesh(bc_left=inflow))
    active = Quiescence.of(field, 3).active(field)
    # dy = 1/12: rows 5 and 6 have face points in [-0.05, 0.05]
    assert np.argwhere(active).tolist() == [[0, 5], [0, 6]]
    # at k = 3 no face point is a centre: a segment about row 4's centre
    # narrower than its face points still gives that cell an inflow ghost
    # mean for the TVB limiter
    centre = -0.5 + 4.5 / 12
    narrow = InflowSegment(inflow.state, centre - 0.01, centre + 0.01)
    field = _uniform(_outflow_mesh(bc_left=narrow), k=3)
    assert np.argwhere(Quiescence.of(field, 3).active(field)).tolist() == [[0, 4]]
    # and one about a face point off the centre gives it an inflow face trace
    point = centre + gauss_rule(3).nodes[-1] / 12
    narrow = InflowSegment(inflow.state, point - 0.001, point + 0.001)
    field = _uniform(_outflow_mesh(bc_left=narrow))
    assert np.argwhere(Quiescence.of(field, 3).active(field)).tolist() == [[0, 4]]
    # an inflow at the reference state disturbs nothing
    quiet = InflowSegment(model.conserved(*AMBIENT), -0.05, 0.05)
    field = _uniform(_outflow_mesh(bc_left=quiet))
    assert not Quiescence.of(field, 3).active(field).any()


def test_a_nan_coefficient_is_active_and_the_step_names_its_cell(monkeypatch):
    """A NaN is not within tau of the reference, so its cell is active, as a
    cell with a finite deviation there is: the window holds it, and the
    speed pass fails in it instead of leaving it frozen.  Step 1's window is
    chosen at the set-up, whose speed pass runs before its TVB limiting
    (which would zero the slope) and fails as step 1's."""
    field = _uniform(_outflow_mesh())
    quiescence = Quiescence.of(field, 3)
    slope = field.basis.mode_exps.index((1, 0))
    field.coeffs[15, 9, slope, 3] = np.nan
    assert np.argwhere(quiescence.active(field)).tolist() == [[15, 9]]
    assert quiescence.window(field).bounds == (11, 20, 5, 12)

    def disturbed_run(value):
        """The first window of the 40 x 20 jet and the run's error, with
        `value` put in a density slope of cell (35, 15) at step 1's start,
        the set-up's window call."""
        window, windows = Quiescence.window, []

        def disturbing(self, field, last=None):
            if not windows:
                field.coeffs[35, 15, slope, 0] = value
            windows.append(window(self, field, last))
            return windows[-1]

        with monkeypatch.context() as patch:
            patch.setattr(Quiescence, "window", disturbing)
            try:
                run(JET, write_outputs=False)
            except AdmissibilityError as err:
                return windows[0].bounds, err
        return windows[0].bounds, None

    finite_bounds, finite_error = disturbed_run(1e-3)
    nan_bounds, nan_error = disturbed_run(np.nan)
    assert finite_error is None
    assert nan_bounds == finite_bounds == (0, 40, 5, 20)
    assert nan_error.cell == (35, 15) and "in cell (35, 15) (t = 0, step 1)" in str(nan_error)


# ---------------------------------------------------------------- bounds


@pytest.mark.parametrize(
    "cells, bounds",
    [([(10, 6)], (6, 15, 2, 11)),  # padded by 4 on every side
     ([(1, 1)], (0, 6, 0, 6)),  # clipped at the low sides
     ([(19, 11)], (15, 20, 7, 12)),  # clipped at the high sides
     ([(5, 3), (12, 7)], (1, 17, 0, 12)),  # the bounding box of both
     ([], (0, 5, 0, 5))],  # no active cell: the padded box about cell (0, 0)
)
def test_window_is_the_padded_bounding_box_clipped_to_the_mesh(cells, bounds):
    field, quiescence = _disturbed(cells)
    assert quiescence.pad == 4
    assert quiescence.window(field).bounds == bounds
    # the cells outside the last window are not looked at again
    assert quiescence.window(field, Window(field.mesh, bounds)).bounds == bounds


def test_window_padding_follows_the_stage_count_and_spanning_the_mesh_is_no_window():
    field, quiescence = _disturbed([(10, 6)], stages=5)
    assert quiescence.pad == 6 and quiescence.window(field).bounds == (4, 17, 0, 12)
    field, quiescence = _disturbed([(0, 0), (19, 11)])
    assert quiescence.window(field) is None


def test_window_sides_inside_the_mesh_are_outflow_and_mesh_sides_keep_theirs():
    periodic = Mesh2D(0.0, 2.0, -0.5, 0.5, 20, 8)
    sides = Window(periodic, (6, 15, 0, 8))
    # periodic in y, which it spans; outflow in x, which it does not
    assert (sides.bc_left, sides.bc_right, sides.bc_bottom, sides.bc_top) == (OUTFLOW, OUTFLOW, PERIODIC, PERIODIC)
    sides = Window(periodic, (0, 20, 0, 8))
    assert (sides.bc_left, sides.bc_right, sides.bc_bottom, sides.bc_top) == (PERIODIC,) * 4
    inflow = InflowSegment(EulerModel().conserved(5.0, 30.0, 0.0, 0.4127), -0.05, 0.05)
    mesh = _outflow_mesh(bc_left=inflow)
    sides = Window(mesh, (0, 9, 2, 10))
    assert sides.bc_left is inflow and (sides.bc_right, sides.bc_bottom, sides.bc_top) == (OUTFLOW,) * 3
    assert Window(mesh, (3, 9, 2, 10)).bc_left == OUTFLOW


def test_window_holds_an_inactive_cell_unless_it_spans_the_mesh():
    """The speeds guarantee: a window short of the mesh has an inactive cell,
    whose speeds are those of every frozen cell up to O(tau)."""
    rng = np.random.default_rng(17)
    for trial in range(60):
        cells = [tuple(int(v) for v in rng.integers((0, 0), (20, 12))) for _ in range(rng.integers(1, 4))]
        field, quiescence = _disturbed(cells, stages=int(rng.choice([3, 5])))
        cut = quiescence.window(field)
        if cut is None:
            continue
        assert cut.bounds != (0, 20, 0, 12)
        assert not quiescence.active(field)[cut.cells].all()


def test_window_mesh_spacings_and_centres_are_the_full_mesh_bits():
    mesh = Mesh2D(0.0, 2.0, -0.5, 0.5, 120, 60)
    part = Window(mesh, (1, 34, 3, 50))
    assert part.origin == (1, 3) and (part.nx, part.ny) == (33, 47)
    assert part.dx == mesh.dx and part.dy == mesh.dy
    np.testing.assert_array_equal(part.x_centers, mesh.x_centers[1:34])
    np.testing.assert_array_equal(part.y_centers, mesh.y_centers[3:50])
    # a mesh built from the window's own extent would not have them
    own = Mesh2D(part.x_lo, part.x_hi, part.y_lo, part.y_hi, part.nx, part.ny)
    assert own.dx != mesh.dx and own.dy != mesh.dy


# ------------------------------------------------------------ one step


def _noisy_jet_state():
    """A uniform field whose every coefficient is off the reference by up to
    0.9 tau (inactive), with a 3 x 3 block of dense moving gas (active)."""
    field = _uniform(_outflow_mesh(32, 20))
    quiescence = Quiescence.of(field, 3)
    rng = np.random.default_rng(5)
    field.coeffs[...] += rng.uniform(-0.9, 0.9, field.coeffs.shape) * quiescence.tol
    field.coeffs[14:17, 8:11, 0, :] = field.model.conserved(8.0, 3.0, 1.0, 2.0)
    return field, quiescence


def test_window_ghosts_inside_the_mesh_are_its_own_traces(formed_ghosts):
    """The BP argument: a window side inside the mesh takes the window's own
    face traces, states and pressures, as exterior states."""
    field, quiescence = _noisy_jet_state()
    cut = quiescence.window(field)
    assert cut.bounds == (10, 21, 4, 15)
    part = cut.cut(field)
    values = point_values(part)
    basis, u, p = part.basis, values.stacked, values.pressure
    states, pressures = formed_ghosts(part, values)
    for own, ghost in zip((u, p), (states, pressures)):
        (at_xm, at_xp), (at_ym, at_yp) = basis.at_faces
        traces = (own[0, :, at_xm], own[-1, :, at_xp], own[:, 0, at_ym], own[:, -1, at_yp])
        for trace, formed in zip(traces, ghost):
            np.testing.assert_array_equal(formed, trace)


def test_a_windowed_step_moves_the_totals_within_the_conservation_bound():
    """Against a whole-mesh step from the same state with the same dt: the
    totals differ by at most B*tau*|cell| per face of the frozen region's
    boundary (counted as the window's perimeter plus the mesh's)."""
    field, quiescence = _noisy_jet_state()
    cut = quiescence.window(field)
    mesh, basis = field.mesh, field.basis
    spacings = (mesh.dx, mesh.dy)
    speeds, values = global_max_speeds(field)
    # the window's speeds are the whole mesh's up to O(tau)
    np.testing.assert_allclose(global_max_speeds(cut.cut(field))[0], speeds, rtol=1e-12)
    decomp = optimal_2d(2, speed_ratios(speeds, spacings))
    chain = LimiterChain(build_node_set(decomp, basis, field.model.region), 1.0)
    dt = step_controller(decomp, SSPRK3, speeds, spacings)
    whole, _, _ = ssp_step(field.copy(), SSPRK3, dt, chain, (speeds, values))
    # the window stepped with the whole mesh's speeds, so with the same viscosities
    window = cut.cut(field)
    part, _, _ = ssp_step(window, SSPRK3, dt, chain, (speeds, point_values(window)))
    windowed = cut.paste(part, field.copy())
    area = mesh.dx * mesh.dy
    moved = np.abs(windowed.cell_averages.sum(axis=(0, 1)) - whole.cell_averages.sum(axis=(0, 1))) * area
    faces = 2 * (cut.nx + cut.ny) + 2 * (mesh.nx + mesh.ny)
    trace_bound = np.abs(basis.eval_matrix).sum(axis=1).max()
    bound = faces * trace_bound * quiescence.tol * area
    assert np.all(moved <= bound), (moved, bound)
    # the cells that did change moved by far more than the bound
    assert np.abs(windowed.cell_averages - field.cell_averages).max() * area > 1e6 * bound


# -------------------------------------------------------------- errors


def test_an_admissibility_error_in_a_window_names_the_full_mesh_cell(monkeypatch):
    step, origins = cli.ssp_step, []

    def failing(field, *args, **kwargs):
        if isinstance(field.mesh, Window):
            origins.append(field.mesh.origin)
            raise AdmissibilityError("inadmissible state at quadrature/trace point in cell (1, 2)", cell=(1, 2))
        return step(field, *args, **kwargs)

    monkeypatch.setattr(cli, "ssp_step", failing)
    with pytest.raises(AdmissibilityError) as err:
        run(JET, write_outputs=False)
    (i0, j0), = origins
    assert j0 > 0  # the jet's first window starts above the mesh's bottom row
    assert err.value.cell == (1 + i0, 2 + j0)
    assert f"in cell ({1 + i0}, {2 + j0}) (t = 0, step 1)" in str(err.value)


def test_an_unlimited_windowed_jet_fails_in_the_cell_the_whole_mesh_path_names(monkeypatch):
    cfg = replace(JET, limiter_bp=False, tvb_m=None)
    with pytest.raises(AdmissibilityError) as windowed:
        run(cfg, write_outputs=False)
    _whole_mesh(monkeypatch)
    with pytest.raises(AdmissibilityError) as whole:
        run(cfg, write_outputs=False)
    assert windowed.value.cell == whole.value.cell is not None
    assert str(windowed.value) == str(whole.value)
