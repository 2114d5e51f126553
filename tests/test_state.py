import json
from dataclasses import fields, replace

import numpy as np
import pytest

from capelast import ConfigError, InsufficientHistoryError, make_grid
from capelast.elliptic import _apply_bc_operator
from capelast.evolve import step_rk4
from capelast.graphmap import (
    GraphMap,
    build_graphmap,
    make_cutoff,
    mean_curvature,
    with_surface_velocity,
)
from capelast.recipes import ShearRecipe, StreamRecipe, parse_recipe, recipe_to_text
from capelast.state import (
    History,
    InitSpec,
    State,
    build_initial_data,
    constraint_residuals,
    load_state,
    save_state,
    zero_state,
)

from test_evolve import oblique_spec


def test_zero_initial_data():
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=1.0)
    state, gm = build_initial_data(spec)
    assert np.abs(state.q).max() <= 1e-12
    assert max(constraint_residuals(state, gm).values()) <= 1e-12


def test_shear_initial_data_selfconsistent():
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.5,
                    v_recipe=ShearRecipe(comp=1, dep_axis=2, k=1, amp=1.0),
                    F_recipes=(ShearRecipe(comp=1, dep_axis=2, k=1, amp=0.2),
                               None, None))
    state, gm = build_initial_data(spec)
    res = constraint_residuals(state, gm)
    assert max(res.values()) <= 1e-10
    # flat surface: capillary datum is zero, shear sources cancel, q0 = 0
    assert np.abs(state.q).max() <= 1e-9


def test_wavy_pressure_against_dense_oracle():
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=1.0,
                    psi_modes=((1, 0, 0.1, 0.0),), dealias=False)
    state, gm = build_initial_data(spec)
    grid = spec.make_grid()
    n = 8 * 8 * 9
    A = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = _apply_bc_operator(e.reshape(8, 8, 9), gm).ravel()
        e[j] = 0.0
    B = np.zeros((8, 8, 9))
    B[:, :, 0] = -spec.sigma * mean_curvature(gm)
    q_dense = np.linalg.solve(A, B.ravel()).reshape(8, 8, 9)
    assert grid.norm0(state.q - q_dense) <= 1e-8
    # spot value: the pressure under a crest is set by the curvature there
    assert abs(state.q[0, 0, 0] - B[0, 0, 0]) <= 1e-12


def test_stream_recipe_compatibility():
    # stream fields are divergence-free and boundary-compatible by design,
    # before any projection
    spec = InitSpec(nx=16, ny=16, nz=13, b=1.0, sigma=0.0,
                    psi_modes=((1, 0, 0.02, 0.0),), dealias=False)
    g = spec.make_grid()
    state = zero_state(g, spec.sigma)
    state.psi = spec.build_psi0(g)
    cut = make_cutoff(g)
    gm0 = build_graphmap(state.psi, np.zeros_like(state.psi), cut, g)
    state.v = StreamRecipe(amp=0.3, k=1, profile="sinh").build(g, gm0)
    state.F[0] = StreamRecipe(amp=0.1, k=1, profile="confined").build(g, gm0)
    res = constraint_residuals(state, gm0)
    assert res["div_v"] <= 1e-9
    assert res["div_F"] <= 1e-9
    assert res["FN_top"] <= 1e-12
    assert res["F3_bot"] <= 1e-12
    assert res["v3_bot"] <= 1e-12


@pytest.mark.parametrize("fields, name", [
    ({"F_recipes": (None, ShearRecipe(comp=3, dep_axis=1), None)}, "f32"),
    ({"v_recipe": StreamRecipe(profile="one")}, "v3"),
])
def test_initial_data_breaking_the_flat_bottom_are_rejected(fields, name):
    # v3 = F_3j = 0 on the flat bottom: data that break it are rejected
    # by name, not overwritten
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.5, **fields)
    with pytest.raises(ConfigError,
                       match=f"initial {name} is 0.1 on the bottom plane"):
        build_initial_data(spec)


def test_constraint_residuals_constant_divergence():
    g = make_grid(8, 8, 9, 2.0)
    state = zero_state(g, 0.0)
    _, _, X3 = g.mesh_volume()
    state.v[2] = X3 + g.b  # div = 1, v3 = 0 at the bottom
    from capelast.graphmap import flat_graphmap
    gm = flat_graphmap(g)
    res = constraint_residuals(state, gm)
    assert res["v3_bot"] <= 1e-14
    assert abs(res["div_v"] - np.sqrt(4 * np.pi**2 * g.b)) <= 1e-10


def test_constraint_residuals_differentiate_only_nonzero_columns(monkeypatch):
    # a zero column of F adds exact zeros to every maximum, so skipping it
    # leaves each residual bit for bit as the sum over all columns has it
    import capelast.state
    from capelast.graphmap import div_phi
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.1,
                    psi_modes=((1, 1, 1e-2, 0.3),),
                    F_recipes=(None, StreamRecipe(amp=0.1, k=1,
                                                  profile="confined"), None))
    state, gm = build_initial_data(spec)
    g = gm.grid
    assert [bool(state.F[j].any()) for j in range(3)] == [False, True, False]
    calls = []

    def counted(X, gm):
        calls.append(X)
        return div_phi(X, gm)

    monkeypatch.setattr(capelast.state, "div_phi", counted)
    res = constraint_residuals(state, gm)
    assert len(calls) == 2          # v and the one nonzero column
    top = [state.F[j][:, :, :, 0] for j in range(3)]
    assert res["div_F"] == max(g.norm0(div_phi(state.F[j], gm))
                            for j in range(3))
    assert res["FN_top"] == max(float(np.abs(t[0] * gm.N[0] + t[1] * gm.N[1]
                                          + t[2] * gm.N[2]).max())
                             for t in top)
    assert res["F3_bot"] == max(float(np.abs(state.F[j][2][:, :, -1]).max())
                                for j in range(3))


def test_history_contract():
    g = make_grid(8, 8, 9, 1.0)
    h = History(maxlen=5)
    with pytest.raises(InsufficientHistoryError):
        _ = h.newest
    for k in range(7):
        h.push(State(t=0.1 * k, psi=np.zeros((8, 8)),
                     v=np.zeros((3, 8, 8, 9)), F=np.zeros((3, 3, 8, 8, 9)),
                     q=np.zeros((8, 8, 9)), sigma=0.0))
    assert len(h) == 5
    assert h.newest.t == pytest.approx(0.6)
    bad = State(t=0.65, psi=np.zeros((8, 8)), v=np.zeros((3, 8, 8, 9)),
                F=np.zeros((3, 3, 8, 8, 9)), q=np.zeros((8, 8, 9)), sigma=0.0)
    with pytest.raises(ConfigError):
        h.push(bad)
    with pytest.raises(ConfigError):
        History(maxlen=3)


def test_state_roundtrip(tmp_path):
    for dealias in (True, False):
        spec = InitSpec(nx=8, ny=8, nz=9, b=1.5, sigma=0.25,
                        psi_modes=((1, 1, 0.05, 0.3),),
                        v_recipe=ShearRecipe(comp=2, dep_axis=1, amp=0.4),
                        dealias=dealias)
        state, _ = build_initial_data(spec)
        grid = spec.make_grid()
        state.t = 1.25
        out = tmp_path / f"snap_{dealias}"
        save_state(state, grid, out)
        loaded, g2 = load_state(out)
        assert g2.nx == 8 and g2.b == 1.5
        assert g2.dealias is dealias
        assert loaded.t == 1.25 and loaded.sigma == 0.25
        assert np.array_equal(loaded.psi, state.psi)
        assert np.array_equal(loaded.v, state.v)
        assert np.array_equal(loaded.F, state.F)
        assert np.array_equal(loaded.q, state.q)


def _same_cutoff(a, b):
    return (a.chi.tobytes() == b.chi.tobytes()
            and a.chi_prime.tobytes() == b.chi_prime.tobytes())


def assert_same_map(a, b):
    """Every field of two graph maps is bit for bit equal, dtphi (formed on
    first read, so not a dataclass field) included."""
    names = [f.name for f in fields(GraphMap)
             if f.name not in ("grid", "cutoff")]
    for name in names + ["dtphi"]:
        assert (np.asarray(getattr(a, name)).tobytes()
                == np.asarray(getattr(b, name)).tobytes()), name


def test_maps_equal_a_full_build_bit_for_bit():
    # a state's map and a step's returned map equal a full build of the
    # surface with v . N formed from psi's own derivatives, and
    # with_surface_velocity equals a full build with its psi_t
    state, gm = build_initial_data(oblique_spec())
    new, gm_new = step_rk4(state, gm, 0.01)
    g, cut = gm.grid, gm.cutoff
    for s, returned in ((state, gm), (new, gm_new)):
        # the kinematic value as formed before the map held the slopes
        vtop = s.v[:, :, :, 0]
        vN = (-vtop[0] * g.d_tan(s.psi, 1) - vtop[1] * g.d_tan(s.psi, 2)
              + vtop[2])
        full = build_graphmap(s.psi, vN, cut, g)
        assert_same_map(s.graphmap(cut, g), full)
        assert_same_map(returned, full)
        p = np.sin(s.psi) + 0.5    # any surface field
        assert_same_map(
            with_surface_velocity(build_graphmap(s.psi, None, cut, g), p),
            build_graphmap(s.psi, p, cut, g))


def test_run_cutoff_depends_on_the_grid_alone(tmp_path):
    # initial data on different surfaces share one cutoff, so a dump's
    # manifest is enough to rebuild a run's graph map
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.5, sigma=0.25,
                    psi_modes=((1, 1, 0.05, 0.3),),
                    v_recipe=StreamRecipe(amp=0.2, k=1, profile="sinh"))
    state, gm = build_initial_data(spec)
    _, other = build_initial_data(
        replace(spec, psi_modes=((2, 0, 0.1, 0.0), (0, 1, 0.02, 1.0))))
    cut = make_cutoff(gm.grid)
    assert _same_cutoff(gm.cutoff, cut) and _same_cutoff(other.cutoff, cut)
    # the benchmark's and the batteries' call forms build that same chi
    for sup in (0.0, 0.05, 0.06 * 1.6 * 1.4):
        assert _same_cutoff(
            make_cutoff(gm.grid, gm.grid.b / 8, sup, strict=False), cut)
    unit = make_grid(16, 16, 13, 1.0)
    assert _same_cutoff(make_cutoff(unit, 0.125, 0.05, strict=False),
                        make_cutoff(unit))

    save_state(state, gm.grid, tmp_path)
    loaded, grid = load_state(tmp_path)
    assert_same_map(loaded.graphmap(make_cutoff(grid), grid), gm)


def test_load_state_without_dealias_key_dealiases(tmp_path):
    # manifests written before the key existed reload with the default
    state = zero_state(make_grid(8, 8, 9, 1.0), sigma=0.1)
    save_state(state, make_grid(8, 8, 9, 1.0, dealias=False), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["dealias"]
    path.write_text(json.dumps(manifest))
    _, grid = load_state(tmp_path)
    assert grid.dealias is True


@pytest.mark.parametrize("name, shape, dims, message", [
    ("q", (16, 8, 9), (16, 8, 9, 1.0), "'nx': 16"),    # another grid
    ("v2", (8, 8, 9), (8, 8, 9, 2.0), "'b': 2.0"),     # another depth
    ("psi", (8, 8, 9), (8, 8, 9, 1.0), "'kind': 'volume'"),
])
def test_load_state_rejects_a_dump_from_another_grid(tmp_path, name, shape,
                                                     dims, message):
    from capelast import fieldio
    grid = make_grid(8, 8, 9, 1.0)
    save_state(zero_state(grid, sigma=0.1), grid, tmp_path)
    fieldio.write_field(tmp_path / f"{name}.fld", np.ones(shape), *dims)
    with pytest.raises(ConfigError, match=message):
        load_state(tmp_path)


def test_state_field_names():
    state = zero_state(make_grid(8, 8, 9, 1.0), sigma=0.1)
    state.F[2, 0] = 1.0    # F_13: component 1 of column 3
    assert (state.field("f13") == 1).all() and not state.field("f31").any()
    assert np.shares_memory(state.field("v3"), state.v)
    with pytest.raises(KeyError):
        state.field("f14")


def test_fieldio_header_and_order(tmp_path):
    from capelast import fieldio
    f = np.arange(24.0).reshape(2, 3, 4)  # not a valid grid, io only
    path = tmp_path / "x.fld"
    fieldio.write_field(path, f, 2, 3, 4, 1.0)
    raw = path.read_bytes()
    header, _, body = raw.partition(b"\n")
    assert header == b"CAPELAST1 2 3 4 1.0 volume"
    vals = np.frombuffer(body, dtype="<f8")
    # x-fastest: first two entries walk x at fixed (y, z)
    assert vals[0] == f[0, 0, 0] and vals[1] == f[1, 0, 0]
    back, meta = fieldio.read_field(path)
    assert np.array_equal(back, f)
    assert meta["kind"] == "volume"


def test_recipe_parse_roundtrip():
    r = parse_recipe("shear: comp=2, dep_axis=1, k=1, amp=0.2")
    assert isinstance(r, ShearRecipe) and r.amp == 0.2
    assert parse_recipe("none") is None
    text = recipe_to_text(r)
    r2 = parse_recipe(text)
    assert r2 == r
    with pytest.raises(ConfigError):
        parse_recipe("warp: amp=1")
