"""Detuning optimization, geometry scans, and the two-qubit gate budget."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinfaraday import scans
from spinfaraday.optics import rotation_curve, t_minus_value
from spinfaraday.params import (
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    TWO_PI,
    CavityGeometry,
    derive_kappa,
    params_for_geometry,
)
from spinfaraday.scans import (
    CAVITY_EQUALS_ATOM,
    PROBE_EQUALS_CAVITY,
    CnotReport,
    cnot_feasibility,
    default_reflectivity_grid,
    lossless_rotation_point,
    max_rotation,
    scan_length,
    scan_reflectivity,
)

P = DEFAULT_PARAMS
MHZ = TWO_PI * 1e6

# Maxima that scipy.optimize.minimize_scalar(method="golden", xtol=1e-12)
# refined from the coarse bracket, before the package dropped scipy: label,
# mode, g0, kappa, gamma (rad/s), then angle (rad) and delta* (rad/s), the
# floats as float.hex. The fig6 rows are the scans' first and last points.
SCIPY_GOLDEN_MAXIMA = (
    ("anchor", PROBE_EQUALS_CAVITY,
     "0x1.0c7256dc2fb32p+24", "0x1.af6e9de1def23p+24", "0x1.172f3b9d5053fp+20",
     "0x1.78bab6613d651p-2", "-0x1.f1bb1156cf006p+22"),
    ("anchor", CAVITY_EQUALS_ATOM,
     "0x1.0c7256dc2fb32p+24", "0x1.af6e9de1def23p+24", "0x1.172f3b9d5053fp+20",
     "0x1.e2ab78b2e3208p-2", "-0x1.0762eeac36594p+23"),
    ("fig6a first", CAVITY_EQUALS_ATOM,
     "0x1.0c7256dc2fb32p+24", "0x1.aaf4dd2680969p+24", "0x1.172f3b9d5053fp+20",
     "0x1.e51a29089d767p-2", "-0x1.099e2f3e2f9a4p+23"),
    ("fig6a last", CAVITY_EQUALS_ATOM,
     "0x1.12265c8cf59c7p+20", "0x1.5590b0eb9a120p+19", "0x1.172f3b9d5053fp+20",
     "0x1.eeb0546b51fc2p-2", "-0x1.adfd5a88ae580p+19"),
    ("fig6b first", CAVITY_EQUALS_ATOM,
     "0x1.0c7256dc2fb32p+24", "0x1.7d39920ff09ccp+26", "0x1.172f3b9d5053fp+20",
     "0x1.4af94fdd44291p-2", "-0x1.453a9d9918e62p+21"),
    ("fig6b last", CAVITY_EQUALS_ATOM,
     "0x1.0c7256dc2fb32p+24", "0x1.30f757cc53333p+23", "0x1.172f3b9d5053fp+20",
     "0x1.703b905640525p-1", "-0x1.8bd683d5a0ca7p+23"),
    ("g0 = 0", CAVITY_EQUALS_ATOM,
     "0x0.0p+0", "0x1.af6e9de1def23p+24", "0x1.172f3b9d5053fp+20",
     "0x0.0p+0", "0x0.0p+0"),
    ("grid edge", PROBE_EQUALS_CAVITY,
     "0x1.756727abe0dbdp+28", "0x1.0f1c30caac65dp+20", "0x1.7a86a83b0e882p+21",
     "0x1.19a17c43db600p-6", "-0x1.1b026b115ec1fp+31"),
    ("grid edge", PROBE_EQUALS_CAVITY,
     "0x1.a281e03d08b2ap+16", "0x1.2c9314939e330p+13", "0x1.1fd957e778e89p-2",
     "0x1.800d5fbd9a534p-2", "-0x1.39e1b0241c7fep+19"),
    ("non-strict bracket", PROBE_EQUALS_CAVITY,
     "0x1.0801c04d77366p-4", "0x1.87d653a953e38p+14", "0x1.3cf7dcc99b1b4p+19",
     "0x1.1f40000000000p-43", "-0x1.4626e2bf93120p+18"),
    ("non-strict bracket", CAVITY_EQUALS_ATOM,
     "0x1.18f1aa9536f17p+2", "0x1.64c5da13aa646p+26", "0x1.aa31527bb3391p+24",
     "0x1.2800000000000p-48", "-0x1.f2d64ae790cc0p+23"),
    ("equal bracket sides", CAVITY_EQUALS_ATOM,
     "0x1.6b55cfc1fe95fp+25", "0x1.07907f3507dc3p+27", "0x1.9b7de91b1aeccp+19",
     "0x1.a5367a37c3471p-2", "-0x1.7dccc1b50cce0p+23"),
    ("refined point ties the grid maximum", PROBE_EQUALS_CAVITY,
     "0x1.2f744e110944fp+2", "0x1.8221065faea32p+3", "0x1.5aee5452ba0e7p+22",
     "0x1.5ff3328800000p-23", "-0x1.5aef424b67b58p+21"),
    ("no positive angle", CAVITY_EQUALS_ATOM,
     "0x1.876de9c5d121cp-6", "0x1.4b931f55f0a37p+28", "0x1.1b0f2a7c2428bp+15",
     "0x0.0p+0", "0x0.0p+0"),
    ("random", PROBE_EQUALS_CAVITY,
     "0x1.42fe5e4224511p+24", "0x1.aa66fbebe3e19p+19", "0x1.9b50fec89166fp+20",
     "0x1.faa84ccbc75a0p-3", "-0x1.0bf3d69e24534p+27"),
    ("random", CAVITY_EQUALS_ATOM,
     "0x1.7b5fe4bf91ceep+25", "0x1.70248aff492a8p+27", "0x1.032581945c496p+19",
     "0x1.993bb13f23dd9p-2", "-0x1.22f2c1893fecep+23"),
    ("random", PROBE_EQUALS_CAVITY,
     "0x1.4e3d1052b2e95p+18", "0x1.5250a91f17aa3p+19", "0x1.22e426690b287p+21",
     "0x1.0ef4af429bae0p-5", "-0x1.38365931cf8dcp+20"),
    ("random", CAVITY_EQUALS_ATOM,
     "0x1.391e23ce40338p+19", "0x1.6200f6b10c2d2p+23", "0x1.adaff01d92f80p+23",
     "0x1.a578fa22a3000p-10", "-0x1.356a81fc097cfp+22"),
    ("random", PROBE_EQUALS_CAVITY,
     "0x1.91d3330db5a33p+18", "0x1.2df112d26e17ap+23", "0x1.90ae5b5bff84ep+17",
     "0x1.3abb9ea4f1160p-5", "-0x1.b3633e29ffa18p+16"),
    ("random", CAVITY_EQUALS_ATOM,
     "0x1.2d61d49baaf8ap+22", "0x1.403d9f58fbd53p+27", "0x1.7b46a1f21e996p+25",
     "0x1.ad686ac6a2e00p-10", "-0x1.6da8de2f18d9dp+24"),
    ("random", PROBE_EQUALS_CAVITY,
     "0x1.7647c563b72b2p+23", "0x1.cb0f34e6fc6d7p+20", "0x1.938910a74bb94p+19",
     "0x1.8f7e227174a6dp-2", "-0x1.b1cb420ca07c2p+25"),
    ("random", CAVITY_EQUALS_ATOM,
     "0x1.0230373f67496p+22", "0x1.4b16a91a457dep+20", "0x1.3f88063142ce9p+26",
     "0x1.1f275fdef2f00p-4", "-0x1.83b7498547526p+20"),
)


# Rows far above the estimator's rounding floor: arccos(...) - pi/4 steps by
# about 1e-16 rad, so near that floor a dense grid can land on a higher step.
RESOLVED_ROWS = [row for row in SCIPY_GOLDEN_MAXIMA if float.fromhex(row[5]) > 1e-9]


def row_id(row):
    return row[0].replace(" ", "-")


def table_point(row):
    _, mode, *floats = row
    g0, kappa, gamma, angle, delta = map(float.fromhex, floats)
    return replace(P, g0=g0, kappa=kappa, gamma=gamma), mode, (angle, delta)


def table_rows(label):
    return [table_point(row) for row in SCIPY_GOLDEN_MAXIMA if row[0] == label]


def detuning_grid(params, mode, points):
    """A grid over max_rotation's detuning span and its |angle| values."""
    span = 6.0 * max(params.g0, params.kappa) + 8.0 * params.gamma
    grid = np.linspace(-span, 0.0, points)
    return grid, scans._abs_rotation(grid, params, mode)



class TestMaxRotation:
    def test_probe_on_cavity_frozen(self):
        # frozen from a 2001-point brute-force detuning scan plus golden
        # refinement, cross-checked against the coarse grid maximum
        result = max_rotation(P, PROBE_EQUALS_CAVITY)
        assert math.degrees(result.angle) == pytest.approx(
            21.079103037003442, rel=1e-9
        )
        assert result.delta_star / MHZ == pytest.approx(-1.2978799663055907, abs=1e-5)

    def test_cavity_on_atom_frozen(self):
        result = max_rotation(P, CAVITY_EQUALS_ATOM)
        assert math.degrees(result.angle) == pytest.approx(
            27.006780310693085, rel=1e-9
        )
        assert result.delta_star / MHZ == pytest.approx(-1.3736101856633443, abs=1e-5)

    def test_cavity_on_atom_derived_kappa(self):
        anchor = params_for_geometry(DEFAULT_GEOMETRY, P, DEFAULT_GEOMETRY)
        result = max_rotation(anchor, CAVITY_EQUALS_ATOM)
        assert math.degrees(result.angle) == pytest.approx(
            27.142878946001787, rel=1e-9
        )

    def test_optimum_is_a_true_maximum(self):
        result = max_rotation(P, PROBE_EQUALS_CAVITY)
        for bump in (-0.01 * MHZ, 0.01 * MHZ):
            nearby = abs(rotation_curve(result.delta_star + bump, P.g0, P)[0])
            assert nearby <= result.angle + 1e-12

    def test_coarse_grid_insensitive(self, monkeypatch):
        a = max_rotation(P, PROBE_EQUALS_CAVITY)
        monkeypatch.setattr(scans, "MAX_ROTATION_COARSE_POINTS", 501)
        b = max_rotation(P, PROBE_EQUALS_CAVITY)
        assert abs(math.degrees(a.angle) - math.degrees(b.angle)) < 1e-6

    def test_zero_coupling(self):
        result = max_rotation(replace(P, g0=0.0), PROBE_EQUALS_CAVITY)
        assert result.angle == 0.0
        assert result.delta_star == 0.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            max_rotation(P, "sideways")

    @pytest.mark.parametrize("row", SCIPY_GOLDEN_MAXIMA, ids=row_id)
    def test_matches_scipy_golden_bit_for_bit(self, row):
        params, mode, _ = table_point(row)
        result = max_rotation(params, mode)
        assert (result.angle.hex(), result.delta_star.hex()) == row[5:]

    @pytest.mark.parametrize("row", RESOLVED_ROWS, ids=row_id)
    def test_no_angle_below_the_dense_grid_maximum(self, row):
        params, mode, _ = table_point(row)
        _, dense = detuning_grid(params, mode, 20_001)
        assert max_rotation(params, mode).angle >= dense.max()

    def test_grid_edge_maximum_is_the_grid_point(self):
        for params, mode, expected in table_rows("grid edge"):
            grid, values = detuning_grid(params, mode, scans.MAX_ROTATION_COARSE_POINTS)
            best = int(np.argmax(values))
            assert best in (0, grid.size - 1)
            assert (values[best], grid[best]) == expected

    def test_non_strict_bracket_keeps_the_grid_point(self):
        # refined only when the middle point, evaluated alone, is strictly
        # above both neighbours evaluated alone
        for params, mode, expected in table_rows("non-strict bracket"):
            grid, values = detuning_grid(params, mode, scans.MAX_ROTATION_COARSE_POINTS)
            best = int(np.argmax(values))
            bracket = grid[best - 1 : best + 2]
            fa, fb, fc = (scans._abs_rotation(bracket[i : i + 1], params, mode)[0] for i in range(3))
            assert not (fb > fa and fb > fc)
            assert (values[best], grid[best]) == expected


def coarse_bracket(params, mode):
    """max_rotation's coarse grid maximum and its neighbours inside the grid."""
    grid, values = detuning_grid(params, mode, scans.MAX_ROTATION_COARSE_POINTS)
    best = int(np.argmax(values))
    window = slice(max(best - 1, 0), best + 2)
    return grid[window], values[window]


def single_point_values(points, params, mode):
    return [scans._abs_rotation(points[i : i + 1], params, mode)[0] for i in range(points.size)]


def hexes(values):
    return [float(v).hex() for v in values]


class TestBatchInvariance:
    # max_rotation reads the bracket from the coarse grid's batch and the
    # refined points from lookahead batches; scipy evaluated each alone.

    @pytest.mark.parametrize("mode", [PROBE_EQUALS_CAVITY, CAVITY_EQUALS_ATOM])
    @pytest.mark.parametrize("row", SCIPY_GOLDEN_MAXIMA, ids=row_id)
    def test_coarse_bracket(self, row, mode):
        params, _, _ = table_point(row)
        points, batch = coarse_bracket(params, mode)
        assert hexes(batch) == hexes(single_point_values(points, params, mode))

    @pytest.mark.parametrize("mode", [PROBE_EQUALS_CAVITY, CAVITY_EQUALS_ATOM])
    def test_lookahead_tree(self, mode):
        (x0, xb, x3), _ = coarse_bracket(P, mode)
        bracket = (x0, xb, xb + scans._GOLDEN_C * (x3 - xb), x3)
        points = np.array(scans._lookahead_tree(bracket, 2))
        assert points.size == 2**scans.LOOKAHEAD - 1 == len(set(points.tolist()))
        batch = scans._abs_rotation(points, P, mode)
        assert hexes(batch) == hexes(single_point_values(points, P, mode))


def refinement_calls(monkeypatch, row, lookahead):
    """max_rotation of a table row at a lookahead depth, and the sizes of
    the array calls after the coarse grid's."""
    monkeypatch.setattr(scans, "LOOKAHEAD", lookahead)
    sizes = []

    def counted(delta, *args):
        sizes.append(np.size(delta))
        return rotation_curve(delta, *args)

    monkeypatch.setattr(scans, "rotation_curve", counted)
    params, mode, _ = table_point(row)
    return max_rotation(params, mode), sizes[1:]


@pytest.mark.parametrize("lookahead", [1, 2, 4, 7])
def test_lookahead_depth_keeps_scipy_iterates(monkeypatch, lookahead):
    # One call per round of 2**lookahead - 1 points. The rows converge both
    # inside a round and on its last level at every depth above 1.
    ends_a_round = set()
    for row in SCIPY_GOLDEN_MAXIMA:
        _, single = refinement_calls(monkeypatch, row, 1)
        result, sizes = refinement_calls(monkeypatch, row, lookahead)
        assert (result.angle.hex(), result.delta_star.hex()) == row[5:]
        assert sizes == [2**lookahead - 1] * -(-len(single) // lookahead)
        if single:
            ends_a_round.add(len(single) % lookahead == 0)
    assert ends_a_round == ({True} if lookahead == 1 else {True, False})


class TestLosslessPoint:
    def test_frozen_values(self):
        point = lossless_rotation_point()
        assert point.kappa / MHZ == pytest.approx(1.847754795266799, rel=1e-9)
        assert point.delta / MHZ == pytest.approx(-2.021916340101459, rel=1e-9)
        assert point.reflectivity == pytest.approx(0.9999883822444183, abs=1e-9)

    def test_defining_relations(self):
        point = lossless_rotation_point()
        g_sq = P.g0**2
        # detuning that cancels the common-mode attenuation
        assert point.delta == pytest.approx(
            -g_sq / (2.0 * (point.kappa + 0.5 * P.gamma)), rel=1e-12
        )
        # at that detuning the residual loss vanishes
        residual = point.kappa * 0.5 * P.gamma - point.delta**2 + 0.5 * g_sq
        assert abs(residual) < 1e-3 * point.kappa * P.gamma

    def test_transmittance_is_pure_quarter_wave(self):
        point = lossless_rotation_point()
        tuned = replace(P, kappa=point.kappa)
        t = t_minus_value(point.delta, P.g0, tuned, cavity_detuning=point.delta)
        assert abs(t - 1j) < 1e-9

    def test_no_point_below_the_coupling_threshold(self):
        with pytest.raises(ValueError, match=r"g0 > gamma/sqrt\(2\)"):
            lossless_rotation_point(replace(P, g0=0.5 * P.gamma))

    @pytest.mark.parametrize("length", [DEFAULT_GEOMETRY.length, 6e-3])
    def test_root_of_the_cubic_and_its_mirror(self, length):
        geometry = replace(DEFAULT_GEOMETRY, length=length)
        params = params_for_geometry(geometry, P, DEFAULT_GEOMETRY)
        point = lossless_rotation_point(params, geometry)
        g_sq, gamma = params.g0**2, params.gamma
        cubic = (2.0 * point.kappa * gamma + 2.0 * g_sq) * (point.kappa + 0.5 * gamma) ** 2
        assert abs(cubic - g_sq**2) <= 1e-12 * g_sq**2
        mirror = replace(geometry, reflectivity=point.reflectivity)
        assert derive_kappa(mirror) == pytest.approx(point.kappa, rel=1e-10)

    def test_estimator_saturates_at_45_degrees(self):
        point = lossless_rotation_point()
        tuned = replace(P, kappa=point.kappa)
        angle = rotation_curve(point.delta, P.g0, tuned, cavity_detuning=point.delta)[0]
        assert math.degrees(abs(angle)) == pytest.approx(45.0, abs=1e-7)


class TestScanLength:
    def test_default_grid(self):
        grid = scan_length().axis * 1e-6
        assert grid.size == 25
        assert grid[0] == pytest.approx(150e-6)
        assert grid[-1] == pytest.approx(6e-3)
        assert np.all(np.diff(grid) > 0.0)

    def test_anchor_point_reproduced(self):
        result = scan_length()
        assert result.axis[0] == pytest.approx(150.0, rel=1e-12)  # micrometers
        assert result.max_angle_deg[0] == pytest.approx(27.142878946001787, rel=1e-9)

    def test_frozen_endpoint_and_peak(self):
        result = scan_length()
        assert result.max_angle_deg[-1] == pytest.approx(27.679277082598325, rel=1e-9)
        peak = int(np.argmax(result.max_angle_deg))
        assert result.max_angle_deg[peak] == pytest.approx(31.466495235751374, rel=1e-9)
        # interior peak in the millimeter range
        assert 1000.0 < result.axis[peak] < 3000.0
        assert 0 < peak < result.axis.size - 1

    def test_g0_and_kappa_vary_with_length(self):
        result = scan_length()
        assert result.g0_mhz[0] > result.g0_mhz[-1]
        assert result.kappa_mhz[0] > result.kappa_mhz[-1]
        assert np.all(result.gamma_khz == result.gamma_khz[0])

    def test_rows_shape(self):
        result = scan_length()
        header, rows = result.rows()
        assert header == [
            "length_um",
            "max_angle_deg",
            "delta_star_mhz",
            "g0_mhz",
            "kappa_mhz",
            "gamma_khz",
        ]
        assert len(rows) == result.axis.size
        assert rows[0][0] == pytest.approx(150.0)


class TestScanReflectivity:
    def test_default_grid_contains_landmarks(self):
        grid = default_reflectivity_grid()
        assert np.all(np.diff(grid) > 0.0)
        for landmark in (DEFAULT_GEOMETRY.reflectivity, 0.999990):
            assert np.min(np.abs(grid - landmark)) < 1e-15

    def test_peak_is_the_lossless_point(self):
        result = scan_reflectivity()
        point = lossless_rotation_point()
        peak = int(np.argmax(result.max_angle_deg))
        assert result.axis[peak] == pytest.approx(point.reflectivity, abs=1e-12)
        assert result.max_angle_deg[peak] == pytest.approx(45.0, abs=1e-7)

    def test_frozen_landmark_angles(self):
        result = scan_reflectivity()
        at = {float(r): float(a) for r, a in zip(result.axis, result.max_angle_deg)}
        assert at[0.99999] == pytest.approx(41.20737878144908, rel=1e-9)
        assert at[0.999972] == pytest.approx(27.142878946001787, rel=1e-9)

    def test_g0_fixed_kappa_varies(self):
        result = scan_reflectivity()
        assert np.all(result.g0_mhz == result.g0_mhz[0])
        assert result.kappa_mhz[0] > result.kappa_mhz[-1]  # better mirrors, slower decay

    def test_g0_is_the_anchor_coupling(self):
        result = scan_reflectivity()
        np.testing.assert_allclose(result.g0_mhz, P.g0 / MHZ, rtol=1e-15)

    def test_angle_monotone_toward_lossless_point(self):
        result = scan_reflectivity()
        upto = result.axis <= lossless_rotation_point().reflectivity + 1e-15
        angles = result.max_angle_deg[upto]
        assert np.all(np.diff(angles) > 0.0)


class TestCnotFeasibility:
    def test_default_report_frozen(self):
        report = cnot_feasibility()
        assert isinstance(report, CnotReport)
        assert report.feasible
        assert report.best_angle_deg == pytest.approx(45.0, abs=1e-9)
        assert report.best_reflectivity == pytest.approx(0.9999883822444183, abs=1e-9)
        assert report.best_delta_mhz == pytest.approx(-2.021916340101459, rel=1e-6)
        assert report.angle_at_limit_deg == pytest.approx(41.20737878144908, rel=1e-9)

    def test_limit_below_lossless_point_infeasible(self, monkeypatch):
        # (coupling scale, mirror limit, best angle in deg): the best mirror is the limit
        for scale, rho_limit, angle in [
            (1.0, 0.99998, 32.60115963881565),
            (0.5, 0.99999, 31.200372509198385),
        ]:
            monkeypatch.setattr(scans, "REFLECTIVITY_LIMIT", rho_limit)
            report = cnot_feasibility(replace(P, g0=scale * P.g0))
            assert not report.feasible
            assert report.best_angle_deg == pytest.approx(angle, rel=1e-6)
            assert report.best_reflectivity == pytest.approx(rho_limit, abs=1e-9)

    def test_lossless_point_inside_bound_feasible(self, monkeypatch):
        # (coupling scale, mirror limit, lossless reflectivity)
        for scale, rho_limit, reflectivity in [
            (2.0, 0.99999, 0.9999759469521942),
            (1.0, 0.9999999, 0.9999883822444183),
        ]:
            monkeypatch.setattr(scans, "REFLECTIVITY_LIMIT", rho_limit)
            report = cnot_feasibility(replace(P, g0=scale * P.g0))
            assert report.feasible
            assert report.best_angle_deg == pytest.approx(45.0, abs=1e-9)
            assert report.best_reflectivity == pytest.approx(reflectivity, abs=1e-9)

    def test_anchor_mirrors_far_from_feasible(self, monkeypatch):
        monkeypatch.setattr(scans, "REFLECTIVITY_LIMIT", DEFAULT_GEOMETRY.reflectivity)
        report = cnot_feasibility()
        assert not report.feasible
        assert report.best_angle_deg == pytest.approx(27.142878946001787, rel=1e-6)

    def test_zero_coupling_infeasible(self):
        geometry = CavityGeometry(
            length=DEFAULT_GEOMETRY.length,
            mirror_roc=DEFAULT_GEOMETRY.mirror_roc,
            reflectivity=DEFAULT_GEOMETRY.reflectivity,
        )
        report = cnot_feasibility(replace(P, g0=0.0), geometry)
        assert not report.feasible
        assert report.best_angle_deg == 0.0

    def test_weak_coupling_infeasible_at_the_limit(self):
        # g0 = gamma/2 < gamma/sqrt(2): no lossless point, and the angle
        # rises with the reflectivity up to REFLECTIVITY_LIMIT.
        weak = replace(P, g0=0.5 * P.gamma)
        report = cnot_feasibility(weak)
        assert not report.feasible
        assert report.best_reflectivity == scans.REFLECTIVITY_LIMIT == 0.99999
        assert report.angle_at_limit_deg == report.best_angle_deg > 0.0
        for rho in 1.0 - np.geomspace(1e-3, 1e-5, 200):
            point = params_for_geometry(replace(DEFAULT_GEOMETRY, reflectivity=rho), weak)
            angle = math.degrees(max_rotation(point, CAVITY_EQUALS_ATOM).angle)
            assert angle <= report.best_angle_deg

    def test_lossless_point_below_the_floor_reads_the_floor(self, monkeypatch):
        # With the floor above the anchor's lossless mirror, the floor is the
        # nearest mirror in range, and the limit is another one.
        monkeypatch.setattr(scans, "REFLECTIVITY_FLOOR", 0.999989)
        report = cnot_feasibility()
        at_floor = params_for_geometry(replace(DEFAULT_GEOMETRY, reflectivity=0.999989), P)
        angle = math.degrees(max_rotation(at_floor, CAVITY_EQUALS_ATOM).angle)
        assert not report.feasible
        assert report.best_reflectivity == 0.999989
        assert report.best_angle_deg == angle < 45.0
        assert report.angle_at_limit_deg == pytest.approx(41.20737878144908, rel=1e-9)

    @pytest.mark.parametrize("g0", [P.g0, 0.5 * P.gamma], ids=["defaults", "no-lossless-point"])
    def test_one_design_point_per_mirror(self, monkeypatch, g0):
        # The limit is evaluated once, also when it is the best mirror.
        made = []
        design_point = scans._design_point

        def counted(*args, **kwargs):
            made.append(kwargs["reflectivity"])
            return design_point(*args, **kwargs)

        monkeypatch.setattr(scans, "_design_point", counted)
        cnot_feasibility(replace(P, g0=g0))
        assert made == [scans.REFLECTIVITY_LIMIT]
