"""Master-equation engine: steady states, oracle equivalence, lineshapes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday import lindblad
from spinfaraday.lindblad import (
    CutoffError,
    LindbladModel,
    _parts,
    _solve_points,
    _steady_states,
    _to_real,
    curve_fwhm,
    fluorescence_lineshape,
    fluorescence_rate,
    liouvillian,
    purcell_rate_formula,
    steady_state,
    transmittance_steady,
)
from spinfaraday.optics import t_minus_value
from spinfaraday.params import DEFAULT_PARAMS, TWO_PI

MHZ = TWO_PI * 1e6
P = DEFAULT_PARAMS


def expect(rho, operator, cutoff):
    """<O> = Tr(rho O) for one of the model operators ("a", "number", "excited")."""
    return complex(np.trace(rho @ getattr(lindblad._operators(cutoff), operator)))


def oracle_liouvillian(model):
    """The model's complex d^2 x d^2 generator (row-major vec), built here
    from krons, independent of the package: liouvillian is T^H of it T."""
    nf = model.fock_cutoff + 1
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, nf)), 1))
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(nf))
    eye = np.eye(2 * nf)
    drive = sm + sm.T if model.drive_target == "atom" else a + a.T
    h = (
        -model.detuning_cavity * a.T @ a
        - model.detuning_atom * sm.T @ sm
        + model.g * (a.T @ sm + a @ sm.T)
        + model.drive_amplitude * drive
    )
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c, rate in ((a, 2.0 * model.kappa), (sm, model.gamma)):
        cdc = c.T @ c
        liou += rate * (np.kron(c, c) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T)))
    return liou


def trace_row_solve(model):
    """rho of the complex trace-row solve of the whole d^2 x d^2 generator:
    the test-side oracle, with no basis change, reduction or check."""
    dim = 2 * (model.fock_cutoff + 1)
    a = oracle_liouvillian(model)
    a[0, :] = 0.0
    a[0, :: dim + 1] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    return np.linalg.solve(a, b).reshape(dim, dim)


def at_detuning(model, delta):
    """model with delta as both its atom and its cavity detuning."""
    return replace(model, detuning_atom=float(delta), detuning_cavity=float(delta))


@pytest.fixture
def solve_shapes(monkeypatch):
    """Shapes of every stack of systems handed to _solve_points, from an
    empty _parts cache, so that the first D' inverse is solved here."""
    shapes = []
    _parts.cache_clear()

    def counted(a, b, ok):
        shapes.append(a.shape)
        return _solve_points(a, b, ok)

    monkeypatch.setattr(lindblad, "_solve_points", counted)
    return shapes


class TestModelValidation:
    def test_cutoff_bounds(self):
        kwargs = dict(g=0.0, kappa=P.kappa, gamma=P.gamma,
                      drive_amplitude=0.0, drive_target="cavity")
        with pytest.raises(ValueError):
            LindbladModel(fock_cutoff=1, **kwargs)
        with pytest.raises(ValueError):
            LindbladModel(fock_cutoff=13, **kwargs)

    def test_rates_positive(self):
        with pytest.raises(ValueError):
            LindbladModel(fock_cutoff=3, g=0.0, kappa=0.0, gamma=P.gamma,
                          drive_amplitude=0.0, drive_target="cavity")
        with pytest.raises(ValueError):
            LindbladModel(fock_cutoff=3, g=-1.0, kappa=P.kappa, gamma=P.gamma,
                          drive_amplitude=0.0, drive_target="cavity")

    def test_drive_target_checked(self):
        with pytest.raises(ValueError):
            LindbladModel(
                fock_cutoff=3, g=0.0, kappa=P.kappa, gamma=P.gamma,
                drive_amplitude=1.0, drive_target="mirror",
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize(
        "field",
        ["g", "kappa", "gamma", "drive_amplitude", "detuning_atom", "detuning_cavity"],
    )
    def test_non_finite_field_rejected(self, field, value):
        kwargs = dict(fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
                      drive_amplitude=0.1 * P.kappa, drive_target="cavity")
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(**(kwargs | {field: value}))

    @pytest.mark.parametrize(
        "drive", [complex(0.1, 0.0), np.complex128(0.1), 0.1j, complex(0.1, 1e-9)]
    )
    def test_complex_drive_rejected(self, drive):
        with pytest.raises(ValueError, match="finite real"):
            LindbladModel(fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
                          drive_amplitude=drive * P.kappa, drive_target="cavity")


class TestSteadyState:
    def test_empty_cavity_photon_number(self):
        # coherent steady state of a driven empty cavity: <n> = |eps/(kappa - i delta)|^2
        drive = 0.02 * P.kappa
        for delta_c in MHZ * np.array([-3.0, -0.5, 0.0, 1.7, 4.0]):
            model = LindbladModel(
                fock_cutoff=4, g=0.0, kappa=P.kappa, gamma=P.gamma,
                drive_amplitude=drive, drive_target="cavity",
                detuning_cavity=float(delta_c),
            )
            number = expect(steady_state(model), "number", 4).real
            expected = abs(drive / (P.kappa - 1j * delta_c)) ** 2
            assert number == pytest.approx(expected, rel=1e-8)

    def test_empty_cavity_amplitude_lorentzian_hwhm(self):
        drive = 0.01 * P.kappa
        def amp(delta_c):
            model = LindbladModel(
                fock_cutoff=3, g=0.0, kappa=P.kappa, gamma=P.gamma,
                drive_amplitude=drive, drive_target="cavity",
                detuning_cavity=delta_c,
            )
            return abs(expect(steady_state(model), "a", 3))
        # amplitude response falls to 1/sqrt(2) at one kappa: HWHM = kappa
        assert amp(P.kappa) / amp(0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-8)

    def test_density_matrix_properties(self):
        model = LindbladModel(
            fock_cutoff=4, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.05 * P.kappa, drive_target="cavity",
            detuning_atom=0.8 * MHZ, detuning_cavity=0.8 * MHZ,
        )
        rho = steady_state(model)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)) >= -1e-8

    def test_cutoff_convergence(self):
        kwargs = dict(
            g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=1e-3 * P.kappa, drive_target="cavity",
        )
        n4 = expect(steady_state(LindbladModel(fock_cutoff=4, **kwargs)), "number", 4).real
        n6 = expect(steady_state(LindbladModel(fock_cutoff=6, **kwargs)), "number", 6).real
        assert abs(n6 - n4) < 1e-8

    def test_cutoff_error_on_strong_drive(self):
        model = LindbladModel(
            fock_cutoff=2, g=0.0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=3.0 * P.kappa, drive_target="cavity",
        )
        with pytest.raises(CutoffError):
            steady_state(model)
        # the solver under steady_state still returns the state for diagnostics
        _, top_fock, ok = _steady_states(model, np.zeros(1))
        assert ok[0] and top_fock[0] >= 1e-6

    def test_failed_solve_raises_linalg_error(self, monkeypatch):
        monkeypatch.setattr(
            lindblad, "liouvillian", lambda model: np.full_like(liouvillian(model), np.nan)
        )
        model = LindbladModel(
            fock_cutoff=2, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.1 * P.kappa, drive_target="cavity",
        )
        with pytest.raises(np.linalg.LinAlgError, match="trace or positivity"):
            steady_state(model)


class TestOracleEquivalence:
    def test_weak_drive_matches_analytic(self):
        # module-level spot check; the full 25-point criterion runs in the
        # acceptance suite
        for delta in MHZ * np.array([-6.0, -2.5, -1.1, 0.0, 0.4, 1.8, 6.0]):
            analytic = complex(t_minus_value(float(delta), P.g0, P))
            numeric = transmittance_steady(float(delta), P.g0, P)
            assert abs(numeric - analytic) / abs(analytic) < 1e-6

    def test_two_detuning_matches_analytic(self):
        pairs = [(-2.0, -2.0), (1.3, 1.3), (-1.0, 0.5), (0.7, -0.3)]
        for da, dc in pairs:
            analytic = complex(
                t_minus_value(da * MHZ, P.g0, P, cavity_detuning=dc * MHZ)
            )
            numeric = transmittance_steady(
                da * MHZ, P.g0, P, cavity_detuning=dc * MHZ
            )
            assert abs(numeric - analytic) / abs(analytic) < 1e-6

    def test_decoupled_is_transparent(self):
        numeric = transmittance_steady(0.9 * MHZ, 0.0, P)
        assert abs(numeric - 1.0) < 1e-8

    def test_one_steady_state_per_call(self, monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return steady_state(model)

        monkeypatch.setattr(lindblad, "steady_state", counted)
        transmittance_steady(0.4 * MHZ, P.g0, P, cavity_detuning=-0.3 * MHZ)
        assert [model.g for model in calls] == [P.g0]

    def test_empty_cavity_field_is_the_closed_form(self):
        # The oracle's normalisation -i eta/(kappa - i delta_c) against a
        # numeric g = 0 solve, at AC1's 25 detunings (cavity on the probe)
        # and at the (atom, cavity) detuning pairs of the test above.
        cutoff = lindblad.PROBE_FOCK_CUTOFF
        eta = lindblad.PROBE_DRIVE_RATIO * P.kappa
        pairs = [(da, 0.0) for da in np.linspace(-6.0, 6.0, 25)]
        pairs += [(-2.0, -2.0), (1.3, 1.3), (-1.0, 0.5), (0.7, -0.3)]
        for da, dc in pairs:
            model = LindbladModel(
                fock_cutoff=cutoff, g=0.0, kappa=P.kappa, gamma=P.gamma,
                drive_amplitude=eta, drive_target="cavity",
                detuning_atom=float(da * MHZ), detuning_cavity=float(dc * MHZ),
            )
            numeric = expect(steady_state(model), "a", cutoff)
            closed = -1j * eta / (P.kappa - 1j * dc * MHZ)
            assert abs(numeric - closed) <= 1e-15 * abs(closed)


class TestPurcellRate:
    def test_formula_frozen_value(self):
        assert purcell_rate_formula(P) == pytest.approx(1767145.8676442585, rel=1e-12)

    def test_zero_drive_zero_rate(self):
        model = LindbladModel(
            fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.0, drive_target="atom",
        )
        assert fluorescence_rate(model) == pytest.approx(0.0, abs=1e-20)

    def test_weak_drive_master_matches_formula(self):
        # analytic weak-drive limit of the master equation differs from the
        # bad-cavity formula by [g^2/(g^2 + kappa*gamma/2)]^2 = 0.9032 here
        omega = TWO_PI * 0.001e6
        model = LindbladModel(
            fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=omega / 2.0, drive_target="atom",
        )
        ratio = fluorescence_rate(model) / purcell_rate_formula(P, rabi=omega)
        assert ratio == pytest.approx(0.9031853230944967, rel=1e-6)
        assert 0.9 < ratio < 1.1

    def test_doubling_drive_quadruples_rate(self):
        def rate(omega):
            model = LindbladModel(
                fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
                drive_amplitude=omega / 2.0, drive_target="atom",
            )
            return fluorescence_rate(model)

        omega = TWO_PI * 0.005e6
        assert rate(2.0 * omega) / rate(omega) == pytest.approx(4.0, rel=1e-4)

    def test_detected_rate_near_quoted(self):
        # formula at the full excitation power, times the nominal detection
        # efficiency 0.4, lands within 10% of the quoted detected rate
        detected = 0.4 * purcell_rate_formula(P)
        assert detected == pytest.approx(7.6e5, rel=0.10)

    def test_atom_drive_required(self):
        model = LindbladModel(
            fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.01 * P.kappa, drive_target="cavity",
        )
        with pytest.raises(ValueError):
            fluorescence_rate(model)


GRID = MHZ * np.linspace(-8.0, 8.0, 161)


class TestLineshape:
    def test_bare_atom_lineshape(self):
        shape = fluorescence_lineshape(
            replace(P, g0=0.0), 1.0 / 300.0, GRID, average_positions=False
        )
        width = curve_fwhm(shape.detunings, shape.normalized)
        assert width >= P.gamma
        assert width < 2.0 * P.gamma  # barely saturated at 1 nW-equivalent

    def test_bare_atom_power_broadening(self):
        p0 = replace(P, g0=0.0)
        low = fluorescence_lineshape(p0, 1.0 / 300.0, GRID, average_positions=False)
        high = fluorescence_lineshape(p0, 1.0, GRID, average_positions=False)
        w_low = curve_fwhm(low.detunings, low.normalized)
        w_high = curve_fwhm(high.detunings, high.normalized)
        assert w_high > 5.0 * w_low  # strong saturation broadening at 300 nW

    def test_pinned_atom_width_power_independent(self):
        # at the antinode the linewidth is cavity-coupling dominated and
        # essentially independent of drive power (frozen: about 5.06 MHz)
        widths = []
        for scale in (1.0 / 300.0, 1.0):
            shape = fluorescence_lineshape(P, scale, GRID, average_positions=False)
            widths.append(curve_fwhm(shape.detunings, shape.normalized))
        assert widths[0] == pytest.approx(TWO_PI * 5.0585e6, rel=1e-3)
        assert abs(widths[1] - widths[0]) / widths[0] < 0.01

    def test_averaged_widths_ordered_by_power(self):
        widths = []
        for scale in (1.0 / 300.0, 1.0 / 3.0, 1.0):
            shape = fluorescence_lineshape(P, scale, GRID, n_samples=200, seed=7)
            widths.append(curve_fwhm(shape.detunings, shape.normalized))
        assert widths[0] < widths[1] < widths[2]
        # frozen values for the default sampling (documents the curve family)
        assert widths[0] == pytest.approx(TWO_PI * 0.4320e6, rel=5e-3)
        assert widths[2] == pytest.approx(TWO_PI * 2.2434e6, rel=5e-3)

    def test_averaged_floor_power_independent(self):
        shapes = [
            fluorescence_lineshape(P, scale, GRID, n_samples=200, seed=7)
            for scale in (1.0 / 30000.0, 1.0 / 3000.0)
        ]
        widths = [curve_fwhm(s.detunings, s.normalized) for s in shapes]
        drift = abs(widths[1] - widths[0]) / widths[0]
        assert drift < 0.02  # floor reached: another x10 changes width < 2%
        assert widths[0] > 1.5 * P.gamma  # floor is Purcell-broadened, not bare

    def test_normalized_peaks_at_one(self):
        shape = fluorescence_lineshape(P, 0.5, GRID, n_samples=50, seed=7)
        assert np.nanmax(shape.normalized) == pytest.approx(1.0, rel=1e-12)
        assert shape.failed_points == 0

    def test_deterministic_given_seed(self):
        a = fluorescence_lineshape(P, 0.3, GRID, n_samples=40, seed=11)
        b = fluorescence_lineshape(P, 0.3, GRID, n_samples=40, seed=11)
        c = fluorescence_lineshape(P, 0.3, GRID, n_samples=40, seed=12)
        np.testing.assert_array_equal(a.normalized, b.normalized)
        assert np.max(np.abs(a.normalized - c.normalized)) > 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fluorescence_lineshape(P, 1.0, np.array([]))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            fluorescence_lineshape(P, -0.1, GRID)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"power_scale": math.nan}, "power_scale"),
            ({"power_scale": math.inf}, "power_scale"),
            ({"n_samples": 0}, "n_samples"),
            ({"n_samples": -3}, "n_samples"),
            ({"excitation_waist": 0.0}, "excitation_waist"),
            ({"excitation_waist": -24e-6}, "excitation_waist"),
            ({"excitation_waist": math.nan}, "excitation_waist"),
            ({"excitation_waist": math.inf}, "excitation_waist"),
            ({"power_scale": 0.0}, "power_scale"),
        ],
    )
    def test_bad_input_rejected_before_any_solve(self, monkeypatch, kwargs, match):
        def no_solve(*args, **kw):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr(lindblad, "_solve_points", no_solve)
        args = {"power_scale": 0.5, "n_samples": 10} | kwargs
        with pytest.raises(ValueError, match=match):
            fluorescence_lineshape(P, args.pop("power_scale"), GRID, **args)

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([-1.0, math.nan, 1.0]) * MHZ,
            np.array([0.0, math.inf]) * MHZ,
            np.array([[-1.0, 0.0], [0.0, 1.0]]) * MHZ,
            np.array(2.0 * MHZ),
        ],
        ids=["nan", "inf", "2-D", "0-D"],
    )
    def test_bad_grid_rejected_before_any_solve(self, monkeypatch, grid):
        def no_solve(*args, **kw):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(lindblad, "_solve_points", no_solve)
        with pytest.raises(ValueError, match="detuning_grid"):
            fluorescence_lineshape(P, 0.5, grid, n_samples=10)

    def test_no_cutoff_up_to_the_limit_raises(self, monkeypatch):
        # At power 30 cutoff 3 is rejected (see the liouvillian call count test).
        monkeypatch.setattr(lindblad, "MAX_LINESHAPE_CUTOFF", 3)
        with pytest.raises(CutoffError, match="at cutoff 3"):
            fluorescence_lineshape(P, 30.0, MHZ * np.linspace(-4.0, 4.0, 9), n_samples=8)

    def test_no_finite_point_raises(self, monkeypatch):
        monkeypatch.setattr(
            lindblad, "liouvillian", lambda model: np.full_like(liouvillian(model), np.nan)
        )
        # numpy warns of its all-NaN mean and maximum before the error.
        with pytest.warns(RuntimeWarning), pytest.raises(
            np.linalg.LinAlgError, match="no finite points"
        ):
            fluorescence_lineshape(P, 1.0, MHZ * np.linspace(-1.0, 1.0, 3), n_samples=2)

    def test_pinned_atom_ignores_sample_count(self):
        pinned = fluorescence_lineshape(P, 0.5, GRID[:5], average_positions=False, n_samples=0)
        assert pinned.failed_points == 0


def scattered_rate(rho, cutoff):
    """2 kappa <n> + gamma <sigma_ee> of a density matrix (P's rates)."""
    return (
        2.0 * P.kappa * expect(rho, "number", cutoff).real
        + P.gamma * expect(rho, "excited", cutoff).real
    )


def atom_driven_rate(g, omega, delta, cutoff):
    """Scattered-photon rate of one atom-driven point, cavity on the atom,
    from the test-side oracle; the top Fock population goes unchecked."""
    model = LindbladModel(
        fock_cutoff=cutoff, g=g, kappa=P.kappa, gamma=P.gamma,
        drive_amplitude=0.5 * omega, drive_target="atom",
        detuning_atom=float(delta), detuning_cavity=float(delta),
    )
    return scattered_rate(trace_row_solve(model), cutoff)


class TestBatchedSolver:
    @staticmethod
    def cavity_model(delta_c):
        return LindbladModel(
            fock_cutoff=4, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.05 * P.kappa, drive_target="cavity",
            detuning_atom=float(delta_c), detuning_cavity=float(delta_c),
        )

    def test_singular_point_fails_alone(self):
        models = [self.cavity_model(-1.3 * MHZ), self.cavity_model(0.8 * MHZ)]
        first, last = (liouvillian(m) for m in models)
        a = np.stack([first, np.zeros_like(first), last])
        a[:, 0, :] = 0.0
        a[:, 0, :10] = 1.0  # the trace row at cutoff 4 (d = 10)
        b = np.zeros((3, 100, 1))
        b[:, 0] = 1.0
        ok = np.ones(3, dtype=bool)
        x = _solve_points(a.copy(), b, ok)
        np.testing.assert_array_equal(ok, [True, False, True])
        assert np.all(np.isnan(x[1]))
        for k in (0, 2):
            np.testing.assert_array_equal(x[k], np.linalg.solve(a[k], b[k]))

    def test_lineshape_matches_single_point_solves(self):
        power = 0.3
        omega = P.rabi * math.sqrt(power)
        # The second grid's -10 .. -4.5 and 7.3 MHz have no mirror on it.
        for grid in (np.linspace(-4.0, 4.0, 5), np.r_[np.linspace(-10.0, 4.0, 29), 7.3]):
            shape = fluorescence_lineshape(P, power, MHZ * grid, average_positions=False)
            for delta, rate in zip(MHZ * grid, shape.rate):
                expected = atom_driven_rate(P.g0, omega, delta, shape.fock_cutoff)
                assert rate == pytest.approx(expected, rel=1e-12)


class TestMirror:
    @pytest.fixture
    def stack_sizes(self, monkeypatch):
        """Detunings of every _steady_states call the lineshape makes."""
        sizes = []

        def counted(model, detunings):
            sizes.append(detunings.size)
            return _steady_states(model, detunings)

        monkeypatch.setattr(lindblad, "_steady_states", counted)
        return sizes

    def test_solves_each_distinct_magnitude_once(self, stack_sizes):
        # The default fig2 grid, symmetric only to about 1e-8 rad/s.
        grid = TWO_PI * 1e6 * np.linspace(-10.0, 10.0, 121)
        shape = fluorescence_lineshape(P, 1.0 / 300.0, grid, n_samples=3)
        assert shape.fock_cutoff == 3
        assert stack_sizes == [61, 61, 61]
        assert shape.failed_points == 0

    def test_blocked_solve_is_byte_identical(self, solve_shapes, monkeypatch):
        grid = MHZ * np.linspace(-6.0, 6.0, 31)
        whole = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=3, seed=5)
        # The first solve is the cutoff's D' inverse, then one stack per position.
        assert solve_shapes[1][0] == 16
        solve_shapes.clear()
        monkeypatch.setattr(lindblad, "LINESHAPE_BLOCK", 7)
        blocked = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=3, seed=5)
        # The first run cached the D' inverse, so the first position's stacks come first.
        assert [shape[0] for shape in solve_shapes[:3]] == [7, 7, 2]
        np.testing.assert_array_equal(blocked.rate, whole.rate)
        np.testing.assert_array_equal(blocked.normalized, whole.normalized)
        assert blocked.fock_cutoff == whole.fock_cutoff

    @staticmethod
    def nearest_mirror_map(detunings):
        """The earlier rule, solved in grid order: a negative point takes the
        rate of the non-negative point nearest its mirror, when that lies
        within MIRROR_TOLERANCE of the largest |detuning|."""
        source = np.arange(detunings.size)
        upper = np.flatnonzero(detunings >= 0.0)
        lower = np.flatnonzero(detunings < 0.0)
        if upper.size and lower.size:
            upper = upper[np.argsort(detunings[upper], kind="stable")]
            values = detunings[upper]
            mirror = -detunings[lower]
            right = np.minimum(np.searchsorted(values, mirror), values.size - 1)
            left = np.maximum(right - 1, 0)
            nearest = np.where(
                np.abs(values[right] - mirror) < np.abs(values[left] - mirror), right, left
            )
            tolerance = lindblad.MIRROR_TOLERANCE * np.max(np.abs(detunings))
            matched = np.abs(values[nearest] - mirror) <= tolerance
            source[lower[matched]] = upper[nearest[matched]]
        solved, feeds = np.unique(source, return_inverse=True)
        return detunings[solved], feeds

    @pytest.mark.parametrize(
        "lo, hi, n, nudged",
        [
            (-10.0, 10.0, 121, None),  # the default fig2 grid
            (-7.0, 3.0, 40, None),
            (-5.0, 5.0, 4000, None),  # several stacks per position
            (0.0, 5.0, 11, None),
            (-3.0, -1.0, 5, None),
            (-10.0, 10.0, 121, 17),  # one negative point moved by one ulp
        ],
    )
    def test_sort_matches_nearest_mirror_rule(self, stack_sizes, monkeypatch, lo, hi, n, nudged):
        grid = MHZ * np.linspace(lo, hi, n)
        if nudged is not None:
            grid[nudged] = np.nextafter(grid[nudged], -np.inf)
        sorted_map = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=2, seed=5)
        sorted_sizes = list(stack_sizes)
        stack_sizes.clear()
        monkeypatch.setattr(lindblad, "_mirror_map", self.nearest_mirror_map)
        nearest = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=2, seed=5)
        assert stack_sizes == sorted_sizes
        assert np.array_equal(sorted_map.rate, nearest.rate)
        if n == 121:
            assert set(sorted_sizes) == {61}

    @given(
        g_ratio=st.floats(0.0, 2.0),
        omega_ratio=st.floats(0.01, 3.0),
        delta_mhz=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_emission_rate_is_even_in_detuning(self, g_ratio, omega_ratio, delta_mhz):
        g, omega, delta = g_ratio * P.g0, omega_ratio * P.rabi, delta_mhz * MHZ
        plus = atom_driven_rate(g, omega, delta, 4)
        minus = atom_driven_rate(g, omega, -delta, 4)
        assert abs(plus - minus) <= 1e-12 * max(abs(plus), abs(minus))


class TestRealBasis:
    @staticmethod
    def random_model(rng, cutoff, target, drive=1.0):
        """A model with a random real drive of up to drive MHz, of either sign."""
        return LindbladModel(
            fock_cutoff=cutoff,
            g=float(rng.uniform(0.0, 3.0)) * MHZ,
            kappa=float(rng.uniform(0.5, 5.0)) * MHZ,
            gamma=float(rng.uniform(0.5, 5.0)) * MHZ,
            drive_amplitude=drive * MHZ * rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0]),
            drive_target=target,
            detuning_atom=float(rng.uniform(-5.0, 5.0)) * MHZ,
            detuning_cavity=float(rng.uniform(-5.0, 5.0)) * MHZ,
        )

    @pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
    def test_basis_unitary_and_transform_matches_dense(self, cutoff):
        dim = 2 * (cutoff + 1)
        basis = lindblad._operators(cutoff).basis
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim * dim), atol=1e-15)
        for k in range(dim):  # the diagonal matrix units come first
            np.testing.assert_array_equal(basis[:, k].reshape(dim, dim), np.diag(np.eye(dim)[k]))
        # liouvillian is the test-side complex generator in this basis.
        rng = np.random.default_rng(cutoff)
        for target in ("atom", "cavity") * 2:
            model = self.random_model(rng, cutoff, target)
            dense = basis.conj().T @ oracle_liouvillian(model) @ basis
            real = liouvillian(model)
            assert real.dtype == np.float64
            assert np.max(np.abs(real - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("target", ["atom", "cavity"])
    @pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
    def test_matches_complex_trace_row_solve(self, cutoff, target):
        # Drives of up to 0.1 MHz keep every top Fock level under the limit.
        rng = np.random.default_rng(10 * cutoff + len(target))
        for _ in range(4):
            model = self.random_model(rng, cutoff, target, drive=0.1)
            np.testing.assert_allclose(
                steady_state(model), trace_row_solve(model), rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("target", ["atom", "cavity"])
    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_drive_phase_is_a_gauge(self, cutoff, target):
        # A real drive's phase is 0 or pi: rho(-amp) = U rho(amp) U^dag with
        # U = exp(i pi N), N = a^dag a + sp sm, for the oracle and for steady_state.
        ops = lindblad._operators(cutoff)
        u = np.diag((-1.0) ** np.rint(np.real(np.diagonal(ops.number + ops.excited))))
        rng = np.random.default_rng(cutoff + len(target))
        for _ in range(3):
            model = self.random_model(rng, cutoff, target, drive=0.1)
            flipped = replace(model, drive_amplitude=-model.drive_amplitude)
            for solve in (trace_row_solve, steady_state):
                np.testing.assert_allclose(
                    solve(flipped), u @ solve(model) @ u, rtol=0.0, atol=1e-12
                )

    def test_non_hermiticity_preserving_generator_fails_alone(self, monkeypatch):
        # The per-cutoff check rejects i times a generator, and only it.
        generator = lindblad._commutator_superoperator(lindblad._operators(3).number)
        np.testing.assert_array_equal(
            _to_real(generator, coherent=True), -lindblad._operators(3).real[2]
        )
        with pytest.raises(RuntimeError, match="Hermitian-preserving"):
            _to_real(1j * generator, coherent=True)
        # Such a coherent part fails the cutoff's operators as they are built.
        commutator = lindblad._commutator_superoperator
        monkeypatch.setattr(lindblad, "_commutator_superoperator", lambda h: 1j * commutator(h))
        with pytest.raises(RuntimeError, match="Hermitian-preserving"):
            lindblad._operators.__wrapped__(3)

    def test_broken_block_structure_fails_its_cutoff(self, monkeypatch):
        # A Hermitian-preserving generator that fills the wrong blocks: a
        # dissipator with a coherent part, or a coherent part as a dissipator.
        generator = lindblad._commutator_superoperator(lindblad._operators(3).number)
        _to_real(generator, coherent=True)
        with pytest.raises(RuntimeError, match="block structure"):
            _to_real(generator, coherent=False)
        dissipator = lindblad._dissipator
        monkeypatch.setattr(
            lindblad, "_dissipator",
            lambda c: dissipator(c) + lindblad._commutator_superoperator(c + c.conj().T),
        )
        with pytest.raises(RuntimeError, match="block structure"):
            lindblad._operators.__wrapped__(3)

    def test_lineshape_calls_liouvillian_once_per_position(self, monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return liouvillian(model)

        monkeypatch.setattr(lindblad, "liouvillian", counted)
        grid = MHZ * np.linspace(-4.0, 4.0, 9)
        shape = fluorescence_lineshape(P, 1.0 / 300.0, grid, n_samples=3)
        assert shape.fock_cutoff == 3
        assert len(calls) == 3

        # At power 30 cutoff 3 is rejected: its pass stops at the first
        # position whose top Fock level is over the limit.
        calls.clear()
        shape = fluorescence_lineshape(P, 30.0, grid, n_samples=8)
        cutoffs = [model.fock_cutoff for model in calls]
        assert shape.fock_cutoff == 5
        assert 0 < cutoffs.count(3) < 8
        assert cutoffs.count(5) == 8


class TestSchurSolve:
    """The reduced solve against the test-side complex oracle."""

    @given(
        g_ratio=st.floats(0.0, 2.0),
        omega_ratio=st.floats(0.01, 3.0),
        delta_mhz=st.floats(-20.0, 20.0),
        cutoff=st.sampled_from([3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_solve(self, g_ratio, omega_ratio, delta_mhz, cutoff):
        solved = []

        def captured(model, detunings):
            rho, top_fock, ok = _steady_states(model, detunings)
            solved.append((model, detunings.copy(), rho.copy(), ok.copy()))
            return rho, top_fock, ok

        params = replace(P, g0=g_ratio * P.g0, rabi=omega_ratio * P.rabi)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "_steady_states", captured)
            patch.setattr(lindblad, "LINESHAPE_START_CUTOFF", cutoff)
            shape = fluorescence_lineshape(
                params, 1.0, np.array([delta_mhz * MHZ]), average_positions=False
            )
        assert solved[0][0].fock_cutoff == cutoff
        for model, detunings, rho, ok in solved:
            assert ok.all()
            dense = trace_row_solve(at_detuning(model, detunings[0]))
            assert np.max(np.abs(rho[0] - dense)) <= 1e-12 * np.max(np.abs(dense))
            at_cutoff = model.fock_cutoff
            rate, expected = (scattered_rate(r, at_cutoff) for r in (rho[0], dense))
            assert abs(rate - expected) <= 1e-12 * abs(expected)
        model, _, rho, _ = solved[-1]
        assert shape.fock_cutoff == model.fock_cutoff
        assert shape.rate[0] == pytest.approx(scattered_rate(rho[0], model.fock_cutoff), rel=1e-12)

    def test_stacks_are_the_antisymmetric_block(self, solve_shapes):
        grid = MHZ * np.linspace(-6.0, 6.0, 31)
        shape = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=3)
        assert shape.fock_cutoff == 3
        # d = 8: 64 real components, 36 diagonal and symmetric, 28 antisymmetric.
        # One D' inverse per cutoff, then one stack of 16 detunings per position.
        assert solve_shapes == [(1, 36, 36)] + [(16, 28, 28)] * 3

    def test_parts_built_once_per_cutoff_and_rates(self, solve_shapes):
        # cutoff 4: d = 10, 55 symmetric and 45 antisymmetric components.
        first = transmittance_steady(MHZ, P.g0, P)
        again = transmittance_steady(MHZ, P.g0, P)
        assert first == again
        assert solve_shapes == [(1, 55, 55), (1, 45, 45), (1, 45, 45)]
        part = _parts(4, P.kappa, P.gamma)
        assert not any(array.flags.writeable for array in part[:-1])
        transmittance_steady(MHZ, P.g0, replace(P, kappa=2.0 * P.kappa))
        assert solve_shapes[3:] == [(1, 55, 55), (1, 45, 45)]
        assert _parts.cache_info().currsize == 2

    def test_singular_reduced_system_fails_alone(self, monkeypatch):
        def zero_second(a, b, ok):
            if a.shape == (3, 28, 28):
                a[1] = 0.0
            return _solve_points(a, b, ok)

        model = LindbladModel(
            fock_cutoff=3, g=P.g0, kappa=P.kappa, gamma=P.gamma,
            drive_amplitude=0.5 * P.rabi, drive_target="atom",
        )
        detunings = MHZ * np.array([0.0, 1.0, 2.0])
        monkeypatch.setattr(lindblad, "_solve_points", zero_second)
        rho, top_fock, ok = _steady_states(model, detunings)
        np.testing.assert_array_equal(ok, [True, False, True])
        assert np.all(np.isnan(rho[1])) and np.isnan(top_fock[1])
        for k in (0, 2):
            expected = trace_row_solve(at_detuning(model, detunings[k]))
            np.testing.assert_allclose(rho[k], expected, rtol=0.0, atol=1e-12)

    def test_failed_position_fails_its_points_alone(self, monkeypatch):
        models = []

        def broken_second(model):
            models.append(model)
            liou = liouvillian(model)
            return np.full_like(liou, np.nan) if len(models) == 2 else liou

        monkeypatch.setattr(lindblad, "liouvillian", broken_second)
        grid = MHZ * np.linspace(-4.0, 4.0, 9)
        shape = fluorescence_lineshape(P, 1.0 / 3.0, grid, n_samples=4)
        assert shape.fock_cutoff == 3 and len(models) == 4
        assert shape.failed_points == grid.size
        kept = models[:1] + models[2:]
        for delta, rate in zip(grid, shape.rate):
            expected = np.mean(
                [atom_driven_rate(m.g, 2.0 * m.drive_amplitude, delta, 3) for m in kept]
            )
            assert rate == pytest.approx(expected, rel=1e-12)


class TestCurveFwhm:
    def test_triangle(self):
        x = np.linspace(-1.0, 1.0, 2001)
        y = np.clip(1.0 - np.abs(x), 0.0, None)
        assert curve_fwhm(x, y) == pytest.approx(1.0, rel=1e-9)

    def test_interpolated_lorentzian(self):
        x = np.linspace(-10.0, 10.0, 4001)
        hwhm = 1.7
        y = 1.0 / (1.0 + (x / hwhm) ** 2)
        assert curve_fwhm(x, y) == pytest.approx(2.0 * hwhm, rel=1e-5)

    def test_no_half_maximum_crossing_rejected(self):
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="does not cross half maximum"):
            curve_fwhm(x, 1.0 - 0.2 * np.abs(x))

    def test_boundary_peak_rejected(self):
        x = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError):
            curve_fwhm(x, x)  # peak at the right boundary
