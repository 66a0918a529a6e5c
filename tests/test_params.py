"""Parameter objects, geometry derivations, and config parsing."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday.params import (
    CavityGeometry,
    ConfigError,
    DEFAULT_DETECTION,
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    DetectionChain,
    GeometryError,
    SystemParams,
    TWO_PI,
    build_settings,
    derive_g0,
    derive_kappa,
    derive_waist,
    finesse,
    params_for_geometry,
    parse_config_text,
    settings_to_flat,
)

MHZ = TWO_PI * 1e6


class TestDefaults:
    def test_quoted_rates(self):
        p = DEFAULT_PARAMS
        assert p.g0 == pytest.approx(TWO_PI * 2.8e6, rel=1e-12)
        assert p.kappa == pytest.approx(TWO_PI * 4.5e6, rel=1e-12)
        assert p.gamma == pytest.approx(TWO_PI * 182e3, rel=1e-12)
        assert p.zeeman_shift == pytest.approx(TWO_PI * 71e6, rel=1e-12)
        assert p.wavelength == pytest.approx(556e-9, rel=1e-12)
        assert p.waist == pytest.approx(19e-6, rel=1e-12)
        assert p.rabi == pytest.approx(TWO_PI * 1.4e6, rel=1e-12)

    def test_default_geometry(self):
        g = DEFAULT_GEOMETRY
        assert g.length == pytest.approx(150e-6)
        assert g.mirror_roc == pytest.approx(50e-3)
        assert g.reflectivity == pytest.approx(0.999972)

    def test_detection_chain(self):
        d = DEFAULT_DETECTION
        assert (d.cavity_escape, d.fiber_coupling, d.detector_qe, d.input_coupling) == (
            0.9, 0.7, 0.6, 0.6
        )

    def test_strong_coupling_figure_of_merit(self):
        p = DEFAULT_PARAMS
        cooperativity_scale = p.g0**2 / (p.kappa * p.gamma)
        assert 9.5 < cooperativity_scale < 9.6


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["kappa", "gamma", "zeeman_shift", "wavelength", "waist", "rabi"]
    )
    def test_positive_fields_reject_zero(self, field):
        with pytest.raises(ConfigError):
            replace(DEFAULT_PARAMS, **{field: 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls, error, field",
        [(SystemParams, ConfigError, f.name) for f in fields(SystemParams)]
        + [(CavityGeometry, GeometryError, f.name) for f in fields(CavityGeometry)],
    )
    def test_non_finite_fields_rejected(self, cls, error, field, bad):
        with pytest.raises(error, match="finite"):
            cls(**{field: bad})

    def test_g0_zero_allowed(self):
        p = replace(DEFAULT_PARAMS, g0=0.0)
        assert p.g0 == 0.0

    def test_g0_negative_rejected(self):
        with pytest.raises(ConfigError):
            replace(DEFAULT_PARAMS, g0=-1.0)

    def test_geometry_bounds(self):
        with pytest.raises(GeometryError):
            CavityGeometry(length=0.0, mirror_roc=50e-3, reflectivity=0.9999)
        with pytest.raises(GeometryError):
            CavityGeometry(length=150e-6, mirror_roc=50e-3, reflectivity=1.0)
        with pytest.raises(GeometryError):
            # concentric limit: length must stay below twice the mirror ROC
            CavityGeometry(length=0.2, mirror_roc=50e-3, reflectivity=0.9999)

    def test_detection_bounds(self):
        with pytest.raises(ConfigError):
            DetectionChain(cavity_escape=0.0, fiber_coupling=0.7, detector_qe=0.6, input_coupling=0.6)
        with pytest.raises(ConfigError):
            DetectionChain(cavity_escape=0.9, fiber_coupling=1.2, detector_qe=0.6, input_coupling=0.6)

    @given(
        g0=st.floats(0.0, 1e9),
        kappa=st.floats(1.0, 1e9),
        gamma=st.floats(1.0, 1e8),
    )
    @settings(max_examples=50)
    def test_valid_rates_always_construct(self, g0, kappa, gamma):
        p = replace(DEFAULT_PARAMS, g0=g0, kappa=kappa, gamma=gamma)
        assert p.g0 == g0 and p.kappa == kappa and p.gamma == gamma


class TestGeometryDerivations:
    def test_waist_anchor(self):
        # frozen oracle: w0^2 = (L lambda / 2 pi) sqrt(2R/L - 1) at the anchor
        w = derive_waist(DEFAULT_GEOMETRY)
        assert w == pytest.approx(18.505775687131162e-6, rel=1e-12)
        assert abs(w - 19e-6) < 1e-6  # quoted value band

    def test_kappa_anchor(self):
        k = derive_kappa(DEFAULT_GEOMETRY)
        assert k == pytest.approx(TWO_PI * 4.453317828844968e6, rel=1e-12)
        assert abs(k - TWO_PI * 4.5e6) / (TWO_PI * 4.5e6) < 0.05

    def test_kappa_high_reflectivity(self):
        geom = CavityGeometry(length=150e-6, mirror_roc=50e-3, reflectivity=0.99999)
        assert derive_kappa(geom) == pytest.approx(
            TWO_PI * 1.5904563387066504e6, rel=1e-12
        )

    def test_halving_loss_roughly_halves_kappa(self):
        rho1 = 0.99996
        rho2 = 1.0 - (1.0 - rho1) / 2.0
        k1 = derive_kappa(CavityGeometry(150e-6, 50e-3, rho1))
        k2 = derive_kappa(CavityGeometry(150e-6, 50e-3, rho2))
        assert k2 / k1 == pytest.approx(0.5, rel=1e-4)

    def test_non_positive_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            derive_waist(DEFAULT_GEOMETRY, 0.0)

    @pytest.mark.parametrize("reflectivity", [0.0, 1.0, -0.5, math.nan])
    def test_finesse_outside_the_unit_interval_rejected(self, reflectivity):
        with pytest.raises(GeometryError, match="reflectivity must lie in"):
            finesse(reflectivity)

    def test_finesse_monotone_in_reflectivity(self):
        rhos = np.linspace(0.999, 0.99999, 50)
        values = np.array([finesse(r) for r in rhos])
        assert np.all(np.diff(values) > 0)

    def test_g0_long_cavity_oracle(self):
        geom = CavityGeometry(length=600e-6, mirror_roc=50e-3, reflectivity=0.999972)
        g = derive_g0(geom)
        assert g == pytest.approx(TWO_PI * 0.9910680122290539e6, rel=1e-12)

    def test_g0_anchor_identity(self):
        # deriving at the anchor geometry must return the anchor coupling
        assert derive_g0(DEFAULT_GEOMETRY) == pytest.approx(DEFAULT_PARAMS.g0, rel=1e-12)

    def test_g0_monotone_decreasing_in_length(self):
        lengths = np.linspace(150e-6, 6e-3, 100)
        values = [
            derive_g0(CavityGeometry(float(L), 50e-3, 0.999972)) for L in lengths
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_params_for_geometry_rederives(self):
        geom = CavityGeometry(length=300e-6, mirror_roc=50e-3, reflectivity=0.999972)
        p = params_for_geometry(geom)
        assert p.kappa == pytest.approx(derive_kappa(geom), rel=1e-12)
        assert p.g0 == pytest.approx(derive_g0(geom), rel=1e-12)
        assert p.waist == pytest.approx(derive_waist(geom), rel=1e-12)
        assert p.gamma == DEFAULT_PARAMS.gamma  # atomic, geometry-independent


class TestConfigParsing:
    def test_json_object(self):
        cfg = parse_config_text('{"kappa_mhz": 9.0, "length_um": 300}')
        assert cfg == {"kappa_mhz": 9.0, "length_um": 300}

    def test_key_value_lines_with_comments(self):
        text = "# comment\nkappa_mhz = 9.0\n\nlength_um = 300  # trailing\n"
        cfg = parse_config_text(text)
        assert cfg == {"kappa_mhz": 9.0, "length_um": 300}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("kappa_mhz 9.0\n")

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text('{"kappa_mhz": }')

    @pytest.mark.parametrize(
        "text, match",
        [
            # more digits than Python converts to an int
            ('{"g0_mhz": 1' + "0" * 5000 + "}", "invalid JSON"),
            ('["kappa_mhz", 9.0]', "must be an object"),
            ("= 9.0\n", "line 1: empty key"),
            ("g0_mhz = 2\n# again\ng0_mhz = 3\n", "line 3: key 'g0_mhz' given twice"),
            ('{"g0_mhz": 2, "g0_mhz": 3}', "key 'g0_mhz' given twice"),
        ],
        ids=["json-int-too-long", "json-array", "empty-key", "key-twice", "json-key-twice"],
    )
    def test_invalid_text_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_build_settings_scales(self):
        params, geometry, detection = build_settings({"g0_mhz": 1.0, "gamma_khz": 50})
        assert params.g0 == pytest.approx(MHZ, rel=1e-12)
        assert params.gamma == pytest.approx(TWO_PI * 50e3, rel=1e-12)
        assert geometry.length == DEFAULT_GEOMETRY.length

    def test_build_settings_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_settings({"coupling_mhz": 1.0})

    def test_build_settings_non_numeric(self):
        with pytest.raises(ConfigError):
            build_settings({"kappa_mhz": "fast"})

    def test_build_settings_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="'g0_mhz' is too large for a finite float"):
            build_settings({"g0_mhz": 10**400})

    def test_build_settings_invalid_value(self):
        with pytest.raises(ConfigError):
            build_settings({"reflectivity": 2.0})

    def test_flat_round_trip_idempotent(self):
        flat1 = settings_to_flat(DEFAULT_PARAMS, DEFAULT_GEOMETRY, DEFAULT_DETECTION)
        flat2 = settings_to_flat(*build_settings(flat1))
        assert flat1 == flat2

    def test_flat_covers_all_keys(self):
        flat = settings_to_flat(DEFAULT_PARAMS, DEFAULT_GEOMETRY, DEFAULT_DETECTION)
        assert flat["g0_mhz"] == pytest.approx(2.8)
        assert flat["wavelength_nm"] == pytest.approx(556.0)
        assert flat["roc_mm"] == pytest.approx(50.0)
        assert flat["detector_qe"] == pytest.approx(0.6)
