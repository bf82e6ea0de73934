import dataclasses

import pytest

from flowsr import ConfigError, RunConfig, format_config_text, parse_config_text


class TestRunConfig:
    def test_defaults_are_valid(self):
        rc = RunConfig()
        assert rc.phantom == "poiseuille"
        assert rc.tau == 0.01

    def test_round_trip(self):
        rc = RunConfig(dims=(32, 32, 16), factor=(2, 2, 2), noise_psnr=None, tau=0.5)
        assert parse_config_text(format_config_text(rc)) == rc

    def test_round_trip_of_every_field(self):
        defaults = RunConfig()
        rc = RunConfig(
            phantom="helix",
            dims=(30, 24, 12),
            frames=3,
            venc=90.5,
            vmax=-60.25,
            radius=4.5,
            axis="y",
            magnitude_in=0.75,
            magnitude_out=0.125,
            spacing=(1.5, 2.0, 0.5),
            factor=(3, 2, 1),
            kernel="gaussian",
            kernel_fwhm=(7.5, 6.0, 11.0),
            noise_psnr=None,
            seed=99,
            tau=0.3,
            prior="zero-fill",
            baseline="tricubic",
            mask_threshold=0.25,
        )
        for f in dataclasses.fields(RunConfig):
            assert getattr(rc, f.name) != getattr(defaults, f.name), f.name
        back = parse_config_text(format_config_text(rc))
        assert back == rc
        assert repr(back) == repr(rc)  # 30 and 30.0 compare equal; the types must match too

    def test_round_trip_preserves_float_precision(self):
        rc = RunConfig(tau=1.0 / 3.0, vmax=119.99999999999)
        assert parse_config_text(format_config_text(rc)) == rc

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phantom": "sphere"},
            {"factor": (3, 1, 1)},  # does not divide 64
            {"tau": 0.0},
            {"vmax": 200.0},  # >= venc
            {"mask_threshold": 1.5},
            {"frames": 0},
            {"venc": float("inf")},
            {"tau": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_integral_floats_become_ints(self):
        rc = RunConfig(dims=(32.0, 32.0, 32.0), frames=2.0, factor=[2, 2, 2], venc=150)
        assert rc.dims == (32, 32, 32) and rc.factor == (2, 2, 2)
        assert type(rc.frames) is int and type(rc.venc) is float
        back = parse_config_text(format_config_text(rc))
        assert back == rc
        assert repr(back) == repr(rc)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dims": (32.5, 32, 32)},
            {"frames": 2.5},
            {"frames": "2"},
            {"tau": "0.5"},
            {"dims": "32,32,32"},
            {"noise_psnr": "none"},
            {"phantom": 1},
            {"frames": True},
            {"kernel_fwhm": (1.0, 2.0)},
        ],
    )
    def test_fields_hold_to_their_annotations(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            RunConfig(**kwargs)

    def test_effective_radius_auto(self):
        # smallest transverse dim: for axis z that is min(m, n)
        rc = RunConfig(dims=(64, 32, 16), axis="z", factor=(1, 1, 1))
        assert rc.effective_radius() == pytest.approx(0.35 * 32)
        assert dataclasses.replace(rc, radius=5.0).effective_radius() == 5.0


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nphantom = helix  # trailing\ntau = 0.5\n"
        rc = parse_config_text(text)
        assert rc.phantom == "helix"
        assert rc.tau == 0.5

    def test_none_clears_optional(self):
        rc = parse_config_text("noise_psnr = none\n")
        assert rc.noise_psnr is None

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("tau = 0.5\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("tau = 0.5\ntau = 0.7\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("tau 0.5\n")

    def test_bad_triple(self):
        for line in ("dims = 4,4", "factor = 2,x,2"):
            with pytest.raises(ConfigError, match="line 2"):
                parse_config_text(f"tau = 0.5\n{line}\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config_text("tau = fast\n")
