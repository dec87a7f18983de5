import numpy as np
import pytest
import scipy.constants

from mmpass import channel
from mmpass.geometry import Orientation
from mmpass.scenario import Scenario
from mmpass.waveguide import (SPEED_OF_LIGHT, MediumConstants, WaveguideSpec,
                              mode_spec, power_share, te_modes)
from oracles import coupling_length

# reference constants at 100 GHz in a 3 x 2 mm guide with core index 2,
# frozen from an exact side computation
LAMBDA0 = 0.00299792458
RHO_GUIDED = 4191.690043903364
CUTOFF_TE10 = 1047.1975511965977
CUTOFF_TE01 = 1570.7963267948966
BETA1 = 4058.7735478745833
BETA2 = 3886.2403842127730
ALPHA_W = 0.018420680743952365  # 0.08 dB/m


def _medium():
    return MediumConstants(frequency=100e9, n_core=2.0)


def _guide(alpha_w=ALPHA_W, num_pas=1):
    return WaveguideSpec(a=3e-3, b=2e-3, axis_y=0.0, axis_z=3.0,
                         length=10.0, alpha_w=alpha_w, num_pas=num_pas)


def test_physical_constants_are_codata_2022():
    # the literal, not whichever CODATA vintage a scipy release carries
    assert SPEED_OF_LIGHT == 299792458.0
    assert SPEED_OF_LIGHT == scipy.constants.speed_of_light


def test_medium_wavelength():
    med = _medium()
    assert med.wavelength0 == pytest.approx(LAMBDA0, rel=1e-12)
    assert med.guided_wavenumber == pytest.approx(RHO_GUIDED, rel=1e-12)


def test_mode_constants_te10():
    mode = mode_spec(1, 0, _guide(), _medium())
    assert mode.cutoff_wavenumber == pytest.approx(CUTOFF_TE10, rel=1e-12)
    assert mode.propagation_constant == pytest.approx(BETA1, rel=1e-12)


def test_mode_constants_te01():
    mode = mode_spec(0, 1, _guide(), _medium(), index=2)
    assert mode.cutoff_wavenumber == pytest.approx(CUTOFF_TE01, rel=1e-12)
    assert mode.propagation_constant == pytest.approx(BETA2, rel=1e-12)


def test_mode_ordering():
    med = _medium()
    m1, m2 = te_modes(_guide(), med)
    # dominant mode propagates faster, both below the guided wavenumber
    assert m1.propagation_constant > m2.propagation_constant
    assert m1.propagation_constant < med.guided_wavenumber


def test_evanescent_mode_rejected():
    med = MediumConstants(frequency=20e9, n_core=2.0)
    with pytest.raises(ValueError, match="TE10"):
        mode_spec(1, 0, _guide(), med)


def test_te00_rejected():
    with pytest.raises(ValueError):
        mode_spec(0, 0, _guide(), _medium())


def test_modal_field_attenuation_ratio():
    # the guided amplitude at the pinch decays as sqrt(exp(-alpha_w x))
    wg, med = _guide(), _medium()
    mode = mode_spec(1, 0, wg, med)
    ratio = abs(_gain(wg, 5.0)) / abs(_gain(wg, 0.0))
    assert ratio == pytest.approx(0.9549925860214359, rel=1e-12)


def test_coupling_length_full_extraction():
    kappa = 100.0
    assert coupling_length(1, 1, kappa) == pytest.approx(np.pi / 2 / kappa)


def test_coupling_length_half_power():
    kappa = 40.0
    tau = coupling_length(1, 2, kappa)
    assert kappa * tau == pytest.approx(np.pi / 4)
    assert np.sin(kappa * tau) ** 2 == pytest.approx(0.5)


@pytest.mark.parametrize("n_total", range(1, 9))
def test_equal_quota_cascade(n_total):
    # the cascade the long way: element n receives the residual
    # amplitude left by elements 1..n-1 times its own coupled fraction
    # sin(kappa tau_n); every element pulls exactly 1/N, the share that
    # power_share gives each element of a lossless guide
    kappa = 73.0
    wg = _guide(alpha_w=0.0, num_pas=n_total)
    share = power_share(0.0, wg)
    residual = 1.0
    for n in range(1, n_total + 1):
        coupled = np.sin(kappa * coupling_length(n, n_total, kappa))
        amp = residual * coupled
        assert amp ** 2 == pytest.approx(share, rel=1e-12)
        residual *= np.sqrt(1.0 - coupled ** 2)
    assert share == pytest.approx(1.0 / n_total, rel=1e-12)


def _h_wp(waveguides, x, num_modes=2):
    """H_wp of ``channel.port_factors`` for elements at positions x[m][n]
    on the given guides, every port pointing straight down."""
    x = np.asarray(x, dtype=float)
    med = _medium()
    scn = Scenario(med=med, waveguides=waveguides,
                   modes=te_modes(waveguides[0], med, count=num_modes),
                   users=np.zeros((1, 3)), power=1.0, noise=1.0)
    down = np.zeros(x.shape + (num_modes,))
    return channel.port_factors(scn, x, Orientation(pitch=down,
                                                    roll=down)).h_wp


def _gain(wg, x):
    """The TE10 guide-to-port gain at position x: the H_wp entry of
    element 0 of ``wg``'s N elements, all placed at x."""
    return _h_wp([wg], np.full((1, wg.num_pas), x), num_modes=1)[0, 0]


def test_h_wg_to_pa_at_feed():
    assert _gain(_guide(), 0.0) == pytest.approx(1.0 + 0.0j)


def test_h_wg_to_pa_attenuated_split():
    h = _gain(_guide(num_pas=2), 5.0)
    assert abs(h) == pytest.approx(0.6752817335586347, rel=1e-12)


def test_h_wg_to_pa_full_wavelength_phase():
    wg = _guide(alpha_w=0.0)
    mode = mode_spec(1, 0, wg, _medium())
    x = 2 * np.pi / mode.propagation_constant  # one guided wavelength
    assert np.angle(_gain(wg, x)) == pytest.approx(0.0, abs=1e-9)


def test_h_magnitude_monotone_in_x():
    xs = np.linspace(0.1, 9.9, 25)
    mags = [abs(_gain(_guide(), x)) for x in xs]
    assert np.all(np.diff(mags) < 0)
    mags0 = [abs(_gain(_guide(alpha_w=0.0), x)) for x in xs]
    assert np.allclose(mags0, mags0[0], atol=1e-15)
    # the share is what the magnitude squares to, over any array shape
    np.testing.assert_allclose(power_share(np.reshape(xs, (5, 5)), _guide()),
                               np.reshape(mags, (5, 5)) ** 2, rtol=1e-15)


def test_assemble_block_diagonal():
    wgs = [WaveguideSpec(a=3e-3, b=2e-3, axis_y=y, axis_z=3.0,
                         length=10.0, alpha_w=ALPHA_W, num_pas=1)
           for y in (1.0, 5.0)]
    h = _h_wp(wgs, [[3.0], [7.0]])
    assert h.shape == (4, 4)
    nz = np.abs(h) > 0
    assert nz.sum() == 4
    # mode q of guide m only reaches its own port: diagonal 2x2 blocks
    assert np.all(nz == np.kron(np.eye(2, dtype=bool), np.eye(2, dtype=bool)))
    assert np.count_nonzero(h[:2, 2:]) == 0 and np.count_nonzero(h[2:, :2]) == 0


def test_assemble_column_norms():
    wg = WaveguideSpec(a=3e-3, b=2e-3, axis_y=1.0, axis_z=3.0,
                       length=10.0, alpha_w=ALPHA_W, num_pas=3)
    xs = [1.0, 4.0, 8.5]
    h = _h_wp([wg], [xs])
    expected = np.sqrt(sum(np.exp(-ALPHA_W * x) for x in xs) / 3)
    for col in range(h.shape[1]):
        assert np.linalg.norm(h[:, col]) == pytest.approx(expected, rel=1e-12)
