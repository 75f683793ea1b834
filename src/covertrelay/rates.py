"""Average/effective covert rate and the constrained efficiency optimization.

Both fading averages are a closed-form expectation over the downlink gain
g_rb = lambda_rb * y inside a 1-D rule over the uplink gain g_ar. Both
rates evaluate one ChannelDraw: the outer nodes as g_ar, lambda_rb as g_rb.

* Inner. For fixed g_ar both SNRs are rational in y
  (relaying.downlink_coefficients of that draw), so log(1 + snr) is a
  signed sum of log(1 + y/c) over the roots -c of linear and quadratic
  factors. For y ~ Exp(1), E[ln(1 + y/c)] = h(c) with h(z) = e^z E1(z)
  (Gradshteyn & Ryzhik 4.337.1). A complex root pair of the covert
  denominator contributes 2 Re h(z); of a real pair, the small root comes
  from Vieta's formula. h is evaluated in house with numpy alone (_h): the
  power series near 0, banded polynomials in ln z for real z, the
  continued fraction for complex z, and the asymptotic series for
  |z| >= 500, within 4e-16 of mpmath for real z.
* Outer. Substituting g_ar = lambda_ar * e^t turns the exponential average
  into an integral over the real line that decays double-exponentially
  for t -> +inf and like e^(2t) for t -> -inf; the trapezoid rule on
  t in [-45, 4.5] (Takahasi-Mori) converges geometrically, and the
  every-other-node sum gives the error estimate at no extra cost.
* Lanes. A figure grid is evaluated in batched calls
  (optimize_harvest_fractions, average_covert_rates), one lane per
  (SystemParams, fraction, eta1) point. Each lane's scalars are a (lanes, 1)
  column broadcast against its row of outer nodes, and each row is reduced
  by the same 1-D dot as a one-point call (a 2-D matrix-vector product
  rounds differently in the last bit), so every lane equals the one-point
  result bit for bit. The one-point functions share the kernels but not the
  lane set-up, which would make each call about a quarter slower (sweep
  makes one such call per point). The fraction search reduces its rows by
  row sums, also per lane.
* Fraction search. A safeguarded Newton iteration on dJ/dv = 0 in
  v = logit(fraction), advancing all lanes in lock step: each iteration
  makes one h evaluation for the unconverged lanes and takes dJ/dv and
  d2J/dv2 from the ln z derivatives of h, which the kernel returns with it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import detection, relaying
from .params import (PS, TS, ChannelDraw, SchemeConfig, SystemParams, effective_rate_prefactor,
                     relay_noise_power)

QUAD_ERROR_LIMIT = 1e-6

BINDING_COVERTNESS = "covertness"
BINDING_HARVESTER = "harvester-cap"

_FRACTION_BOUNDS = (1e-3, 1.0 - 1e-3)
# The search runs in v = logit(fraction). A Newton step shorter than this
# ends it; the point it lands on is then quadratically closer.
_LOGIT_TOL = 1e-4
_SEARCH_MAXITER = 64  # bisection alone would need about 17 steps
# Starting v per variant (TS f ~ 0.82, PS f ~ 0.99): of the starts tried,
# these took the fewest steps per lane over fig4 grids at six configs of the
# documented domain, about one step fewer than f = 0.5.
_SEARCH_START = {TS: 1.5, PS: 4.5}

# Fields a rate lane carries: those relaying.downlink_coefficients and the
# outer nodes read.
_LANE_FIELDS = ("Pa", "L_ar", "L_rb", "sigma2_b", "sigma2_ra", "sigma2_rc", "eta0", "eta_u",
                "lambda_ar", "lambda_rb")

# Outer trapezoid nodes t (g_ar = lambda_ar * e^t) and their weights for the
# Exp(1) density, e^(t - e^t) dt; the end weights are halved.
_OUTER_T, _OUTER_STEP = np.linspace(-45.0, 4.5, 201, retstep=True)
_OUTER_EXP_T = np.exp(_OUTER_T)
_OUTER_W = _OUTER_STEP * np.exp(_OUTER_T - _OUTER_EXP_T)
_OUTER_W[[0, -1]] *= 0.5
# The same rule on every other node (step doubled), for the error estimate.
_OUTER_W_HALF = 2.0 * _OUTER_W[::2]
_OUTER_W_HALF[[0, -1]] = _OUTER_W[[0, -1]]

# h(z) = e^z E1(z), the kernel of the inner expectation, by branches in |z|:
# the power series near 0; for real z from _BAND_Z to _ASYMPTOTIC_Z, one
# polynomial in ln z per band; for complex z from 1 to _ASYMPTOTIC_Z, the
# continued fraction; above, the asymptotic series.
_ASYMPTOTIC_Z = 500.0
# Asymptotic series z h(z) = sum_k (-1)^k k! / z^k; 8 terms keep the
# truncation near 1e-17 relative for |z| >= 500 and Re z > 0.
_ASYMPTOTIC_COEF = np.array([(-1.0) ** k * math.factorial(k) for k in range(8)])
# Its ln z derivative: d(z h)/d ln z = sum_k -k c_k / z^k.
_ASYMPTOTIC_SLOPE_COEF = -np.arange(8) * _ASYMPTOTIC_COEF
# Power series E1(z) + ln z = -gamma + sum_k (-1)^(k+1) z^k / (k k!): all 19
# coefficients for complex |z| < 1 (truncation below 5e-19), the first 8 for
# real z < _BAND_Z (below 1e-21).
_SERIES_COEF = [-0.5772156649015329] + [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 19)]
_BAND_Z = 0.01
# Real z in [_BAND_Z, _ASYMPTOTIC_Z): 36 bands of width w = _BAND_WIDTH in
# ln z, centred on c_i. Band i holds z h(z) as a polynomial in
# t = ln(z s_i), with s_i = _NEAR_SCALE[1 + i] ~ e^(-c_i), in ascending
# powers: the product rounds less than ln z - c_i would. Fitted at
# mp.dps = 40 by
#     mp.chebyfit(lambda t: z * mp.exp(z) * mp.e1(z), [-w/2, w/2], 10)
# with z = mp.exp(t) / s_i for the float s_i; the fit error is below 4.6e-18
# relative in every band. The bands take over from the series well below z = 1, where the
# series would need 19 terms and cancel against gamma, and they cost fewer
# numpy calls per batch.
_N_BANDS = 36
_BAND_WIDTH = math.log(_ASYMPTOTIC_Z / _BAND_Z) / _N_BANDS
_BAND_COEF = (
    (0.04572760704506971, 0.03463749759794293, 0.01197496451043872, 0.002323872706333978,
     0.00021074149892271813, -1.7043282498270476e-05, -8.95653766737257e-06,
     -1.3975345532329104e-06, -7.035947796707026e-08, 1.6972133250695575e-08),
    (0.05728434462419112, 0.04248743108438135, 0.014178701226910813, 0.002556559663955772,
     0.00017163184502840649, -3.5932417375406156e-05, -1.2027951242860833e-05,
     -1.4952537913617518e-06, -2.5795755767697316e-09, 3.405285616264811e-08),
    (0.07140538779175323, 0.051720020562696485, 0.016565535532392282, 0.002723481347701088,
     9.992635366465962e-05, -6.042402034538715e-05, -1.509176264836857e-05,
     -1.3689424205060343e-06, 1.1841632470707596e-07, 5.606161549526831e-08),
    (0.08852076708467632, 0.0624237371247136, 0.019056996618402502, 0.0027804661221262263,
     -1.2539056423655593e-05, -8.999380474917532e-05, -1.753193392156769e-05,
     -8.770152540408372e-07, 3.0243361494391655e-07, 7.983330079341955e-08),
    (0.10907875066820838, 0.07462705771641111, 0.02153058683669612, 0.0026743771538968713,
     -0.00017216688897935561, -0.00012272700557376898, -1.841891200964995e-05,
     1.3145851581077173e-07, 5.453981537579244e-07, 9.802654927882342e-08),
    (0.13352361081277772, 0.08826982383995849, 0.02381306901199852, 0.002346656919486814,
     -0.00038108413125512576, -0.00015476093028183362, -1.653530185504631e-05,
     1.7684416583646703e-06, 8.164069092757897e-07, 9.807834596675102e-08),
    (0.16226429396686, 0.10317182088480535, 0.02567845759207646, 0.0017403679356274117,
     -0.0006338789688531942, -0.0001798859770810405, -1.0537591573280453e-05,
     4.025616544553039e-06, 1.0441723720556524e-06, 6.310078357165465e-08),
    (0.19563368452061355, 0.11900242573733519, 0.026854210759787164, 0.0008114041840221865,
     -0.0009140416574648398, -0.0001896116433491631, 6.805522795462461e-07, 6.666965544875227e-06,
     1.1108124102371783e-06, -2.3231576820486408e-08),
    (0.23383963847155362, 0.1352573925444974, 0.027039392278234802, -0.0004563067666502178,
     -0.0011911007248131562, -0.00017409490472968986, 1.7397228953101686e-05,
     9.127937234345215e-06, 8.663213942140705e-07, -1.66132542582251e-07),
    (0.27691111397400525, 0.15125093909311274, 0.02593776323286049, -0.0020333444376462017,
     -0.0014200391942681952, -0.00012429186643674823, 3.832268781272061e-05,
     1.0489397425941056e-05, 1.7862529398658512e-07, -3.444907253650448e-07),
    (0.32464538556553446, 0.16613242058793018, 0.023306257482651273, -0.0038289790915461207,
     -0.0015449377396244562, -3.540061295339542e-05, 5.996670613122938e-05, 9.62192495854042e-06,
     -9.757741441636117e-07, -4.978068942903344e-07),
    (0.3765650392664287, 0.1789358835525835, 0.01901474066330178, -0.005683134194693436,
     -0.0015084562442738022, 8.89782180753127e-05, 7.656280894199223e-05, 5.5781874411873636e-06,
     -2.4039779411810543e-06, -5.293318049364354e-07),
    (0.4318953897796286, 0.18866652059811043, 0.013106760986348423, -0.007373420482802346,
     -0.0012672379990134829, 0.00023344432340816895, 8.106889467571333e-05,
     -1.7955307317565652e-06, -3.638032339105023e-06, -3.4139801219262796e-07),
    (0.4895730451248901, 0.19441994281914698, 0.005844841621794487, -0.008643033946676851,
     -0.0008104609909346376, 0.00037041127054760126, 6.75027001871575e-05, -1.1260148586134122e-05,
     -4.02087759029765e-06, 9.490959810808754e-08),
    (0.5482935019163686, 0.19551912424353668, -0.002279226070900169, -0.00924988226994146,
     -0.0001753076292325013, 0.00046486243113597476, 3.415218105395699e-05,
     -2.0034145543327012e-05, -2.9958287109604256e-06, 6.675932294390235e-07),
    (0.6065993831010145, 0.19164278232481338, -0.010585083075996222, -0.009028271008820447,
     0.0005490184869753767, 0.000484672684812236, -1.3774354942749682e-05, -2.452761154837177e-05,
     -5.205269352423963e-07, 1.1162912008389311e-06),
    (0.6630019035063566, 0.18291259644045732, -0.018299219272480172, -0.007944922420875682,
     0.001235445801936273, 0.0004136993630241897, -6.404766403784478e-05, -2.1976756371974643e-05,
     2.6585298801929774e-06, 1.147435662865841e-06),
    (0.716118556333568, 0.16990995475848356, -0.024689751018337418, -0.0061265962170585575,
     0.0017513274162257162, 0.0002616765474915109, -0.00010112532130697997, -1.224418632908856e-05,
     5.188443907241386e-06, 6.412481541594162e-07),
    (0.7648031932354367, 0.15360804858262117, -0.029206455921054243, -0.003842440084102389,
     0.001999036422819651, 6.449923804353429e-05, -0.00011271405319819388, 1.4817526329333808e-06,
     5.814243924123004e-06, -2.010131783431399e-07),
    (0.8082438522095433, 0.1352288959790398, -0.0315836385961114, -0.0014409380958466838,
     0.001947872457880907, -0.00012746348697263837, -9.578506528050974e-05, 1.3955901712054367e-05,
     4.199821707245848e-06, -9.363169010601914e-07),
    (0.8460102615155821, 0.11605852677313348, -0.031872680931421135, 0.0007381445136733131,
     0.0016418948438819074, -0.0002683749284385607, -5.815769947285464e-05, 2.0600713494658716e-05,
     1.209872462084162e-06, -1.1761104740551551e-06),
    (0.8780452646218309, 0.09726652998427855, -0.030396162229944266, 0.002444002987750286,
     0.0011797026980700307, -0.0003335152782723294, -1.4351101345503092e-05,
     1.9886588646036746e-05, -1.6479907762958772e-06, -8.612939106582152e-07),
    (0.9046081309030445, 0.07977212405385034, -0.027644474125288362, 0.003558585479148913,
     0.0006767801865543333, -0.0003249634796322182, 2.1647784402862764e-05, 1.3713476097527076e-05,
     -3.1946723860658057e-06, -2.686402455379176e-07),
    (0.9261878256709769, 0.06418002479159628, -0.024154015882571933, 0.004093888571800436,
     0.00022892088248178594, -0.0002649427969618192, 4.210579058674755e-05, 5.74429361379339e-06,
     -3.185480438327217e-06, 2.3766558985609527e-07),
    (0.9434076562358438, 0.050785171335054155, -0.020405240850444588, 0.004153856216934925,
     -0.00010844390292169589, -0.00018265768274879004, 4.684132682698339e-05,
     -8.297341951642635e-07, -2.1750041828703662e-06, 4.590720502625939e-07),
    (0.9569393775043805, 0.03962671140965651, -0.016762638217661347, 0.0038834172194107328,
     -0.00032135187220686337, -0.0001025918614067122, 4.06543933746653e-05, -4.552487105734176e-06,
     -9.415638388852319e-07, 4.2041660344225063e-07),
    (0.9674375782298653, 0.030564567095149323, -0.013458455368837208, 0.0034250875368996504,
     -0.0004251762408884364, -3.8939953891603145e-05, 2.9579080325368108e-05,
     -5.601859885997989e-06, -1.068027197703193e-08, 2.597423026329176e-07),
    (0.9754974811770033, 0.02335551569189485, -0.010607906406656254, 0.002893241568140653,
     -0.0004488708636071521, 3.9937450703888565e-06, 1.826939081107735e-05, -4.959249926421838e-06,
     4.669591894612561e-07, 1.0027942153124325e-07),
    (0.9816336628984053, 0.017714817128005503, -0.008239424012480385, 0.0023657906578452015,
     -0.00042253496970883587, 2.83224230882445e-05, 9.181636873383036e-06, -3.6342441643090078e-06,
     5.850696598344881e-07, -2.3897409625021752e-09),
    (0.9862744295337609, 0.013358602396523398, -0.006326680737373741, 0.001887431048078672,
     -0.0003706553164549025, 3.8861786896203206e-05, 2.9786882114326086e-06,
     -2.2949144925807617e-06, 5.073709155660886e-07, -4.700029326765673e-08),
    (0.9897661745231602, 0.010028484054251127, -0.004814962681316608, 0.0014779625599870819,
     -0.0003101259855324916, 4.060006402993455e-05, -6.815010528899381e-07, -1.242435185005027e-06,
     3.647146460103624e-07, -5.421719476620412e-08),
    (0.9923829870324418, 0.007502691203695653, -0.003639560327562926, 0.001141125775532534,
     -0.0002510265161293081, 3.751417015445707e-05, -2.493085032978784e-06, -5.342895369915104e-07,
     2.2912674587643128e-07, -4.457226012819517e-08),
    (0.9943381768651048, 0.005598420690984394, -0.0027368612907603925, 0.0008717513647071048,
     -0.00019842024403563124, 3.2309809577830886e-05, -3.132203959576084e-06,
     -1.1420691958912237e-07, 1.2700486316855704e-07, -3.092596348451025e-08),
    (0.995795683046482, 0.004169256771358563, -0.0020500031756035134, 0.0006606787533755982,
     -0.00015415575326366878, 2.6608455277554494e-05, -3.115100610690458e-06,
     1.0372002337404603e-07, 6.00637715747212e-08, -1.907967278817971e-08),
    (0.9968803156494553, 0.0031003394480352037, -0.001531003656883575, 0.0004977338185783628,
     -0.00011826341339657239, 2.126116819508692e-05, -2.7835078459733252e-06,
     1.958042631769266e-07, 2.0665438947621393e-08, -1.0611900350684057e-08),
    (0.9976864232752038, 0.0023029205325522653, -0.0011408773614256576, 0.00037330980230109123,
     -8.988992720277024e-05, 1.663473590833689e-05, -2.3402459659550303e-06, 2.173002485346775e-07,
     -1.6305876183446392e-10, -5.231068555320097e-09),
)
# Edges of the bands in real z; below the first, the series.
_NEAR_EDGES = _BAND_Z * np.exp(_BAND_WIDTH * np.arange(_N_BANDS))
# One Horner table for real z below _ASYMPTOTIC_Z, highest power first:
# column 0 the series (its two missing powers are exact zeros), then the
# bands. The series column's x is z itself, and its scale 1 gives ln z.
_NEAR_COEF = np.column_stack([[0.0, 0.0, *_SERIES_COEF[7::-1]], *(row[::-1] for row in _BAND_COEF)])
_NEAR_SCALE = np.exp(-np.concatenate([[0.0], math.log(_BAND_Z) + _BAND_WIDTH * (np.arange(_N_BANDS) + 0.5)]))
# The full series alone, for complex |z| < 1.
_SERIES_TABLE = np.array(_SERIES_COEF[::-1])[:, None]
# Continued fraction h(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
# (Abramowitz & Stegun 5.1.22), evaluated backward from this depth.
_CF_DEPTH = 128
# Relative accuracy of each h term, for the rounding bound of the signed sum.
# Measured against mpmath at 40 digits on about 35,000 points: real z at
# most 2.3e-16 (scipy's exp1 9.3e-16); complex z at most 5.9e-16 outside
# 1 <= |z| < 10 and 9.3e-14 inside it, where the continued fraction
# converges slowest, at |z| = 1 next to the imaginary axis (scipy's complex
# exp1 8.0e-13).
_H_REL_ERR = 2e-15
_H_PAIR_REL_ERR = 1e-12
_H_PAIR_INACCURATE_Z = 10.0


@dataclass(frozen=True)
class RateResult:
    """Average covert rate, effective covert rate, and quadrature error.

    c_avg and psi are in bits per channel use; quad_error is the relative
    difference between the full and the every-other-node outer rule plus a
    bound on the rounding error of the closed-form inner expectation.
    """

    c_avg: float
    psi: float
    quad_error: float

    @property
    def converged(self) -> bool:
        return self.quad_error <= QUAD_ERROR_LIMIT


@dataclass(frozen=True)
class OptimizationOutcome:
    """Optimal efficiency, the rate it achieves, and which constraint binds."""

    eta1_star: float
    psi_star: float
    binding: str


def _h(z, slopes=False):
    """h(z) = e^z E1(z) elementwise, for real z > 0 or complex z with Re z > 0.

    With slopes (real z only) also returns the first two derivatives in ln z,
    z h' = z h - 1 and z (z h')' = z ((1 + z) h - 1), which the fraction
    search takes its Newton steps from. Branches with no element are skipped.
    """
    is_complex = z.dtype.kind == "c"
    near = (np.abs(z) if is_complex else z) < _ASYMPTOTIC_Z
    n_near = np.count_nonzero(near)
    if not n_near:
        return _h_asymptotic(z, slopes)
    z_near = z[near]
    if is_complex:
        h = _h_complex(z_near)
    else:
        h = _h_polynomial(z_near, _NEAR_EDGES.searchsorted(z_near, side="right"), _NEAR_COEF)
    parts = (h,)
    if slopes:
        zh1 = z_near * h - 1.0
        parts = (h, zh1, z_near * (h + zh1))
    if n_near == near.size:
        return parts if slopes else h
    # The asymptotic series on every element, with the near ones moved to
    # _ASYMPTOTIC_Z, and the near values written over them.
    outs = _h_asymptotic(np.where(near, _ASYMPTOTIC_Z, z), slopes)
    for out, part in zip(outs if slopes else (outs,), parts):
        out[near] = part
    return outs


def _h_asymptotic(z, slopes):
    """h for |z| >= _ASYMPTOTIC_Z; with slopes also z h - 1 and its ln z derivative.

    z h - 1 is summed from the series itself, so it keeps its relative
    accuracy where it is as small as 1/z.
    """
    u = 1.0 / z
    zh1 = _power_sum(_ASYMPTOTIC_COEF, u)
    h = (zh1 + 1.0) * u
    if not slopes:
        return h
    return h, zh1, _power_sum(_ASYMPTOTIC_SLOPE_COEF, u)


def _power_sum(coef, u):
    """sum_{k >= 1} coef[k] u^k, by Horner in place."""
    acc = u * coef[-1]
    for c in coef[-2:0:-1]:
        acc += c
        acc *= u
    return acc


def _h_complex(z):
    """h for complex |z| < _ASYMPTOTIC_Z: the series below 1, else the continued fraction."""
    out = np.empty_like(z)
    series = np.abs(z) < 1.0
    n_series = np.count_nonzero(series)
    if n_series:
        out[series] = _h_polynomial(z[series], np.zeros(n_series, dtype=np.intp), _SERIES_TABLE)
    if n_series < z.size:
        cf = ~series
        zc = z[cf]
        acc = np.zeros_like(zc)
        for k in range(_CF_DEPTH, 0, -1):
            acc = (k * k) / (zc + (2 * k + 1) - acc)
        out[cf] = 1.0 / (zc + 1.0 - acc)
    return out


def _h_polynomial(z, branch, table):
    """h from one Horner pass over the columns of table chosen by branch.

    Column 0 is the series in z, any other a band polynomial in ln z;
    branch indexes _NEAR_EDGES for real z.
    """
    x = np.log(z * _NEAR_SCALE[branch])
    has_series = not branch.all()
    if has_series:
        series = branch == 0
        log_z = x.copy()
        np.copyto(x, z, where=series)
    coef = table.take(branch, axis=1)  # C order, unlike table[:, branch]
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    if has_series:
        return np.where(series, np.exp(z) * (acc - log_z), acc / z)
    return acc / z


def _outer_nodes(params) -> ChannelDraw:
    return ChannelDraw(g_ar=params.lambda_ar * _OUTER_EXP_T, g_rb=params.lambda_rb)


def _lane_values(points) -> list[tuple]:
    """Each point's _LANE_FIELDS values: equal tuples make the same lane."""
    return [tuple(getattr(p, name) for name in _LANE_FIELDS) for p in points]


def _lanes(values) -> SimpleNamespace:
    """The _LANE_FIELDS of each lane, as one (lanes, 1) column each.

    relaying.downlink_coefficients only does arithmetic on these fields, so
    given columns it broadcasts each lane's scalars against that lane's row
    of outer nodes: every element goes through the same operations as in a
    one-point call.
    """
    return SimpleNamespace(**{name: col[:, None] for name, col in zip(_LANE_FIELDS, np.array(values).T)})


def _lane_scheme(variant: str, fractions) -> SimpleNamespace:
    # SchemeConfig stand-in holding a fraction column.
    return SimpleNamespace(variant=variant, fraction=np.asarray(fractions, dtype=float)[:, None])


def _h0_roots(params, scheme, draw, slopes=False):
    """The eta0 downlink coefficients of draw, and h at both roots of the h0 terms.

    1 + snr_h0 = (1 + p y) / (1 + p r y), so E[ln(1 + snr_h0)] = h(z) - h(z/r)
    at each node, with z = 1/p. One _h call takes z and z/r stacked on the
    first axis (with slopes, each of its three outputs is stacked so), and
    np.split(_, 2) separates them.
    """
    c = relaying.downlink_coefficients(params, scheme, params.eta0, draw)
    z = 1.0 / c.p
    return c, _h(np.concatenate([z, z / c.r]), slopes=slopes)


def _covert_terms(p: np.ndarray, dp: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[log2(1 + covert snr)] at each node, and its rounding bound.

    Elementwise in 1-D arrays of DownlinkCoefficients fields, for eta1 > eta0.
    """
    p_hi = p + dp
    # 1 + snr = (1 + p_hi y)(1 + p r y) / (1 + b y + a y^2); the discriminant
    # b^2 - 4a is formed without cancelling its two large terms.
    a = r * p * p_hi
    b = p * (1.0 + r)
    disc = (p * (1.0 - r)) ** 2 - 4.0 * r * p * dp
    real = disc >= 0.0
    w = b[real] + np.sqrt(disc[real])
    n, m = b.size, w.size
    # Real roots: both numerator roots, then the denominator's large root and
    # its small root from Vieta's formula (root product 1/a).
    h = _h(np.concatenate([1.0 / p_hi, 1.0 / (p * r), w / (2.0 * a[real]), 2.0 / w]))
    h_p_hi, h_pr, h_large, h_small = h[:n], h[n:2 * n], h[2 * n:2 * n + m], h[2 * n + m:]
    # A complex root pair of the denominator contributes 2 Re h(z).
    z_pair = (b[~real] + 1j * np.sqrt(-disc[~real])) / (2.0 * a[~real])
    h_pair = _h(z_pair)
    h_den = np.empty(n)
    h_den[real] = h_large + h_small
    h_den[~real] = 2.0 * h_pair.real
    # Per-node bound on the rounding error of the signed sum.
    rounding = _H_REL_ERR * (np.abs(h_p_hi) + np.abs(h_pr))
    rounding[real] += _H_REL_ERR * (np.abs(h_large) + np.abs(h_small))
    pair_err = np.where(np.abs(z_pair) < _H_PAIR_INACCURATE_Z, _H_PAIR_REL_ERR, _H_REL_ERR)
    rounding[~real] += pair_err * 2.0 * np.abs(h_pair)
    return (h_p_hi + h_pr - h_den) / math.log(2.0), rounding


def _outer_rule(values: np.ndarray, rounding: np.ndarray) -> tuple[float, float]:
    """Outer trapezoid sum of one lane's node values and its relative error."""
    fine = float(_OUTER_W @ values)
    coarse = float(_OUTER_W_HALF @ values[::2])
    err = abs(fine - coarse) + float(_OUTER_W @ rounding) / math.log(2.0)
    if fine:
        err /= abs(fine)
    return fine, err


def _warn_flagged() -> None:
    # Static message so repeated sweep points do not spam; the exact error
    # is carried in RateResult.quad_error.
    warnings.warn(
        "covert-rate quadrature exceeded its error budget; "
        "see RateResult.quad_error on the flagged results",
        RuntimeWarning,
        stacklevel=3,
    )


def average_covert_rate(params: SystemParams, scheme: SchemeConfig, eta1: float) -> RateResult:
    """Fading-averaged covert rate C = E[log2(1 + covert snr)].

    A quad_error above QUAD_ERROR_LIMIT flags non-convergence via
    RateResult.converged and a warning, but the value is still returned.
    That happens as eta1 -> eta0, where the signed sum of h terms cancels
    to the size of the surplus; eta1 == eta0 itself gives exactly zero.
    """
    c = relaying.downlink_coefficients(params, scheme, eta1, _outer_nodes(params))
    if eta1 == params.eta0:
        return RateResult(c_avg=0.0, psi=0.0, quad_error=0.0)
    fine, err = _outer_rule(*_covert_terms(c.p, c.dp, c.r))
    if err > QUAD_ERROR_LIMIT:
        _warn_flagged()
    return RateResult(c_avg=fine, psi=effective_rate_prefactor(scheme) * fine, quad_error=err)


def average_covert_rates(points, variant: str, fractions, eta1s) -> list[RateResult]:
    """average_covert_rate at many points of one scheme variant, in one call.

    Lane i is (points[i], SchemeConfig(variant, fractions[i]), eta1s[i]).
    Each lane's result equals the one-point call bit for bit; one warning
    covers every flagged lane.
    """
    lanes = _lanes(_lane_values(points))
    eta1 = np.asarray(eta1s, dtype=float)
    c = relaying.downlink_coefficients(lanes, _lane_scheme(variant, fractions), eta1[:, None], _outer_nodes(lanes))
    live = eta1 != lanes.eta0[:, 0]
    values, rounding = _covert_terms(*(field[live].ravel() for field in (c.p, c.dp, c.r)))
    rows = zip(values.reshape(-1, _OUTER_T.size), rounding.reshape(-1, _OUTER_T.size))
    sums = iter([_outer_rule(v, r) for v, r in rows])
    results = []
    for fraction, has_surplus in zip(fractions, live):
        fine, err = next(sums) if has_surplus else (0.0, 0.0)
        psi = effective_rate_prefactor(SchemeConfig(variant, float(fraction))) * fine
        results.append(RateResult(c_avg=fine, psi=psi, quad_error=err))
    if any(not r.converged for r in results):
        _warn_flagged()
    return results


def expected_rate_h0(params: SystemParams, scheme: SchemeConfig) -> float:
    """Fading average of log2(1 + snr) for the forwarded signal, no covert data."""
    _, h = _h0_roots(params, scheme, _outer_nodes(params))
    at_z, at_zr = np.split(h, 2)
    return float(_OUTER_W @ (at_z - at_zr)) / math.log(2.0)


def covertness_budget_limit(eta0: float, eta_u: float) -> float:
    """Largest epsilon for which the covertness constraint is the binding one.

    Equals 1 - xi*(eta0/eta_u); expressed here in its explicit form so the
    identity can be cross-checked against min_detection_error.
    """
    if eta0 == eta_u:
        return 0.0
    r = eta0 / eta_u
    expo = math.sqrt(eta_u) / (2.0 * (math.sqrt(eta_u) - math.sqrt(eta0)))
    return r ** expo * (math.sqrt(eta_u / eta0) - 1.0)


def optimal_eta1(params: SystemParams) -> tuple[float, str]:
    """Minimum efficiency achieving the constrained rate maximum.

    The effective covert rate is increasing in eta1, so the optimum sits on
    whichever constraint is tighter: the covertness target (eta1 = eta0 /
    phi_epsilon) or the hardware cap eta_u. Scheme-independent.
    """
    eta0, eta_u = params.eta0, params.eta_u
    if eta0 == eta_u:
        return eta_u, BINDING_HARVESTER
    if params.epsilon <= covertness_budget_limit(eta0, eta_u):
        eta1 = eta0 / detection.solve_phi_epsilon(params.epsilon)
        if eta1 < eta_u:
            return eta1, BINDING_COVERTNESS
        return eta_u, BINDING_HARVESTER
    return eta_u, BINDING_HARVESTER


def max_effective_covert_rate(params: SystemParams, scheme: SchemeConfig) -> OptimizationOutcome:
    """Effective covert rate at the optimal eta1 (no further search needed)."""
    eta1_star, binding = optimal_eta1(params)
    rate = average_covert_rate(params, scheme, eta1_star)
    return OptimizationOutcome(eta1_star=eta1_star, psi_star=rate.psi, binding=binding)


def _h0_slopes(lanes, draw, variant: str, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dJ/dv and d2J/dv2 per lane at fractions f, for v = logit(f).

    J is the no-covert effective rate up to a constant factor; draw is
    _outer_nodes(lanes). Both roots z of the h0 terms enter through h(z), so
    their v-derivatives follow from the ln z derivatives of h (_h0_roots
    with slopes) and those of ln z in v.
    """
    scheme = _lane_scheme(variant, f)
    c, parts = _h0_roots(lanes, scheme, draw, slopes=True)
    (h1, h2), (zh1_1, zh1_2), (dzh1_1, dzh1_2) = (np.split(x, 2) for x in parts)
    if variant == TS:
        # Both roots scale as e^(-v): d ln z / dv = -1.
        terms = (h1 - h2, zh1_2 - zh1_1, dzh1_1 - dzh1_2)
    else:
        # z1 scales as 1/f, and ln z2 = ln z1 - ln r with r = N / (N + (1 - f) a),
        # N the relay noise: k = d ln r / df and dk/df in closed form.
        fc = f[:, None]
        g = fc * (1.0 - fc)  # df/dv
        a = relaying.link_gains(lanes, draw).a
        noise = relay_noise_power(scheme, lanes.sigma2_ra, lanes.sigma2_rc)
        k = a * lanes.sigma2_rc * c.r / noise**2
        dk = k * (lanes.sigma2_ra + (a + lanes.sigma2_ra) * c.r) / noise
        lv1, lvv1 = fc - 1.0, g
        lv2 = lv1 - g * k
        lvv2 = lvv1 - g * (1.0 - 2.0 * fc) * k - g * g * dk
        terms = (h1 - h2, zh1_1 * lv1 - zh1_2 * lv2,
                 dzh1_1 * lv1**2 + zh1_1 * lvv1 - dzh1_2 * lv2**2 - zh1_2 * lvv2)
    # Row sums, so a lane's value does not depend on the other lanes.
    rate, d1, d2 = ((t * _OUTER_W).sum(axis=1) for t in terms)
    if variant == TS:
        # J = (1 - f) / 2 * rate; the factor 1/2 is dropped.
        g = f * (1.0 - f)
        return (1.0 - f) * d1 - g * rate, (1.0 - f) * d2 - 2.0 * g * d1 - (1.0 - 2.0 * f) * g * rate
    return d1, d2


def optimize_harvest_fractions(points, variant: str) -> np.ndarray:
    """optimize_harvest_fraction at many points, as one lock-step search.

    Points with equal _LANE_FIELDS share one lane. Every iteration evaluates
    dJ/dv and d2J/dv2 for all unconverged lanes in one batched call, and a
    lane's result does not depend on the other lanes.
    """
    values = _lane_values(points)
    unique = list(dict.fromkeys(values))
    if not unique:
        return np.empty(0)
    found = dict(zip(unique, _newton_search(_lanes(unique), variant, len(unique))))
    return np.array([found[v] for v in values])


def _newton_search(lanes, variant: str, n: int) -> np.ndarray:
    """Safeguarded Newton on dJ/dv = 0 over _FRACTION_BOUNDS, in lock step.

    Each lane keeps a bracket (lo, hi] on the sign of dJ/dv, unbounded until
    an evaluation sets it. A Newton step from a concave point (d2J/dv2 < 0)
    is clipped to the bounds and taken if it lands in the bracket; any
    other step bisects the bracket within the bounds. A lane stops after a
    Newton step below _LOGIT_TOL, on a bound where dJ/dv still points
    outward, or when its bracket collapses.
    """
    f_lo, f_hi = _FRACTION_BOUNDS
    v_lo, v_hi = math.log(f_lo / (1.0 - f_lo)), math.log(f_hi / (1.0 - f_hi))
    out = np.empty(n)
    idx = np.arange(n)
    v = np.full(n, _SEARCH_START[variant])
    f = 1.0 / (1.0 + np.exp(-v))
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    sub, draw = lanes, _outer_nodes(lanes)
    for _ in range(_SEARCH_MAXITER):
        d1, d2 = _h0_slopes(sub, draw, variant, f)
        rising = d1 > 0.0
        lo, hi = np.where(rising, v, lo), np.where(rising, hi, v)
        concave = d2 < 0.0
        target = np.clip(v - np.divide(d1, d2, out=np.full_like(d1, np.nan), where=concave), v_lo, v_hi)
        newton = (lo < target) & (target <= hi)
        v_next = np.where(newton, target, 0.5 * (np.maximum(lo, v_lo) + np.minimum(hi, v_hi)))
        f_next = np.where(v_next == v_hi, f_hi, np.where(v_next == v_lo, f_lo, 1.0 / (1.0 + np.exp(-v_next))))
        at_bound = ((v == v_hi) & rising) | ((v == v_lo) & ~rising)
        done = at_bound | (newton & (np.abs(target - v) <= _LOGIT_TOL)) | (hi - lo <= _LOGIT_TOL)
        if done.any():
            out[idx[done]] = np.where(at_bound, f, f_next)[done]
            keep = ~done
            if not keep.any():
                return out
            idx, v_next, f_next, lo, hi = idx[keep], v_next[keep], f_next[keep], lo[keep], hi[keep]
            sub = SimpleNamespace(**{name: col[idx] for name, col in vars(lanes).items()})
            draw = _outer_nodes(sub)
        v, f = v_next, f_next
    out[idx] = f
    return out


def optimize_harvest_fraction(params: SystemParams, variant: str) -> float:
    """Harvesting fraction maximizing the no-covert effective forwarded rate.

    Safeguarded Newton on J'(v) = 0 over (1e-3, 1 - 1e-3), with v the logit
    of the fraction: J' and J'' come from one evaluation of h and its ln z
    derivatives, and the search stops once a Newton step is below 1e-4 in
    v. The objective vanishes at both ends of (0, 1), so the maximum is
    interior; for PS at high SNR it can lie above 1 - 1e-3, and the search
    then returns that bound. A local search finds the maximum because the
    objective is unimodal.

    For TS: with w = f / (1 - f) the prefactor is (1 - f)/2 = 1/(2(1 + w))
    and the harvest coefficient is 2w, so J = H(2w) / (2(1 + w)), where H(c)
    is the forwarded rate at harvest coefficient c. Per realization snr_h0
    is a concave increasing linear-fractional function of c, so H is
    concave with H(0) = 0. J'(w) has the sign of
    phi(w) = 2 H'(2w)(1 + w) - H(2w), and phi'(w) = 4 H''(2w)(1 + w) <= 0,
    so J' changes sign at most once, in w and so in v = ln w. For PS there
    is no such proof; the tests check it against a fine grid.
    """
    return float(optimize_harvest_fractions([params], variant)[0])
