"""Average/effective covert rate and the constrained efficiency optimization.

Both fading averages are a closed-form expectation over the downlink gain
g_rb = lambda_rb * y inside a 1-D rule over the uplink gain g_ar. Both
rates evaluate one ChannelDraw: the outer nodes as g_ar, lambda_rb as g_rb.

* Inner. For fixed g_ar both SNRs are rational in y
  (_downlink_coefficients of that draw), so log(1 + snr) is a
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
  201 nodes of t in [-45, 4.5] (Takahasi-Mori) converges geometrically,
  and the every-other-node sum gives the error estimate at no extra cost.
  Each lane starts its rule at its own node K (95-99 in the benchmark
  domain, lower as the SNR grows). A node's value is at most s e^t for a
  lane constant s (dp / ln 2 for the covert rate, p for the h0 rate), so
  nodes 0..K-1 add at most s * sum_{k<K} w_k e^(t_k); K is the last node
  where that is within 1e-17 of a lower bound on the lane's sum
  (_covert_start, _h0_start). The covert rate adds the bound to
  quad_error. The downlink coefficients and h are evaluated from the
  call's smallest K on, and each lane's nodes before its own K enter the
  sums as exact zeros, so the reductions keep the shape and order of the
  full rule.
* Lanes. A figure grid is evaluated in batched calls
  (optimize_harvest_fractions, average_covert_rates), one lane per
  distinct (SystemParams rate fields, fraction, eta1) point; equal points
  share a lane, evaluated once. Both take the points' lane_values, which
  a recipe builds once for all its calls. Each lane's scalars are a
  (lanes, 1) column broadcast against its row of outer nodes, in blocks of
  _LANE_BLOCK (80) lanes, each with its own probe, starts and search, so a
  call's memory stays bounded however many lanes it has. Every lane equals
  the one-point result bit for bit, whatever its block and the other
  lanes' starts: a covert row is reduced by the same 1-D dot as a
  one-point call (_row_dots; a 2-D matrix-vector product rounds
  differently in the last bit), and the search sums each row over all
  nodes, zero before the lane's start for the rate. The one-point
  functions share the kernels but not the lane set-up, which makes a
  one-lane call about twice as slow (sweep makes one call per row).
* Fraction search. A safeguarded Newton iteration on dJ/dv = 0 in
  v = logit(fraction), advancing all lanes in lock step: each iteration
  makes one h evaluation for the unconverged lanes and takes dJ/dv and
  d2J/dv2 from the ln z derivatives of h, which the kernel returns with it.
  What does not depend on the fraction is formed once per block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import detection, relaying
from .params import (PS, TS, ChannelDraw, SchemeConfig, SystemParams, effective_rate_prefactor, harvest_coeff,
                     info_share, relay_noise_power)

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

# The batched functions evaluate their distinct lanes in blocks of this many,
# so a block's node arrays (lanes x 201 outer nodes) hold about 2^14
# elements, cache-sized like montecarlo._BLOCK, and a call's memory does not
# grow with its lane count.
_LANE_BLOCK = 80

# Outer trapezoid nodes t (g_ar = lambda_ar * e^t) and their weights for the
# Exp(1) density, e^(t - e^t) dt; the end weights are halved.
_OUTER_T, _OUTER_STEP = np.linspace(-45.0, 4.5, 201, retstep=True)
_OUTER_EXP_T = np.exp(_OUTER_T)
_OUTER_W = _OUTER_STEP * np.exp(_OUTER_T - _OUTER_EXP_T)
_OUTER_W[[0, -1]] *= 0.5
# The same rule on every other node (step doubled), for the error estimate.
_OUTER_W_HALF = 2.0 * _OUTER_W[::2]
_OUTER_W_HALF[[0, -1]] = _OUTER_W[[0, -1]]
_OUTER_INDEX = np.arange(_OUTER_T.size)
_TINY = float(np.finfo(float).tiny)
# A lane's rule starts at the last node K whose dropped nodes add at most
# _TAIL_REL of a lower bound on the lane's sum. Node values are bounded by
# s e^t, with s fixed per lane, so nodes 0..K-1 add at most s _OUTER_TAIL[K].
_TAIL_REL = 1e-17
_OUTER_TAIL = np.concatenate([[0.0], np.cumsum(_OUTER_W * _OUTER_EXP_T)[:-1]])
# The lower bound adds up bounds at these nodes, around the peak of the
# weights (t = 0 is node 181.8), each weighted by P(1/2 <= y <= 2) (covert)
# or P(y >= 1/2) (h0), y ~ Exp(1); the last one gives s. The covert weights
# are Python floats, so a one-point call bounds its sum in float arithmetic,
# with the same operations as the lane columns.
_PROBE = slice(178, 195, 4)
_PROBE_W_COVERT = (_OUTER_W[_PROBE] * (math.exp(-0.5) - math.exp(-2.0)) / math.log(2.0)).tolist()
_PROBE_W_H0 = _OUTER_W[_PROBE] * math.exp(-0.5)
_PROBE_LAST_EXP_T = float(_OUTER_EXP_T[_PROBE][-1])

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
    difference between the full and the every-other-node outer rule, plus a
    bound on the rounding error of the closed-form inner expectation, plus
    a bound on what the outer nodes before the lane's first kept node add
    (at most 1e-17 of c_avg).
    """

    c_avg: float
    psi: float
    quad_error: float

    @property
    def converged(self) -> bool:
        return self.quad_error <= QUAD_ERROR_LIMIT


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
    # Every element near: no gather, so h keeps the shape of z.
    z_near = z if n_near == near.size else z[near]
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


def _outer_nodes(params, nodes=slice(None)) -> ChannelDraw:
    return ChannelDraw(g_ar=params.lambda_ar * _OUTER_EXP_T[nodes], g_rb=params.lambda_rb)


# Fields a rate lane carries: those _downlink_coefficients and _outer_nodes
# read.
_LANE_FIELDS = ("Pa", "L_ar", "L_rb", "sigma2_b", "sigma2_ra", "sigma2_rc", "eta0", "eta_u",
                "lambda_ar", "lambda_rb")
_LANE_OF = attrgetter(*_LANE_FIELDS)


def _downlink_coefficients(params, scheme: SchemeConfig, eta1, draw: ChannelDraw) -> tuple:
    """(p, dp, r): both destination SNRs of a draw as rational functions of a downlink gain scale y.

    For the link gains of the draw with g_rb scaled by y:
        1 + snr_h0 = (1 + p y) / (1 + p r y)
        covert snr = dp y / (1 + p (1 + r) y + r p (p + dp) y^2)
    so y = 1 gives the SNRs of the draw itself.

    p: H0 forward power times L_rb g_rb / sigma2_b [-].
    dp: covert surplus, (eta1 - eta0) / eta0 * p in factored form [-].
    r: relay-noise share of the forwarded power, s2r / (s + s2r) [-].

    1 + covert snr factors as (1 + (p + dp) y)(1 + p r y) over the covert
    denominator, so both log(1 + snr) are sums of logs of polynomials in y
    with closed-form expectations when g_rb is exponential.

    The params fields meet only arithmetic and array-wise checks, so the
    lane kernels pass a params stand-in whose fields are (lanes, 1) columns
    (_lanes), with a SchemeConfig whose fraction is such a column, and get
    one row per lane.
    """
    relaying.check_eta1(params, eta1)
    g = relaying.link_gains(params, draw)
    per_eta = harvest_coeff(scheme) * g.a * g.b / params.sigma2_b
    return params.eta0 * per_eta, (eta1 - params.eta0) * per_eta, _relay_noise_share(params, scheme, g.a)


def _relay_noise_share(params, scheme, a):
    """r of _downlink_coefficients, for the source power a received at the relay."""
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    return s2r / (info_share(scheme) * a + s2r)


def _first_nodes(slope, low):
    """First kept outer node: node values are at most slope * e^t, the sum at least low.

    _TINY keeps the quotient finite where slope underflows to zero.
    """
    return _OUTER_TAIL.searchsorted(_TAIL_REL * low / (slope + _TINY), side="right") - 1


def _covert_start(p, dp, r):
    """First kept outer node of a covert lane, and the bound on the nodes before it [bits].

    p, dp and r hold the lane's downlink coefficients at the _PROBE nodes,
    one entry per node: floats, or one column of lanes each. A node's value
    is at most dp / ln 2, as log(1 + x) <= x and snr <= dp y, and dp is
    proportional to e^t. For 1/2 <= y <= 2 the covert snr is at least
    x = (dp / 2) / (1 + 2 b + 4 a), with b and a the coefficients of its
    denominator, and log(1 + x) >= x / (1 + x).
    """
    low = 0.0
    for w, p_j, dp_j, r_j in zip(_PROBE_W_COVERT, p, dp, r):
        x = 0.5 * dp_j / (1.0 + 2.0 * p_j * (1.0 + r_j) + 4.0 * r_j * p_j * (p_j + dp_j))
        low = low + w * x / (1.0 + x)
    slope = dp[-1] / (_PROBE_LAST_EXP_T * math.log(2.0))
    start = _first_nodes(slope, low)
    return start, slope * _OUTER_TAIL[start]


def _h0_start(p, r):
    """First kept outer node of an h0 lane, from p and r at the _PROBE nodes (last axis) as in _covert_start.

    A node's value ln(1 + snr_h0) is at most p, as snr_h0 <= p y, and p is
    proportional to e^t. snr_h0 rises with y, so a node's value is at least
    P(y >= 1/2) ln(1 + x) >= P(y >= 1/2) x / (1 + x), with x = snr_h0(1/2).
    """
    x = 0.5 * p * (1.0 - r) / (1.0 + 0.5 * p * r)
    low = 0.0
    for bound in (_PROBE_W_H0 * x / (1.0 + x)).T:
        low = low + bound
    return _first_nodes(p[..., -1] / _PROBE_LAST_EXP_T, low)


def _full_rows(rows, start):
    """Rows of node values from node start.min() on, over all outer nodes.

    Each row holds exact zeros before its own start, so the reductions keep
    the shape and order of the full rule and a row does not depend on the
    other rows' starts.
    """
    if rows.ndim == 1:
        return np.concatenate((np.zeros(start), rows))
    first = start.min()
    out = np.zeros((len(rows), _OUTER_T.size))
    out[:, first:] = rows
    out[_OUTER_INDEX < start[:, None]] = 0.0
    return out


def lane_values(points) -> list[tuple]:
    """Each point's _LANE_FIELDS values, the lanes the batched functions take: equal tuples make the same lane."""
    return list(map(_LANE_OF, points))


def _lanes(values) -> SimpleNamespace:
    """The _LANE_FIELDS of each lane, as one (lanes, 1) column each.

    _downlink_coefficients only does arithmetic on these fields, so
    given columns it broadcasts each lane's scalars against that lane's row
    of outer nodes: every element goes through the same operations as in a
    one-point call.
    """
    return SimpleNamespace(**{name: col[:, None] for name, col in zip(_LANE_FIELDS, np.array(values).T)})


def _lane_blocks(lanes) -> list:
    """lanes (a list or an index array) in consecutive blocks of at most _LANE_BLOCK."""
    return [lanes[i:i + _LANE_BLOCK] for i in range(0, len(lanes), _LANE_BLOCK)]


def _h0_roots(p, r, slopes=False):
    """h at both roots of the h0 terms, for the eta0 downlink coefficients p and r.

    1 + snr_h0 = (1 + p y) / (1 + p r y), so E[ln(1 + snr_h0)] = h(z) - h(z/r)
    at each node, with z = 1/p. One _h call takes z and z/r stacked on the
    first axis (with slopes, each of its three outputs is stacked so); the
    caller slices them apart at len(p).
    """
    z = 1.0 / p
    return _h(np.concatenate([z, z / r]), slopes=slopes)


def _covert_terms(p: np.ndarray, dp: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[log2(1 + covert snr)] at each node, and its rounding bound.

    Elementwise in 1-D arrays of _downlink_coefficients, for eta1 > eta0.
    """
    p_hi = p + dp
    # 1 + snr = (1 + p_hi y)(1 + p r y) / (1 + b y + a y^2); the discriminant
    # b^2 - 4a is formed without cancelling its two large terms.
    a = r * p * p_hi
    b = p * (1.0 + r)
    disc = (p * (1.0 - r)) ** 2 - 4.0 * r * p * dp
    real = disc >= 0.0
    pair = ~real
    w = b[real] + np.sqrt(disc[real])
    n, m = b.size, w.size
    # Real roots: both numerator roots, then the denominator's large root and
    # its small root from Vieta's formula (root product 1/a).
    h = _h(np.concatenate([1.0 / p_hi, 1.0 / (p * r), w / (2.0 * a[real]), 2.0 / w]))
    h_p_hi, h_pr, h_large, h_small = h[:n], h[n:2 * n], h[2 * n:2 * n + m], h[2 * n + m:]
    # A complex root pair of the denominator contributes 2 Re h(z).
    z_pair = (b[pair] + 1j * np.sqrt(-disc[pair])) / (2.0 * a[pair])
    h_pair = _h(z_pair)
    h_den = np.empty(n)
    h_den[real] = h_large + h_small
    h_den[pair] = 2.0 * h_pair.real
    # Per-node bound on the rounding error of the signed sum.
    rounding = _H_REL_ERR * (np.abs(h_p_hi) + np.abs(h_pr))
    rounding[real] += _H_REL_ERR * (np.abs(h_large) + np.abs(h_small))
    pair_err = np.where(np.abs(z_pair) < _H_PAIR_INACCURATE_Z, _H_PAIR_REL_ERR, _H_REL_ERR)
    rounding[pair] += pair_err * 2.0 * np.abs(h_pair)
    return (h_p_hi + h_pr - h_den) / math.log(2.0), rounding


def _outer_rule(values: np.ndarray, rounding: np.ndarray, start, tail: float) -> tuple[float, float]:
    """Outer trapezoid sum of one lane's node values and its relative error.

    values spans all outer nodes, with exact zeros before start; rounding
    spans the nodes from start on. tail bounds what the dropped nodes add.
    """
    fine = float(_OUTER_W @ values)
    coarse = float(_OUTER_W_HALF @ values[::2])
    err = abs(fine - coarse) + float(_OUTER_W[start:] @ rounding) / math.log(2.0) + float(tail)
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

    A result that fails RateResult.converged (quad_error above
    QUAD_ERROR_LIMIT, or NaN) draws a warning but is still returned.
    That happens as eta1 -> eta0, where the signed sum of h terms cancels
    to the size of the surplus; eta1 == eta0 itself gives exactly zero.
    """
    # One call is mostly per-call overhead: the coefficients on all nodes
    # cost less than a second call for the probe nodes.
    c = _downlink_coefficients(params, scheme, eta1, _outer_nodes(params))
    if eta1 == params.eta0:
        return RateResult(c_avg=0.0, psi=0.0, quad_error=0.0)
    start, tail = _covert_start(*(x[_PROBE].tolist() for x in c))
    values, rounding = _covert_terms(*(x[start:] for x in c))
    fine, err = _outer_rule(_full_rows(values, start), rounding, start, tail)
    result = RateResult(c_avg=fine, psi=effective_rate_prefactor(scheme) * fine, quad_error=err)
    if not result.converged:
        _warn_flagged()
    return result


def average_covert_rates(lanes, variant: str, fractions, eta1s) -> list[RateResult]:
    """average_covert_rate at many points of one scheme variant, in one call.

    lanes is lane_values(points). Lane i is (points[i], SchemeConfig(variant,
    fractions[i]), eta1s[i]); equal lanes are evaluated once, in blocks of
    _LANE_BLOCK distinct lanes. Each lane's result equals the one-point call
    bit for bit; one warning covers every flagged lane.
    """
    keys = [(v, float(f), float(e)) for v, f, e in zip(lanes, fractions, eta1s)]
    if not keys:
        return []
    unique = list(dict.fromkeys(keys))
    values, lane_fractions, eta1 = (np.array(col) for col in zip(*unique))
    # Checks every fraction before any evaluation.
    prefactor = effective_rate_prefactor(SchemeConfig(variant, lane_fractions))
    live = np.flatnonzero(eta1 != values[:, _LANE_FIELDS.index("eta0")])
    fine, err = np.zeros(len(unique)), np.zeros(len(unique))
    for block in _lane_blocks(live):
        fine[block], err[block] = _covert_lanes(values[block], variant, lane_fractions[block], eta1[block])
    found = {key: RateResult(c_avg=c, psi=p, quad_error=e)
             for key, c, p, e in zip(unique, fine.tolist(), (prefactor * fine).tolist(), err.tolist())}
    results = [found[k] for k in keys]
    if any(not r.converged for r in results):
        _warn_flagged()
    return results


def _covert_lanes(values, variant: str, fractions, eta1) -> tuple[np.ndarray, np.ndarray]:
    """c_avg and quad_error of one block of lanes with eta1 > eta0, as one-point calls compute them.

    values holds a lane's _LANE_FIELDS per row; fractions and eta1 one entry per lane.
    _row_dots reduces each row as _outer_rule does a one-point call's.
    """
    sub, scheme = _lanes(values), SchemeConfig(variant, fractions[:, None])
    eta1_col = eta1[:, None]
    probe = _downlink_coefficients(sub, scheme, eta1_col, _outer_nodes(sub, _PROBE))
    start, tail = _covert_start(*(x.T for x in probe))
    first = start.min()
    c = _downlink_coefficients(sub, scheme, eta1_col, _outer_nodes(sub, slice(first, None)))
    node_values, rounding = (x.reshape(c[0].shape) for x in _covert_terms(*(f.ravel() for f in c)))
    values = _full_rows(node_values, start)
    fine = _row_dots(values, _OUTER_W)
    coarse = _row_dots(values[:, ::2], _OUTER_W_HALF)
    # Rounding rows from their own start: zero-padded rows round differently.
    bound = np.empty(len(start))
    for s in set(start.tolist()):
        bound[start == s] = _row_dots(rounding[start == s, s - first:], _OUTER_W[s:])
    err = np.abs(fine - coarse) + bound / math.log(2.0) + tail
    np.divide(err, np.abs(fine), out=err, where=fine != 0.0)
    return fine, err


def _row_dots(rows, w) -> np.ndarray:
    """w @ row for each row, bit for bit: one vector dot per 1 x n matrix (rows @ w and einsum round apart)."""
    return np.matmul(rows[:, None, :], w)[:, 0]


def expected_rate_h0(params: SystemParams, scheme: SchemeConfig) -> float:
    """Fading average of log2(1 + snr) for the forwarded signal, no covert data.

    No command calls it: the fraction search sums the same h0 terms per lane
    (_h0_slopes). It is kept as the search tests' one-point oracle of the
    objective, and the benchmark times and checks it as its h0 probe.
    """
    p, _, r = _downlink_coefficients(params, scheme, params.eta0, _outer_nodes(params))
    start = _h0_start(p[_PROBE], r[_PROBE])
    n = p.size - start
    h = _h0_roots(p[start:], r[start:])
    return float(_OUTER_W @ _full_rows(h[:n] - h[n:], start)) / math.log(2.0)


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

    At eta0 == eta_u the budget limit is 0: epsilon > 0 skips the covertness
    branch, and epsilon = 0 gives eta1 = eta0, which is not below the cap.
    """
    eta0, eta_u = params.eta0, params.eta_u
    if params.epsilon <= covertness_budget_limit(eta0, eta_u):
        eta1 = eta0 / detection.solve_phi_epsilon(params.epsilon)
        if eta1 < eta_u:
            return eta1, BINDING_COVERTNESS
    return eta_u, BINDING_HARVESTER


def _h0_slopes(lanes, variant: str, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dJ/dv and d2J/dv2 per lane at fractions f, for v = logit(f), from a block's search rows (_newton_search).

    J is the no-covert effective rate up to a constant factor. Both roots z
    of the h0 terms enter through h(z), so their v-derivatives follow from
    the ln z derivatives of h (_h0_roots with slopes) and those of ln z in
    v. All three row sums start at the lane's first node for the rate.
    """
    scheme = SimpleNamespace(variant=variant, fraction=f[:, None])  # the search checked its fractions
    probe_p, probe_r = _h0_coefficients(lanes, scheme, _PROBE)
    start = _h0_start(probe_p, probe_r)
    first = start.min()
    p, r = _h0_coefficients(lanes, scheme, slice(first, None))
    parts = _h0_roots(p, r, slopes=True)
    n = len(p)
    (h1, h2), (zh1_1, zh1_2), (dzh1_1, dzh1_2) = ((x[:n], x[n:]) for x in parts)
    if variant == TS:
        # Both roots scale as e^(-v): d ln z / dv = -1.
        terms = (h1 - h2, zh1_2 - zh1_1, dzh1_1 - dzh1_2)
    else:
        # J is rate / 2, so only the rate's derivatives are summed.
        # z1 scales as 1/f, and ln z2 = ln z1 - ln r with r = N / (N + (1 - f) a),
        # N the relay noise: k = d ln r / df and dk/df in closed form.
        fc = scheme.fraction
        g = fc * (1.0 - fc)  # df/dv
        a = lanes.a[:, first:]
        noise = relay_noise_power(scheme, lanes.sigma2_ra, lanes.sigma2_rc)
        k = (a / noise) * (lanes.sigma2_rc / noise) * r  # ratios: a squared power can overflow
        dk = k * (lanes.sigma2_ra + (a + lanes.sigma2_ra) * r) / noise
        lv1, lvv1 = fc - 1.0, g
        lv2 = lv1 - g * k
        lvv2 = lvv1 - g * (1.0 - 2.0 * fc) * k - g * g * dk
        terms = (zh1_1 * lv1 - zh1_2 * lv2, dzh1_1 * lv1**2 + zh1_1 * lvv1 - dzh1_2 * lv2**2 - zh1_2 * lvv2)
    # Row sums, so a lane's value does not depend on the other lanes, of the
    # elements of _full_rows(t, start) * _OUTER_W, written into one array:
    # every lane keeps the nodes from the last start on, the others by mask.
    last = start.max()
    keep = _OUTER_INDEX[first:last] >= start[:, None]
    rows = np.zeros((n, _OUTER_T.size))
    sums = []
    for t in terms:
        np.multiply(t[:, last - first:], _OUTER_W[last:], out=rows[:, last:])
        np.multiply(t[:, :last - first], _OUTER_W[first:last], out=rows[:, first:last], where=keep)
        sums.append(rows.sum(axis=1))
    if variant == TS:
        # J = (1 - f) / 2 * rate; the factor 1/2 is dropped.
        rate, d1, d2 = sums
        g = f * (1.0 - f)
        return (1.0 - f) * d1 - g * rate, (1.0 - f) * d2 - 2.0 * g * d1 - (1.0 - 2.0 * f) * g * rate
    return tuple(sums)


def _h0_coefficients(lanes, scheme, nodes) -> tuple[np.ndarray, np.ndarray]:
    """p and r of _downlink_coefficients at eta1 = eta0 on some nodes, in its order, from a block's search rows."""
    a = lanes.a[:, nodes]
    p = lanes.eta0 * (harvest_coeff(scheme) * a * lanes.b / lanes.sigma2_b)
    return p, lanes.r[:, nodes] if scheme.variant == TS else _relay_noise_share(lanes, scheme, a)


def optimize_harvest_fractions(lanes, variant: str) -> np.ndarray:
    """Harvesting fraction maximizing the no-covert effective forwarded rate J, per lane (lane_values of the points).

    The search (_newton_search) runs on v = logit(fraction) over (1e-3,
    1 - 1e-3). J vanishes at both ends of (0, 1), so its maximum is interior;
    for PS at high SNR it can lie above 1 - 1e-3, and the search then returns
    that bound. A local search finds the maximum because J is unimodal.

    For TS: with w = f / (1 - f) the prefactor is (1 - f)/2 = 1/(2(1 + w))
    and the harvest coefficient is 2w, so J = H(2w) / (2(1 + w)), where H(c)
    is the forwarded rate at harvest coefficient c. Per realization snr_h0
    is a concave increasing linear-fractional function of c, so H is
    concave with H(0) = 0. J'(w) has the sign of
    phi(w) = 2 H'(2w)(1 + w) - H(2w), and phi'(w) = 4 H''(2w)(1 + w) <= 0,
    so J' changes sign at most once, in w and so in v = ln w. For PS there
    is no such proof; the tests check it against a fine grid.

    Equal lanes are searched once, in blocks of _LANE_BLOCK distinct lanes.
    Every iteration evaluates dJ/dv and d2J/dv2 for the block's unconverged
    lanes in one batched call, and a lane's result does not depend on the
    other lanes.
    """
    unique = list(dict.fromkeys(lanes))
    if not unique:
        return np.empty(0)
    searched = np.concatenate([_newton_search(_lanes(block), variant, len(block)) for block in _lane_blocks(unique)])
    found = dict(zip(unique, searched))
    return np.array([found[v] for v in lanes])


def _newton_search(lanes, variant: str, n: int) -> np.ndarray:
    """Safeguarded Newton on dJ/dv = 0 over _FRACTION_BOUNDS, in lock step.

    Each lane keeps a bracket (lo, hi] on the sign of dJ/dv, unbounded until
    an evaluation sets it. A Newton step from a concave point (d2J/dv2 < 0)
    is clipped to the bounds and taken if it lands in the bracket; any
    other step bisects the bracket within the bounds. A lane stops after a
    Newton step below _LOGIT_TOL, on a bound where dJ/dv still points
    outward, or when its bracket collapses. The variant and the start are
    checked once; each iteration forms only what depends on the fraction.
    """
    f_lo, f_hi = _FRACTION_BOUNDS
    v_lo, v_hi = math.log(f_lo / (1.0 - f_lo)), math.log(f_hi / (1.0 - f_hi))
    out = np.empty(n)
    idx = np.arange(n)
    v = np.full(n, _SEARCH_START.get(variant, 0.0))
    f = 1.0 / (1.0 + np.exp(-v))
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    scheme = SchemeConfig(variant, f[:, None])  # rejects other variants
    # Search rows: the lanes, fraction-free factors on all nodes (r for TS only).
    g = relaying.link_gains(lanes, _outer_nodes(lanes))
    sub = rows = SimpleNamespace(**vars(lanes), a=g.a, b=g.b)
    if variant == TS:
        rows.r = _relay_noise_share(lanes, scheme, g.a)
    for _ in range(_SEARCH_MAXITER):
        d1, d2 = _h0_slopes(sub, variant, f)
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
            sub = SimpleNamespace(**{name: col[idx] for name, col in vars(rows).items()})
        v, f = v_next, f_next
    out[idx] = f
    return out
