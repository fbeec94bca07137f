"""Each truncated product's error against the explicit formula.

Riemann's prime count pi(y) = li(y) - sum_rho li(y^rho) - li(sqrt y)/2
- li(y^(1/3))/3 - ... (Edwards, Riemann's Zeta Function, 1974, ch. 1),
with int_x^inf y^-s d li(y^a) = E1((s - a) log x), predicts log F(s) -
log(value) point by point for the zeta, inverse-zeta and ratio products at
order 2, where F is zeta, 1/zeta or zeta(2s)/zeta, not only the error's
x^(1/2 - sigma) log x size.  The prediction assumes that the 150 zeros
listed below lie on the critical line; the test checks the error's
structure and does not verify RH.
"""

import cmath
import math

import mpmath
import pytest

from eulerprod import ProductVariant, corrected_product, e1, sieve

#: Ordinates gamma of the first 150 nontrivial zeros 1/2 + i gamma of zeta,
#: made locally (about 20 s, nothing is downloaded) by
#: [float(mpmath.zetazero(k).imag) for k in range(1, 151)]
ZETA_ZERO_ORDINATES = (
    14.134725141734695, 21.022039638771556, 25.01085758014569, 30.424876125859512,
    32.93506158773919, 37.586178158825675, 40.9187190121475, 43.327073280915,
    48.00515088116716, 49.7738324776723, 52.970321477714464, 56.44624769706339,
    59.34704400260235, 60.83177852460981, 65.1125440480816, 67.07981052949417,
    69.54640171117398, 72.0671576744819, 75.70469069908393, 77.1448400688748,
    79.33737502024937, 82.91038085408603, 84.73549298051705, 87.42527461312523,
    88.80911120763446, 92.49189927055849, 94.65134404051989, 95.87063422824531,
    98.83119421819369, 101.31785100573138, 103.72553804047834, 105.44662305232609,
    107.1686111842764, 111.02953554316967, 111.87465917699264, 114.32022091545271,
    116.22668032085755, 118.79078286597621, 121.37012500242065, 122.94682929355258,
    124.25681855434577, 127.5166838795965, 129.57870419995606, 131.08768853093267,
    133.4977372029976, 134.75650975337388, 138.11604205453344, 139.7362089521214,
    141.12370740402113, 143.11184580762063, 146.0009824867655, 147.42276534255961,
    150.05352042078488, 150.92525761224147, 153.0246938111989, 156.11290929423788,
    157.59759181759406, 158.8499881714205, 161.18896413759603, 163.030709687182,
    165.5370691879004, 167.1844399781745, 169.09451541556882, 169.9119764794117,
    173.41153651959155, 174.75419152336573, 176.44143429771043, 178.37740777609997,
    179.916484020257, 182.20707848436646, 184.8744678483875, 185.59878367770747,
    187.22892258350186, 189.41615865601693, 192.0266563607138, 193.0797266038457,
    195.26539667952923, 196.87648184095832, 198.01530967625192, 201.2647519437038,
    202.49359451414054, 204.18967180310455, 205.3946972021633, 207.90625888780622,
    209.57650971685626, 211.6908625953653, 213.34791935971268, 214.54704478349143,
    216.1695385082637, 219.0675963490214, 220.714918839314, 221.43070555469333,
    224.00700025460432, 224.9833246695823, 227.4214442796793, 229.33741330552536,
    231.25018870049917, 231.98723525318024, 233.6934041789083, 236.5242296658162,
    237.7698204809252, 239.55547757332764, 241.04915779621658, 242.8232719342226,
    244.07089849707816, 247.1369900748975, 248.10199006014847, 249.5736896447072,
    251.014947795016, 253.06998674799948, 255.30625645491403, 256.38071369443446,
    258.6104394915314, 259.874406989678, 260.8050845045969, 263.57389390487015,
    265.55785183887633, 266.6149737815011, 267.92191508282406, 269.9704490239976,
    271.494055641645, 273.4596091884033, 275.58749264934386, 276.4520495031329,
    278.25074352984194, 279.22925092774517, 282.4651147650521, 283.2111857332339,
    284.83596398090475, 286.6674453630029, 287.9119205014222, 289.5798549292188,
    291.8462913290674, 293.5584341393563, 294.9653696192655, 295.57325487895827,
    297.97927706194344, 299.8403260537213, 301.64932546219416, 302.6967495896069,
    304.8643713408573, 305.7289126020368, 307.2194961281701, 310.1094631467019,
    311.165141530356, 312.4278011806009, 313.9852857311589, 315.47561608947575,
    317.7348059423702, 318.8531042563166,
)


ZETA = ProductVariant.ZETA
INVERSE = ProductVariant.INVERSE_ZETA
RATIO = ProductVariant.RATIO_ZETA2S_OVER_ZETA

#: (coefficient, sign) per variant: the log sum is coeff * sum log(1 + sign*p^-s).
SHAPES = {ZETA: (-1.0, -1.0), INVERSE: (1.0, -1.0), RATIO: (-1.0, 1.0)}

#: The function each product approximates, for mpmath arguments.
TARGETS = {
    ZETA: mpmath.zeta,
    INVERSE: lambda s: 1 / mpmath.zeta(s),
    RATIO: lambda s: mpmath.zeta(2 * s) / mpmath.zeta(s),
}


def explicit_formula_error(s: complex, x: int, variant: ProductVariant) -> complex:
    """log F(s) - log(value) predicted for ``variant``'s product at order 2.

    log(1 + sign u) = sign u - u^2/2 + sign u^3/3 - ..., so with L = log x
    the tail over p > x, less the correction, is coeff*sign*Z + (coeff/2)*W:

        Z = -sum_rho E1((s - rho) L) - E1((s - 1/3) L)/3 + E1((3s - 1) L)/3,
        W = sum_rho E1((2s - rho) L),

    less E1((s - 1/2) L)/2 from Z and E1((2s - 1) L) from W where order 2
    adds no term (Re s outside (1/2, 1)).  The sums over zeros stop at the
    150th, and the x^(1/4 - sigma) terms are left out.
    """
    coeff, sign = SHAPES[variant]
    log_x = math.log(x)

    def tail(a: complex) -> complex:
        return e1(a * log_x).value

    def over_zeros(a: complex) -> complex:
        """sum_rho E1((a - rho) L), rho = 1/2 +- i gamma."""
        return sum(
            tail(a - complex(0.5, gamma)) + tail(a - complex(0.5, -gamma))
            for gamma in ZETA_ZERO_ORDINATES
        )

    z = -over_zeros(s) - tail(s - 1 / 3) / 3 + tail(3 * s - 1) / 3
    w = over_zeros(2 * s)
    if not 0.5 < s.real < 1:
        z -= tail(s - 0.5) / 2
        w -= tail(2 * s - 1)
    return coeff * sign * z + coeff / 2 * w


@pytest.fixture(scope="module")
def deep():
    return sieve(10**7)


def check_explicit_formula(variant: ProductVariant, deep) -> None:
    # The principal log of F / value wraps no branch, since the ratio is
    # near 1.  Measured worst 0.1850 |actual| over the 16 points for each
    # variant; the rest comes from the zeros past the 150th and from the
    # x^(1/4 - sigma) terms.
    for s in (0.75 + 5j, 1.5 + 3j, 1.2 + 10j, 0.9 + 0.5j):
        with mpmath.workdps(30):
            target = complex(TARGETS[variant](mpmath.mpc(s)))
        for x in (10**4, 10**5, 10**6, 10**7):
            value = corrected_product(s, deep.truncate(x), variant, order=2).value
            actual = cmath.log(target / value)
            predicted = explicit_formula_error(s, x, variant)
            assert abs(predicted - actual) < 0.25 * abs(actual), (s, x)


def test_zero_ordinates_match_mpmath():
    assert len(ZETA_ZERO_ORDINATES) == 150
    for k in (1, 150):
        exact = float(mpmath.zetazero(k).imag)
        assert ZETA_ZERO_ORDINATES[k - 1] == pytest.approx(exact, rel=1e-15)


def test_zeta_product_error_follows_the_explicit_formula(deep):
    check_explicit_formula(ZETA, deep)


@pytest.mark.parametrize("variant", [INVERSE, RATIO], ids=lambda v: v.value)
def test_product_error_follows_the_explicit_formula(variant, deep):
    check_explicit_formula(variant, deep)
