"""Fourier analysis of Boolean functions, wiretap-channel equivalences,
and numerical invariance checking.

The public surface re-exports the main types and operations of the four
submodules; see each module for details:

* :mod:`compwiretap.boolfn` -- truth tables, Fourier expansions,
  influences, variance.
* :mod:`compwiretap.funcdsl` -- the polynomial expression language and
  truth-table file formats.
* :mod:`compwiretap.channels` -- joint/forward/posterior channels, MAP
  estimation, additive and multiplicative noise models.
* :mod:`compwiretap.invariance` -- invariance bounds, Monte Carlo
  verification, moment and lemma checks.
"""

from .boolfn import (
    BOOLEAN_TOL,
    MAX_N,
    PRUNE_TOL,
    InfluenceProfile,
    MultilinearPolynomial,
    PreconditionError,
    TruthTable,
    degree,
    evaluate_batch,
    index_to_point,
    influence_profile,
    influence_spectral,
    inverse_wht,
    is_boolean_function,
    max_influence,
    mean,
    mul,
    point_to_index,
    sub,
    term_count,
    variance,
    wht,
)
from .channels import (
    CommutesReport,
    DiscreteChannel,
    JointDistribution,
    NoiseModel,
    WiretapSpec,
    additive_noise,
    classic_channel,
    commutes,
    eve_success_probability,
    joint_distribution,
    map_estimator,
    multiplicative_noise,
    posterior_channel,
)
from .funcdsl import ParseError, parse_poly, parse_table, serialize_poly
from .invariance import (
    DISTRIBUTIONS,
    PSI_CATALOG,
    InputDistribution,
    InvarianceReport,
    LemmaSuiteReport,
    MomentReport,
    TestFunction,
    additive_bound,
    basic_bound,
    corollary_bound,
    expect_exact,
    expect_gaussian_mc,
    hypothesis_check,
    lemma_suite,
    multiplicative_bound,
    verify_invariance,
    verify_invariance_many,
)

__version__ = "0.1.0"
