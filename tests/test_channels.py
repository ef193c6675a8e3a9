from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compwiretap import (
    JointDistribution,
    MultilinearPolynomial,
    PreconditionError,
    TruthTable,
    WiretapSpec,
    additive_noise,
    classic_channel,
    commutes,
    eve_success_probability,
    index_to_point,
    joint_distribution,
    map_estimator,
    multiplicative_noise,
    parse_poly,
    posterior_channel,
)
from compwiretap import boolfn
from compwiretap.boolfn import BOOLEAN_TOL
from compwiretap.channels import VALUE_MERGE_TOL, _merge_values
from helpers import (
    brute_commutes,
    brute_commutes_witness,
    brute_joint,
    brute_success_probability,
    chain_pair_polys,
    eval_poly_at,
    maj3_poly,
    random_boolean_table,
    reference_additive_noise,
    reference_commutes,
    reference_joint_distribution,
    reference_map_estimator,
    reference_multiplicative_noise,
    spec_values,
    zchannel_f_poly,
    zchannel_g_poly,
)


def zchannel_spec() -> WiretapSpec:
    return WiretapSpec.from_polys(zchannel_f_poly(), zchannel_g_poly())


def spec_from_tables(f_values, g_values, n) -> WiretapSpec:
    return WiretapSpec.from_tables(
        TruthTable(n, np.asarray(f_values, dtype=float)),
        TruthTable(n, np.asarray(g_values, dtype=float)))


# ---------------------------------------------------------------------------
# Joint distribution
# ---------------------------------------------------------------------------

def test_joint_zchannel_example():
    joint = joint_distribution(zchannel_spec())
    assert joint.u_values == (-1.0, 1.0)
    assert joint.v_values == (-1.0, 1.0)
    u_marg = dict(zip(joint.u_values, joint.u_marginal()))
    assert u_marg[1.0] == 5 / 8
    assert u_marg[-1.0] == 3 / 8
    # cross-check the full joint against plain enumeration
    spec = zchannel_spec()
    oracle = brute_joint(*(list(values) for values in spec_values(spec)))
    for (u, v), p in oracle.items():
        i = joint.u_values.index(u)
        j = joint.v_values.index(v)
        assert abs(joint.probs[i, j] - float(p)) <= 1e-15


def test_joint_f_equals_g_is_diagonal():
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    joint = joint_distribution(spec)
    off_diag = joint.probs[~np.eye(len(joint.u_values), dtype=bool)]
    assert np.all(off_diag == 0)


def test_dense_joints_are_capped_at_2_20_cells():
    # 1024 x 1024 cells, and the noise f - g also has 1024 values
    at_cap = spec_from_tables(2.0 * np.arange(1024), np.arange(1024), 10)
    assert joint_distribution(at_cap).probs.shape == (1024, 1024)
    assert additive_noise(at_cap).joint_u_noise.shape == (1024, 1024)
    # g has 1025 values, f 1024
    over = spec_from_tables(np.minimum(np.arange(2048), 1023),
                            np.minimum(np.arange(2048), 1024), 11)
    with pytest.raises(ValueError, match=(
            r"^a dense joint of 1025 by 1024 merged values needs 1049600 "
            r"cells, more than the cap of 1048576$")):
        joint_distribution(over)
    # a 1024 x 2 joint, but the noise f - g has 1026 values
    noisy = spec_from_tables(np.where(np.arange(2048) % 2, -1.0, 1.0),
                             np.arange(2048) // 2, 11)
    assert joint_distribution(noisy).probs.shape == (1024, 2)
    with pytest.raises(ValueError, match="1024 by 1026 merged values"):
        additive_noise(noisy)


def test_joint_constant_f():
    spec = WiretapSpec.from_polys(
        MultilinearPolynomial(2, {0: 1.0}), parse_poly("x1", declared_n=2))
    joint = joint_distribution(spec)
    assert joint.v_values == (1.0,)
    assert np.allclose(joint.probs[:, 0], joint.u_marginal())


# ---------------------------------------------------------------------------
# Forward and posterior channels
# ---------------------------------------------------------------------------

def test_classic_channel_zchannel():
    ch = classic_channel(joint_distribution(zchannel_spec()))
    u, v = ch.inputs, ch.outputs
    m = ch.matrix
    assert abs(m[u.index(1.0), v.index(1.0)] - 4 / 5) <= 1e-12
    assert abs(m[u.index(1.0), v.index(-1.0)] - 1 / 5) <= 1e-12
    assert abs(m[u.index(-1.0), v.index(-1.0)] - 1.0) <= 1e-12
    assert abs(ch.prior[u.index(1.0)] - 5 / 8) <= 1e-15


def test_classic_channel_identity_and_independent():
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    ch = classic_channel(joint_distribution(spec))
    assert np.array_equal(ch.matrix, np.eye(2))

    spec = WiretapSpec.from_polys(
        parse_poly("x1", declared_n=2), parse_poly("x2", declared_n=2))
    ch = classic_channel(joint_distribution(spec))
    assert np.allclose(ch.matrix[0], ch.matrix[1])  # rows equal


def test_posterior_channel_zchannel_edge_labels():
    ch = posterior_channel(joint_distribution(zchannel_spec()))
    v, u = ch.inputs, ch.outputs
    m = ch.matrix
    assert m[v.index(1.0), u.index(1.0)] == 1.0
    assert abs(m[v.index(-1.0), u.index(1.0)] - 1 / 4) <= 1e-12
    assert abs(m[v.index(-1.0), u.index(-1.0)] - 3 / 4) <= 1e-12
    assert ch.dropped_inputs == ()


def test_posterior_identity_and_antidiagonal():
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    assert np.array_equal(posterior_channel(joint_distribution(spec)).matrix, np.eye(2))

    minus = MultilinearPolynomial(3, {m: -v for m, v in maj3_poly().coeffs.items()})
    spec = WiretapSpec.from_polys(maj3_poly(), minus)
    m = posterior_channel(joint_distribution(spec)).matrix
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_bayes_consistency_random():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        spec = WiretapSpec.from_tables(
            random_boolean_table(rng, n), random_boolean_table(rng, n))
        joint = joint_distribution(spec)
        forward = classic_channel(joint)
        posterior = posterior_channel(joint)
        prior_u = np.array(forward.prior)
        prior_v = np.array(posterior.prior)
        for i in range(len(joint.u_values)):
            for j in range(len(joint.v_values)):
                lhs = posterior.matrix[j, i] * prior_v[j]
                rhs = forward.matrix[i, j] * prior_u[i]
                assert abs(lhs - rhs) <= 1e-12


def test_eve_view_equivalence_random():
    # Eve's input distribution under (prior, forward channel) equals the
    # exact distribution of f(x); her MAP output distribution matches the
    # estimator applied pointwise to f(x).
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        f = TruthTable(n, rng.integers(0, 3, 1 << n).astype(float))
        g = TruthTable(n, rng.integers(0, 3, 1 << n).astype(float))
        spec = WiretapSpec.from_tables(f, g)
        joint = joint_distribution(spec)
        forward = classic_channel(joint)
        composed_v = np.array(forward.prior) @ forward.matrix
        assert np.max(np.abs(composed_v - joint.v_marginal())) <= 1e-12

        rule = map_estimator(joint)
        # distribution of u-hat via the channel view
        channel_dist = {}
        for j, v in enumerate(joint.v_values):
            channel_dist[rule[v]] = channel_dist.get(rule[v], 0.0) + composed_v[j]
        # distribution of u-hat by applying the rule to f(x) pointwise
        point_dist = {}
        for x_index in range(1 << n):
            fv = f.values[x_index]
            v = min(joint.v_values, key=lambda val: abs(val - fv))
            u_hat = rule[v]
            point_dist[u_hat] = point_dist.get(u_hat, 0.0) + 1.0 / (1 << n)
        assert set(channel_dist) == set(point_dist)
        for key in channel_dist:
            assert abs(channel_dist[key] - point_dist[key]) <= 1e-12


# ---------------------------------------------------------------------------
# MAP estimation and success probability
# ---------------------------------------------------------------------------

def test_map_estimator_zchannel():
    rule = map_estimator(joint_distribution(zchannel_spec()))
    assert rule[1.0] == 1.0
    assert rule[-1.0] == -1.0


def test_map_estimator_identity_and_constant():
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    assert map_estimator(joint_distribution(spec)) == {-1.0: -1.0, 1.0: 1.0}

    # constant f: the estimate is the mode of g's prior
    spec = spec_from_tables([1, 1, 1, 1], [-1, -1, -1, 1], 2)
    assert map_estimator(joint_distribution(spec)) == {1.0: -1.0}


def test_map_tie_breaks_to_smallest_u():
    # g is ±1 balanced on the fiber of each f value
    spec = spec_from_tables([1, 1, 1, 1], [-1, -1, 1, 1], 2)
    assert map_estimator(joint_distribution(spec)) == {1.0: -1.0}


@st.composite
def _joints(draw):
    """A joint from small integer counts, so that columns often tie."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    counts = np.array(draw(st.lists(st.integers(0, 2), min_size=rows * cols,
                                    max_size=rows * cols)), dtype=float)
    if not counts.any():
        counts[draw(st.integers(0, counts.size - 1))] = 1.0
    return JointDistribution(tuple(float(u) for u in range(-1, rows - 1)),
                             tuple(v / 2 for v in range(cols)),
                             (counts / counts.sum()).reshape(rows, cols))


@given(_joints())
def test_map_estimator_matches_a_per_column_loop(joint):
    rule = map_estimator(joint)
    assert rule == reference_map_estimator(joint)
    assert list(rule) == list(joint.v_values)


def test_success_probability_examples():
    assert eve_success_probability(joint_distribution(zchannel_spec())) == 7 / 8
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    assert eve_success_probability(joint_distribution(spec)) == 1.0
    spec = WiretapSpec.from_polys(
        parse_poly("x1", declared_n=2), parse_poly("x2", declared_n=2))
    assert eve_success_probability(joint_distribution(spec)) == 0.5


# ---------------------------------------------------------------------------
# Commutativity
# ---------------------------------------------------------------------------

def test_commutes_injective_f():
    f = parse_poly("x1 + 2*x2 + 4*x3")  # injective on the 8 points
    g = parse_poly("x1*x2", declared_n=3)
    report = commutes(WiretapSpec.from_polys(f, g))
    assert report.commutes and report.witness is None


def test_commutes_constant_f_with_witness():
    spec = WiretapSpec.from_polys(
        MultilinearPolynomial(1, {0: 1.0}), parse_poly("x1"))
    report = commutes(spec)
    assert not report.commutes
    x0, x1 = report.witness
    assert x0 != x1


def test_commutes_zchannel_false_with_valid_witness():
    spec = zchannel_spec()
    report = commutes(spec)
    assert not report.commutes
    x0, x1 = report.witness
    assert eval_poly_at(spec.f_poly.coeffs, x0) == eval_poly_at(spec.f_poly.coeffs, x1)
    assert eval_poly_at(spec.g_poly.coeffs, x0) != eval_poly_at(spec.g_poly.coeffs, x1)


def test_commutes_iff_success_one_random():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        f = random_boolean_table(rng, n)
        g = random_boolean_table(rng, n)
        spec = WiretapSpec.from_tables(f, g)
        expected = brute_commutes(list(f.values), list(g.values))
        assert commutes(spec).commutes == expected
        assert (eve_success_probability(joint_distribution(spec)) == 1.0) == expected


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

def test_additive_noise_f_equals_g():
    spec = WiretapSpec.from_polys(maj3_poly(), maj3_poly())
    nm = additive_noise(spec)
    assert nm.noise_values == (0.0,)
    assert nm.noise_probs == (1.0,)
    assert nm.poly.coeffs == {}
    assert nm.reconstruction_max_error == 0.0


def test_additive_noise_two_dictators():
    spec = WiretapSpec.from_polys(
        parse_poly("x1", declared_n=2), parse_poly("x2", declared_n=2))
    nm = additive_noise(spec)
    assert nm.noise_values == (-2.0, 0.0, 2.0)
    assert nm.noise_probs == (0.25, 0.5, 0.25)
    assert nm.reconstruction_max_error == 0.0


def test_additive_noise_chain_example():
    n = 4
    f, g = chain_pair_polys(n)
    spec = WiretapSpec.from_polys(f, g)
    nm = additive_noise(spec)
    # independent oracle: enumerate N = f - g over the 16 points
    raw = {}
    for i in range(1 << n):
        point = tuple(1 - 2 * ((i >> j) & 1) for j in range(n))
        value = eval_poly_at(f.coeffs, point) - eval_poly_at(g.coeffs, point)
        raw[value] = raw.get(value, 0) + Fraction(1, 1 << n)
    assert len(nm.noise_values) == len(raw)
    for value, prob in zip(nm.noise_values, nm.noise_probs):
        exact = raw[min(raw, key=lambda r: abs(float(r) - value))]
        assert abs(prob - float(exact)) <= 1e-15
    # joint over (u, N) has the right marginals
    assert abs(sum(nm.noise_probs) - 1.0) <= 1e-12
    assert np.asarray(nm.joint_u_noise).sum() == pytest.approx(1.0, abs=1e-12)


def test_multiplicative_noise_zchannel():
    nm = multiplicative_noise(zchannel_spec())
    probs = dict(zip(nm.noise_values, nm.noise_probs))
    assert probs[-1.0] == 1 / 8
    assert nm.flip_one_to_minus == 1 / 4
    assert nm.flip_minus_to_one == 0.0
    assert nm.reconstruction_max_error == 0.0
    # agreement between the posterior edge label and the flip parameter:
    # Pr(u=1 | v=-1) equals Pr(N=-1 | uN=-1)
    post = posterior_channel(joint_distribution(zchannel_spec()))
    got = post.matrix[post.inputs.index(-1.0), post.outputs.index(1.0)]
    assert abs(got - nm.flip_one_to_minus) <= 1e-15


def test_multiplicative_noise_f_equals_g():
    spec = WiretapSpec.from_polys(
        parse_poly("x1"), parse_poly("x1"))
    nm = multiplicative_noise(spec)
    assert nm.noise_values == (1.0,)
    assert nm.flip_one_to_minus == 0.0
    assert nm.flip_minus_to_one == 0.0


def test_multiplicative_noise_g_constant_one():
    spec = WiretapSpec.from_polys(
        parse_poly("x1"), parse_poly("1", declared_n=1))
    nm = multiplicative_noise(spec)  # N = f
    assert nm.flip_one_to_minus == 1.0
    assert nm.flip_minus_to_one == 0.0


def test_multiplicative_noise_undefined_conditional():
    spec = WiretapSpec.from_polys(
        parse_poly("1", declared_n=1), parse_poly("1", declared_n=1))
    nm = multiplicative_noise(spec)
    assert nm.flip_one_to_minus is None  # uN = -1 never happens
    assert nm.flip_minus_to_one == 0.0
    assert nm.to_dict()["bac"]["flip_one_to_minus"] == "undefined"


def test_multiplicative_noise_requires_boolean():
    n = 3
    f, g = chain_pair_polys(n)
    with pytest.raises(PreconditionError):
        multiplicative_noise(WiretapSpec.from_polys(f, g))


def test_reconstruction_identities_random():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = random_boolean_table(rng, n)
        g = random_boolean_table(rng, n)
        spec = WiretapSpec.from_tables(f, g)
        assert additive_noise(spec).reconstruction_max_error == 0.0
        assert multiplicative_noise(spec).reconstruction_max_error == 0.0


def test_multiplicative_reconstruction_exact_near_boolean():
    # values within BOOLEAN_TOL of ±1 still decompose exactly: the signs
    # are canonicalized before N is formed
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f, g = (random_boolean_table(rng, n).values
                * (1 + rng.uniform(-BOOLEAN_TOL, BOOLEAN_TOL, 1 << n))
                for _ in range(2))
        nm = multiplicative_noise(spec_from_tables(f, g, n))
        assert nm.reconstruction_max_error == 0.0


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------

def test_spec_lifts_to_common_n():
    spec = WiretapSpec.from_polys(parse_poly("x1"), parse_poly("x2"))
    assert spec.n == 2


def test_spec_flags_read_the_tables_it_holds_else_the_polynomials(monkeypatch):
    # a held table decides its function's flag even where its polynomial
    # would not (a loaded table and its transform can differ); a table
    # given for a function that is lifted is dropped
    x1, x2 = parse_poly("x1"), parse_poly("x2")
    half = TruthTable(1, [0.5, -0.5])
    spec = WiretapSpec.from_polys(x1, x1, half)
    assert spec.booleans == (False, True)
    assert spec.tables == {"f": half}  # g's flag built no table
    lifted = WiretapSpec.from_polys(x1, x2, half)
    assert lifted.booleans == (True, True) and lifted.tables == {}
    # value pairs built before the first flag is read decide it, with no
    # strip pass of either polynomial and no table
    built = WiretapSpec.from_polys(parse_poly("1/2*x1"), x1)
    assert [list(v) for v in spec_values(built)] == [[0.5, -0.5], [1.0, -1.0]]
    assert built.pairs is built.pairs and built.tables == {}
    monkeypatch.setattr(boolfn, "_value_strips", None)
    assert built.booleans == (False, True)


def test_spec_rejects_mismatched_tables():
    with pytest.raises(ValueError, match=r"^f and g must share n, got \[1, 2\]$"):
        WiretapSpec.from_tables(
            TruthTable(1, [1.0, -1.0]), TruthTable(2, [1.0, 1.0, 1.0, 1.0]))


def test_value_merging_absorbs_float_dust():
    f = TruthTable(1, [1.0, 1.0 + 5e-10])
    g = TruthTable(1, [1.0, -1.0])
    joint = joint_distribution(WiretapSpec.from_tables(f, g))
    assert len(joint.v_values) == 1  # the two almost-equal values merged


def test_value_merging_rejects_chained_values():
    # each gap is below the tolerance, but the run spans 1800x of it
    values = np.arange(2000) * 0.9e-9
    with pytest.raises(ValueError, match=r"from 0\.0 to 1\.7991e-06 chain "
                                         r"into one symbol spanning 1\.8e-06"):
        _merge_values(values)


def test_value_merging_keeps_a_cluster_within_tolerance():
    values = np.array([0.0, VALUE_MERGE_TOL / 2, VALUE_MERGE_TOL, 3.0])
    reps, labels = _merge_values(values)
    assert len(reps) == 2 and list(labels) == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Properties against the brute-force oracles
# ---------------------------------------------------------------------------

@st.composite
def _table_pairs(draw):
    """±1 or small-rational value lists for f and g at n <= 4."""
    n = draw(st.integers(1, 4))
    value = draw(st.sampled_from([
        st.sampled_from([-1.0, 1.0]),
        st.fractions(-2, 2, max_denominator=6).map(float)]))
    f, g = (draw(st.lists(value, min_size=1 << n, max_size=1 << n))
            for _ in range(2))
    return n, f, g


@given(_table_pairs())
def test_joint_views_match_enumeration(pair):
    n, f, g = pair
    spec = spec_from_tables(f, g, n)
    joint = joint_distribution(spec)
    oracle = brute_joint(f, g)
    assert joint.u_values == tuple(sorted(set(g)))
    assert joint.v_values == tuple(sorted(set(f)))
    for i, u in enumerate(joint.u_values):
        for j, v in enumerate(joint.v_values):
            assert joint.probs[i, j] == float(oracle.get((u, v), 0))

    posterior = posterior_channel(joint)
    for j, v in enumerate(posterior.inputs):
        pv = sum(p for (_, vv), p in oracle.items() if vv == v)
        for i, u in enumerate(posterior.outputs):
            assert posterior.matrix[j, i] == float(oracle.get((u, v), 0) / pv)

    success = brute_success_probability(f, g)
    assert eve_success_probability(joint) == float(success)

    report = commutes(spec)
    assert report.commutes == brute_commutes(f, g)
    if not report.commutes:
        x0, x1 = (eval_poly_at(spec.f_poly.coeffs, x) for x in report.witness)
        y0, y1 = (eval_poly_at(spec.g_poly.coeffs, x) for x in report.witness)
        assert abs(x0 - x1) <= 1e-9 and abs(y0 - y1) > 1e-9


@st.composite
def _fibered_pairs(draw):
    """f and g at n <= 5 over a few well-separated values, each value
    possibly moved by up to 1e-10 so that it must merge back; g is either
    drawn freely or as a function of f's value (a commuting pair)."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    base = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    dust = st.sampled_from([0.0, 0.0, 4e-11, -6e-11, 1e-10])
    f_base = draw(st.lists(base, min_size=size, max_size=size))
    if draw(st.booleans()):
        image = draw(st.fixed_dictionaries({v: base for v in set(f_base)}))
        g_base = [image[v] for v in f_base]
    else:
        g_base = draw(st.lists(base, min_size=size, max_size=size))
    f, g = ([v + draw(dust) for v in values] for values in (f_base, g_base))
    return n, f, g


@given(_fibered_pairs())
def test_commutes_matches_brute_force_witness(pair):
    n, f, g = pair
    report = commutes(spec_from_tables(f, g, n))
    assert (report.commutes, report.witness) == brute_commutes_witness(f, g, n)


@given(_fibered_pairs())
def test_success_probability_from_cells_equals_the_dense_joint(pair):
    # commutes counts the joint's nonzero cells; dividing each largest
    # count by 2**n is exact, so the sum has the dense joint's bits
    n, f, g = pair
    spec = spec_from_tables(f, g, n)
    dense = eve_success_probability(joint_distribution(spec))
    got = commutes(spec).success_probability
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(dense).tobytes()


@pytest.mark.parametrize("n", [6, 9])
def test_success_probability_from_cells_distinct_values(n):
    rng = np.random.default_rng(n)
    for f, g in [(rng.standard_normal(1 << n), rng.standard_normal(1 << n)),
                 (np.round(rng.standard_normal(1 << n), 1),
                  rng.standard_normal(1 << n))]:
        spec = spec_from_tables(f, g, n)
        dense = eve_success_probability(joint_distribution(spec))
        assert (np.float64(commutes(spec).success_probability).tobytes()
                == np.float64(dense).tobytes())


def test_commutes_reports_g_chain_before_f_chain():
    # as the joint of (g, f) does, commutes merges g's values first, so
    # when both tables chain, g's run is the one named
    run = np.arange(2048) * 0.9e-9
    spec = spec_from_tables(run, 5.0 + run, 11)
    for check in (joint_distribution, commutes):
        with pytest.raises(ValueError, match=r"values from 5\.0 to "):
            check(spec)


# ---------------------------------------------------------------------------
# The distinct-pair readers against the dense-table readers, bit for bit
# ---------------------------------------------------------------------------

READERS = [(joint_distribution, reference_joint_distribution),
           (commutes, reference_commutes),
           (additive_noise, reference_additive_noise),
           (multiplicative_noise, reference_multiplicative_noise)]


def _bits(reader, spec) -> str:
    """Every field of the reader's answer, arrays as bytes and floats by
    repr, or the type and message of its refusal."""
    try:
        report = reader(spec)
    except ValueError as exc:  # PreconditionError too
        return repr((type(exc), str(exc)))
    return repr([value.tobytes() if isinstance(value, np.ndarray)
                 else value.coeffs if isinstance(value, MultilinearPolynomial)
                 else value for value in vars(report).values()])


def assert_readers_match_the_dense_tables(spec):
    for reader, reference in READERS:
        assert _bits(reader, spec) == _bits(reference, spec), reader.__name__
    assert spec.booleans == tuple(
        bool(np.all(np.abs(np.abs(values) - 1.0) <= BOOLEAN_TOL))
        for values in spec_values(spec))


#: Values that repeat across points: both signed zeros and float dust
#: within the tolerance, which merge into one symbol each, values near
#: ±1, and a run of three values that chains.
_REPEATED = [-1.0, -1.0 + 4e-10, -0.0, 0.0, 4e-10, 0.25, 1.0, 1.0 + 4e-10, 2.0,
             0.5 + 0.9e-9, 0.5 + 1.8e-9]


@st.composite
def _repeated_tables(draw):
    """A pair of tables at n <= 10 over a few of the values above."""
    n = draw(st.integers(1, 10))
    pools = [draw(st.lists(st.sampled_from(_REPEATED), min_size=1, max_size=4))
             for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = (rng.choice(pool, 1 << n) for pool in pools)
    return spec_from_tables(f, g, n)


@given(_repeated_tables())
def test_pair_readers_match_the_dense_tables(spec):
    assert_readers_match_the_dense_tables(spec)


@st.composite
def _pairs_at_17(draw):
    """f and g at n = 17, two rows of 2**16 points and so two strips per
    row; each either an expression on high variables or a loaded table
    that is 0 but at a few points."""
    n = 17
    expressions = ["x17", "x1*x17", "x16 - x17", "1/2*x15*x16 + x17", "x1*x2*x16"]
    built = []
    for _ in "fg":
        if draw(st.booleans()):
            built.append((parse_poly(draw(st.sampled_from(expressions)), n), None))
        else:
            values = np.zeros(1 << n)
            points = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
            values[points] = draw(st.sampled_from([1.0, -1.0, 2.5]))
            table = TruthTable(n, values)
            built.append((boolfn.wht(table), table))
    (f, f_table), (g, g_table) = built
    return WiretapSpec.from_polys(f, g, f_table, g_table)


@settings(max_examples=25, deadline=None)
@given(_pairs_at_17())
def test_pair_readers_match_the_dense_tables_at_n17(spec):
    assert_readers_match_the_dense_tables(spec)


def test_commutes_witness_in_a_later_strip_of_a_mixed_pair():
    # f = x17 is -1 on row 1 (points 2**16 on); g is 0 but at one point of
    # row 1 in the second strip (columns 2**15 on), so the witness's
    # second point is that one, not the first point of either strip
    n, late = 17, (1 << 16) + (1 << 15) + 5
    values = np.zeros(1 << n)
    values[late] = 1.0
    table = TruthTable(n, values)
    spec = WiretapSpec.from_polys(parse_poly("x17", n), boolfn.wht(table), g_table=table)
    report = commutes(spec)
    assert report.witness == (index_to_point(1 << 16, n), index_to_point(late, n))
    assert_readers_match_the_dense_tables(spec)


def test_signed_zeros_merge_into_one_symbol():
    # -0.0 and +0.0 are one distinct value and one symbol with 4e-10
    f = [-0.0, 0.0, 4e-10, 1.0, 0.0, -0.0, 1.0, 4e-10]
    g = [0.0, -0.0, -0.0, 0.0, 1.0, 1.0, -0.0, 0.0]
    spec = spec_from_tables(f, g, 3)
    assert joint_distribution(spec).v_values == (2e-10, 1.0)
    assert joint_distribution(spec).u_values == (0.0, 1.0)
    assert_readers_match_the_dense_tables(spec)
