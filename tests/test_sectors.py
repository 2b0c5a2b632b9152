"""Sign-split subsector selection and category labeling."""

import numpy as np
import pytest

from eigensectors import (
    DEFAULT_STOCK_THRESHOLDS,
    ConfigurationError,
    MarketSpec,
    BlockSpec,
    SignificantSet,
    generate,
    is_single_signed,
    label_subsector,
    metadata_from_truth,
    mp_bounds,
    sector_table,
    select_components,
    significant_eigenvalues,
)
from helpers import noise_returns, spectrum_of, spectrum_with_mode


def padded_mode(head, n=121):
    """Mode vector with the interesting components up front, zeros after.

    n = 121 keeps 1/sqrt(N) = 0.0909 under the thresholds used here, so
    selection runs without the delocalization warning.
    """
    u = np.zeros(n)
    u[: len(head)] = head
    return spectrum_with_mode(u)


PLANTED = MarketSpec(
    n_assets=50,
    n_observations=2000,
    market_strength=1.0,
    blocks=(
        BlockSpec(
            assets=tuple(range(20)),
            loading=1.0,
            sign_pattern=(1,) * 10 + (-1,) * 10,
            name="Planted",
        ),
    ),
)


# ------------------------------------------------------------------ selection


def test_select_splits_by_sign_and_magnitude():
    spec = padded_mode([0.2, -0.15, 0.05, -0.3])
    part = select_components(spec, 0, 0.10)
    assert part.positive == (0,)
    assert part.negative == (1, 3)
    assert np.allclose(part.positive_weights, [0.2])
    assert np.allclose(part.negative_weights, [-0.15, -0.3])


def test_select_threshold_is_inclusive():
    spec = padded_mode([0.3, 0.10, -0.10, -0.4])
    part = select_components(spec, 0, 0.10)
    assert part.positive == (0, 1)
    assert part.negative == (2, 3)


def test_select_zero_threshold_is_strict_sign_split():
    spec = padded_mode([0.2, -0.15, 0.05, -0.3])
    part = select_components(spec, 0, 0.0)
    # padding zeros belong to neither side
    assert part.positive == (0, 2)
    assert part.negative == (1, 3)


def test_select_can_leave_both_sides_empty():
    spec = padded_mode([0.2, -0.15])
    part = select_components(spec, 0, 0.9)
    assert part.positive == ()
    assert part.negative == ()


def test_select_rejects_negative_threshold():
    spec = padded_mode([0.2, -0.15])
    with pytest.raises(ConfigurationError):
        select_components(spec, 0, -0.1)


@pytest.mark.parametrize("u_c", [float("nan"), float("inf"), float("-inf")])
def test_select_rejects_non_finite_threshold(u_c):
    spec = padded_mode([0.2, -0.15])
    with pytest.raises(ConfigurationError, match="threshold u_c must be"):
        select_components(spec, 0, u_c)


def test_select_warns_below_delocalized_scale():
    spec = spectrum_with_mode(np.full(25, 0.2))
    with pytest.warns(UserWarning, match="1/sqrt"):
        select_components(spec, 0, 0.1)  # 0.1 <= 1/sqrt(25)


def test_select_mode_bounds():
    spec = padded_mode([0.2, -0.15], n=4)
    with pytest.raises(IndexError):
        select_components(spec, -1, 0.1)
    with pytest.raises(IndexError):
        select_components(spec, 4, 0.1)
    with pytest.raises(IndexError, match=r"^mode 4 out of range 0\.\.3$"):  # before the threshold
        select_components(spec, 4, float("nan"))


def test_select_records_anchor():
    spec = padded_mode([0.2, -0.15, -0.55])
    part = select_components(spec, 0, 0.10)
    assert part.anchor_index == 2


def test_select_memberships_shrink_with_threshold():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = rng.standard_normal(50)
        u /= np.linalg.norm(u)
        spec = spectrum_with_mode(u)
        prev_pos, prev_neg = None, None
        for u_c in (0.15, 0.20, 0.30):
            part = select_components(spec, 0, u_c)
            if prev_pos is not None:
                assert set(part.positive) <= prev_pos
                assert set(part.negative) <= prev_neg
            prev_pos, prev_neg = set(part.positive), set(part.negative)


def test_select_sign_flip_swaps_sides():
    rng = np.random.default_rng(10)
    u = np.zeros(121)
    u[:30] = rng.standard_normal(30)
    a = select_components(spectrum_with_mode(u), 0, 0.10)
    b = select_components(spectrum_with_mode(-u), 0, 0.10)
    assert a.positive == b.negative
    assert a.negative == b.positive
    assert np.allclose(a.positive_weights, -b.negative_weights)
    assert np.allclose(a.negative_weights, -b.positive_weights)


# ------------------------------------------------------------------- labeling


def test_label_majority():
    report = label_subsector(
        ["a", "b", "c"], {"a": "Tech", "b": "Tech", "c": "Bank"}
    )
    assert report.dominant_category == "Tech"
    assert report.matched == 2
    assert report.total == 3
    assert report.members == ("a", "b", "c")
    assert report.member_categories == ("Tech", "Tech", "Bank")


def test_label_unanimous():
    report = label_subsector(
        ["a", "b"], {"a": "Gold", "b": "Gold"}
    )
    assert report.dominant_category == "Gold"
    assert report.matched == report.total == 2


def test_label_below_half_degrades_to_null():
    meta = {"a": "A", "b": "A", "c": "B", "d": "C", "e": "D"}
    report = label_subsector(["a", "b", "c", "d", "e"], meta)
    assert report.dominant_category == "Null"
    assert report.matched == 2  # modal count survives the degradation
    assert report.total == 5


def test_label_tie_resolves_lexicographically():
    meta = {"a": "Beta", "b": "Beta", "c": "Alpha", "d": "Alpha"}
    report = label_subsector(["a", "b", "c", "d"], meta)
    assert report.dominant_category == "Alpha"
    assert report.matched == 2


def test_label_without_metadata():
    report = label_subsector(["a", "b"], None)
    assert report.dominant_category == "Unlabeled"
    assert report.matched == report.total == 2
    assert report.member_categories == ("Unlabeled", "Unlabeled")


def test_label_partial_coverage():
    report = label_subsector(
        ["a", "b", "c", "d"], {"a": "Tech", "b": "Tech"}
    )
    assert report.dominant_category == "Tech"  # 2/4 is exactly half
    assert report.matched == 2
    assert report.total == 4
    assert report.member_categories == ("Tech", "Tech", None, None)

    thin = label_subsector(
        ["a", "b", "c", "d"], {"a": "Tech"}
    )
    assert thin.dominant_category == "Null"
    assert thin.matched == 1


def test_label_no_coverage_at_all():
    report = label_subsector(["a", "b"], {"x": "Tech"})
    assert report.dominant_category == "Null"
    assert report.matched == 0
    assert report.member_categories == (None, None)


def test_label_empty_side():
    report = label_subsector([], {"a": "Tech"})
    assert report.dominant_category == "Null"
    assert report.matched == report.total == 0
    assert report.members == ()


# ---------------------------------------------------------------- mode shape


def test_single_signed_detection():
    assert is_single_signed(spectrum_with_mode(np.full(9, 1 / 3)), 0)
    assert is_single_signed(spectrum_with_mode(np.full(9, -1 / 3)), 0)
    assert not is_single_signed(padded_mode([0.5, -0.5], n=9), 0)
    # zeros do not break single-signedness
    assert is_single_signed(padded_mode([0.5, 0.5], n=9), 0)


# --------------------------------------------------------------- sector table


def test_default_threshold_ladders():
    assert DEFAULT_STOCK_THRESHOLDS == (0.08, 0.10)


def test_table_recovers_planted_block():
    nr, truth = generate(PLANTED, seed=0)
    spec = spectrum_of(nr)
    sig = significant_eigenvalues(spec)
    assert sig.indices == (0, 1)
    rows = sector_table(spec, sig, [0.15], metadata_from_truth(truth, nr.assets))
    # market mode is single-signed and drops out; mode 1 keeps both signs
    assert [r.mode_index for r in rows] == [1, 1]
    assert [r.sign for r in rows] == ["+", "-"]
    block = {nr.assets[i] for i in truth.blocks[0].assets}
    recovered = set()
    for row in rows:
        assert row.report.dominant_category == "Planted"
        assert row.report.matched == row.report.total == 10
        assert row.anchor_asset in block
        recovered |= set(row.report.members)
    assert recovered == block


def test_table_empty_for_pure_factor_market():
    nr, _ = generate(MarketSpec(n_assets=50, n_observations=2000, market_strength=1.0), seed=0)
    spec = spectrum_of(nr)
    sig = significant_eigenvalues(spec)
    assert sig.indices == (0,)
    assert sector_table(spec, sig, [0.15], None) == []


def test_table_market_mode_opt_in():
    u = np.array([0.2] * 20 + [0.03] * 101)
    spec = spectrum_with_mode(u)
    sig = SignificantSet(
        indices=(0,),
        eigenvalues=np.array([2.0]),
        ratios=np.array([2.0 / 2.25]),
        law=mp_bounds(4.0),
    )
    assert sector_table(spec, sig, [0.10], None) == []
    rows = sector_table(spec, sig, [0.10], None, include_market_mode=True)
    assert [r.sign for r in rows] == ["+", "-"]
    assert rows[0].report.total == 20
    assert rows[1].report.total == 0


def test_table_membership_shrinks_along_ladder():
    nr, truth = generate(PLANTED, seed=1)
    spec = spectrum_of(nr)
    sig = significant_eigenvalues(spec)
    rows = sector_table(spec, sig, [0.15, 0.20], metadata_from_truth(truth, nr.assets))
    by_key = {(r.threshold, r.sign): r.report.total for r in rows}
    assert by_key[(0.15, "+")] >= by_key[(0.20, "+")]
    assert by_key[(0.15, "-")] >= by_key[(0.20, "-")]


def test_table_threshold_validation():
    spec = padded_mode([0.5, -0.5])
    sig = SignificantSet(
        indices=(0,),
        eigenvalues=np.array([2.0]),
        ratios=np.array([2.0 / 2.25]),
        law=mp_bounds(4.0),
    )
    with pytest.raises(ConfigurationError):
        sector_table(spec, sig, [], None)
    with pytest.raises(ConfigurationError):
        sector_table(spec, sig, [0.10, 0.08], None)
    with pytest.raises(ConfigurationError):
        sector_table(spec, sig, [0.10, 0.10], None)


@pytest.mark.parametrize("thresholds", [[float("nan")], [0.1, float("inf")], [-0.1]])
@pytest.mark.parametrize("indices", [(0,), ()], ids=["significant", "none_significant"])
def test_table_rejects_bad_threshold_without_rows(thresholds, indices):
    # checked up front, so a table with no significant mode rejects it too
    spec = padded_mode([0.5, -0.5])
    sig = SignificantSet(
        indices=indices,
        eigenvalues=np.array([2.0][: len(indices)]),
        ratios=np.array([2.0 / 2.25][: len(indices)]),
        law=mp_bounds(4.0),
    )
    with pytest.raises(ConfigurationError, match="threshold u_c must be"):
        sector_table(spec, sig, thresholds, None)


def test_noise_modes_select_few_components():
    # at u_c = 2/sqrt(N) a pure-noise mode should keep well under 10% of assets
    n, t = 100, 1000
    u_c = 2.0 / np.sqrt(n)
    for seed in range(3):
        spec = spectrum_of(noise_returns(n, t, seed))
        fractions = []
        for alpha in range(n):
            part = select_components(spec, alpha, u_c)
            fractions.append((len(part.positive) + len(part.negative)) / n)
        assert np.mean(fractions) < 0.10
