"""Do the two halves of a sign-split mode move against each other?

One planted block, split ten-plus/ten-minus, hides inside a fifty-asset
market. The scan correlates the two signed-weight combinations of every
mode, reading their covariances straight off the correlation matrix, and
compares each value against a baseline built from random asset
combinations of the same sizes. Random combinations co-move through the
market factor, so the baseline sits strongly positive; the planted mode's
two halves stay mutually flat in spite of that pull.

Run: python3 demos/03_anticorrelation.py
"""

from eigensectors import (
    BlockSpec,
    MarketSpec,
    block_averages,
    correlation_matrix,
    eigendecompose,
    generate,
    mode_scan,
    mp_bounds,
)

SPEC = MarketSpec(
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
U_C = 0.15
SHOW = 10  # rows printed before the ellipsis


def main():
    nr, _ = generate(SPEC, seed=0)
    cm = correlation_matrix(nr)
    spec = eigendecompose(cm)
    law = mp_bounds(SPEC.n_observations / SPEC.n_assets)
    report = mode_scan(cm, spec, u_c=U_C, trials=500, seed=0)

    print(f"scan at u_c = {U_C}: {len(report.rows)} modes, "
          f"{len(report.skipped)} skipped")
    print()
    print("  mode   eig   n+/n-   c_raw  c_pears   baseline (mean+-std)      z")
    shown = report.rows[:SHOW] + report.rows[-2:]
    for k, row in enumerate(shown):
        if k == SHOW:
            print("   ...")
        b = row.baseline
        z = (row.c_pearson - b.pearson_mean) / b.pearson_std
        tag = "  <- planted" if row.mode_index == 1 else ""
        print(
            f"  {row.mode_index:4d} {row.eigenvalue:6.2f}  {row.n_positive:2d}/{row.n_negative:<2d}"
            f"  {row.c_raw:6.3f}  {row.c_pearson:6.3f}"
            f"   {b.pearson_mean:6.3f} +- {b.pearson_std:.3f}  {z:7.1f}{tag}"
        )
    print()
    print(f"only modes 0 (market) and 1 rise above the band edge {law.lambda_max:.2f}.")
    print("the planted mode's halves are flat against a +0.88 baseline pull.")
    print("bulk modes score low z too: their vectors are fitted to this very")
    print("panel, so their apparent anti-correlation is in-sample bias, not")
    print("structure. the eigenvalue column separates the two cases.")
    print()

    planted = next(row for row in report.rows if row.mode_index == 1)
    avg = block_averages(cm, planted.partition)
    print("average correlations around the planted mode's partition:")
    print(f"  within the + side: {avg.within_positive:6.3f}")
    print(f"  within the - side: {avg.within_negative:6.3f}")
    print(f"  between the sides: {avg.between:6.3f}")
    print()
    print("both sides cohere internally while the cross block stays flat:")
    print("the two subsectors carry opposite signs of one common factor.")


if __name__ == "__main__":
    main()
