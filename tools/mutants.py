"""Planted faults that the tier-1 tests must catch.

    python3 tools/mutants.py [NAME ...]

Each entry of MUTANTS names a file under src/, its exact old text, the new
text that plants one fault, and the test node ids that must fail on it.  For
each entry (all of them when none is named) the tool copies src/ and tests/
to a temporary directory, applies the one substitution there, runs the named
tests with pytest in the copy and reports the mutant as killed, when a test
failed, or as a survivor.  It prints one line per mutant and the total run
time, and exits 1 when any mutant survives; an old text that is not found
exactly once, or a pytest run that ends other than in passes or failures,
raises.  The checkout itself is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: Tuple[str, ...]


LOWRANK = "src/ropeslr/lowrank.py"
T = "tests/test_lowrank.py::"
GRAM_TESTS = (T + "test_rank_certificate_decides_either_side_of_theta",
              T + "test_rank_certificate_keeps_its_rounding_allowance",
              T + "test_rank_certificate_of_underflowing_factors_is_no_without_warnings",
              T + "test_gram_certificate_holds_against_the_svd",
              T + "test_gram_certificate_is_the_stated_certificate",
              T + "test_gram_certificate_reads_the_first_2r_rows_into_its_gram")
BLOCK_TESTS = (T + "test_row_blocked_reconstruct_is_bitwise_the_whole_matrix_oracle",
               T + "test_error_fields_write_a_final_into_the_attention_buffer",
               T + "test_error_fields_are_the_masked_reductions")
PRUNE_TESTS = (T + "test_row_blocked_reconstruct_is_bitwise_the_whole_matrix_oracle",
               T + "test_pruned_fold_is_the_whole_fold",
               T + "test_block_bound_is_the_stated_bound_and_holds",
               T + "test_rank_of_an_underflowing_product_is_that_of_a_lowrank")
FACTORED_TESTS = (T + "test_rank_certificate_of_factors_with_known_condition",
                  T + "test_rank_certificate_fires_only_above_its_margin",
                  T + "test_rank_certificate_falls_back_below_full_rank",
                  T + "test_factored_rank_makes_one_factor_at_a_time",
                  T + "test_factored_rank_is_the_rank_of_the_product")
BRANCH_TESTS = (T + "test_gram_certificates_read_the_scaled_factors_of_a_lowrank",
                T + "test_reconstruct_rank_matches_the_dense_rank",
                T + "test_rank_certificate_fires_only_above_its_margin",
                T + "test_rank_certificate_falls_back_below_full_rank")
LIFETIME_TESTS = (T + "test_certificates_hold_one_factor_and_one_gram_at_a_time",)
INVERSE_TESTS = (T + "test_inverse_rank_certificate_of_matrices_with_known_condition",
                 T + "test_inverse_rank_certificate_keeps_the_rounding_of_its_residual",
                 T + "test_inverse_rank_certificate_is_below_the_svd_ratio")
WEIGHT_TESTS = (T + "test_gram_bound_grams_the_first_2r_weighted_rows_and_sums_them_all",
                T + "test_rank_certificate_weights_rows_beyond_the_double_range",
                T + "test_gram_certificate_is_the_stated_certificate")
UNDERFLOW_TESTS = (T + "test_rank_of_an_underflowing_product_is_that_of_a_lowrank",
                   T + "test_reconstruct_is_the_whole_matrix_oracle_at_any_scale")

MUTANTS = [
    # _gram_bound and _gram_certificate
    Mutant("theta/4", LOWRANK,
           "    theta = RANK_CERT_MARGIN * RANK_REL_TOL\n",
           "    theta = RANK_CERT_MARGIN * RANK_REL_TOL / 4.0\n", GRAM_TESTS),
    Mutant("no rounding allowance", LOWRANK,
           "eps = 2.0 * _U + _gamma(ell) + _gamma(r + 1) * r / (1.0 - _gamma(r + 1))",
           "eps = 0.0", GRAM_TESTS),
    Mutant("mu from the subset rows only", LOWRANK,
           "row_sum = (f.T @ f.sum(axis=1)).max()",
           "row_sum = (f[:2 * r].T @ f[:2 * r].sum(axis=1)).max()", GRAM_TESTS),
    Mutant("row sums from the replayed head only", LOWRANK,
           "* (1.0 + 2.0 * _gamma(ell + r + 4)) * row_sum",
           "* (1.0 + 2.0 * _gamma(ell + r + 4)) * g.sum(axis=1).max()", GRAM_TESTS),
    Mutant("Gram of the first 2R - 1 rows", LOWRANK,
           "head = f[:2 * r]", "head = f[:2 * r - 1]", GRAM_TESTS),
    Mutant("_CERT_MIN_NORM = 0", LOWRANK,
           "_CERT_MIN_NORM = np.finfo(np.float64).tiny * 2.0 ** 53",
           "_CERT_MIN_NORM = 0.0", GRAM_TESTS),
    # _weighted
    Mutant("weights not shifted by their largest", LOWRANK,
           "f *= np.exp(log_w - log_w.max())[:, None]", "f *= np.exp(log_w)[:, None]",
           WEIGHT_TESTS),
    Mutant("weighting not quiet on a non-finite weight", LOWRANK,
           '    with np.errstate(invalid="ignore"):  # inf - inf\n'
           "        f *= np.exp(log_w - log_w.max())[:, None]\n",
           "    f *= np.exp(log_w - log_w.max())[:, None]\n", WEIGHT_TESTS),
    # _factored_rank
    Mutant("right certificate alone", LOWRANK,
           "right_certified and _gram_certificate(_gram_bound(left()))",
           "right_certified", FACTORED_TESTS),
    Mutant("fallback reads the left QR alone", LOWRANK,
           'numerical_rank(np.linalg.qr(left(), mode="r") @ r_right.T)',
           'numerical_rank(np.linalg.qr(left(), mode="r"))', FACTORED_TESTS),
    Mutant("no fallback", LOWRANK,
           "    if right_certified and _gram_certificate(_gram_bound(left())):\n"
           "        return r\n",
           "    return r\n", FACTORED_TESTS),
    # the factors after the pass
    Mutant("left factor not weighted", LOWRANK,
           "return _weighted(fq, mq - log_z - log_r)", "return fq", BRANCH_TESTS),
    Mutant("right factor not weighted", LOWRANK,
           "shifted = _gram_bound(_weighted(fk, mk))", "shifted = _gram_bound(fk)", BRANCH_TESTS),
    Mutant("right factor held through its Cholesky", LOWRANK,
           "        del fk  # the right factor is not held through its Cholesky\n", "",
           LIFETIME_TESTS),
    Mutant("right Gram held while the left factor is made", LOWRANK,
           "        del shifted  # nor its Gram while the left factor is made\n", "",
           LIFETIME_TESTS),
    # the pass and its error fold
    Mutant("last block's background error only", LOWRANK,
           "max_bg = np.maximum(max_bg, np.max(err, initial=0.0))",
           "max_bg = np.max(err, initial=0.0)", BLOCK_TESTS),
    Mutant("fold restarts each tile", LOWRANK,
           "        bound = np.maximum(_block_bound(",
           "        folded = (0.0, True, 0.0)\n"
           "        bound = np.maximum(_block_bound(", BLOCK_TESTS),
    Mutant("last partial tile skipped", LOWRANK,
           "for start in range(0, ell, PRODUCT_TILE_ROWS):",
           "for start in range(0, ell - ell % PRODUCT_TILE_ROWS, PRODUCT_TILE_ROWS):",
           BLOCK_TESTS),
    # the R < L pass's subtiles
    Mutant("bound from the block's first row", LOWRANK,
           "k_max, m_max = np.maximum.reduceat(fk, starts), np.maximum.reduceat(mk, starts)",
           "k_max, m_max = fk[starts], mk[starts]", PRUNE_TESTS),
    Mutant("bound not widened", LOWRANK,
           "        return top * widen + 2.0 ** -1072\n", "        return top\n", PRUNE_TESTS),
    Mutant("spike subtiles skipped", LOWRANK,
           "\n                    and not spikes[:, cols].any()):", "):", PRUNE_TESTS),
    Mutant("faint subtiles skipped", LOWRANK,
           "if (faint is None and bound[j] <= folded[0]", "if (bound[j] <= folded[0]",
           PRUNE_TESTS),
    Mutant("faint rows never ranked", LOWRANK,
           "rank = numerical_rank(np.concatenate(faint))", "rank = rank", UNDERFLOW_TESTS),
    # the other certificates
    Mutant("inverse bound x 1.001", LOWRANK,
           "return float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_m))",
           "return 1.001 * float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_m))",
           INVERSE_TESTS),
    Mutant("Schur complement sign flipped", LOWRANK,
           "m[h:, h:] - m[h:, :h] @ ab", "m[h:, h:] + m[h:, :h] @ ab",
           (T + "test_block_inverse_matches_the_dense_inverse",) + INVERSE_TESTS),
    Mutant("rounding term dropped from rho", LOWRANK,
           "rho = np.linalg.norm(resid) + gamma * (norm_x * norm_m + math.sqrt(ell))",
           "rho = np.linalg.norm(resid)", INVERSE_TESTS),
    Mutant("sigma_1^2 tolerance 1e-4", "src/ropeslr/linalg.py",
           "(1.0 + SPECTRAL_CERT_TOL) * rayleigh", "(1.0 + 1e-4) * rayleigh",
           ("tests/test_linalg.py::test_certified_energy_is_within_its_tolerance_of_the_svd",
            "tests/test_linalg.py::test_the_bracket_is_widened_by_the_rounding_of_its_sums")),
]


def run(mutant: Mutant) -> bool:
    """Whether the mutant is killed: a named test fails in a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp) / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text found {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # not a test failure: a test id or the copy is broken
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}")
    return done.returncode == 1


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start, survivors = time.perf_counter(), []
    for mutant in chosen:
        t = time.perf_counter()
        killed = run(mutant)
        print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - t:6.1f} s  "
              f"{mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
