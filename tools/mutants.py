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
              T + "test_rank_certificate_rescales_its_gram_when_a_later_block_weighs_more",
              T + "test_gram_certificate_holds_against_the_svd",
              T + "test_gram_certificate_is_the_one_pass_certificate")
BLOCK_TESTS = (T + "test_row_blocked_reconstruct_is_bitwise_the_whole_matrix_oracle",
               T + "test_error_fields_write_a_final_into_the_attention_buffer",
               T + "test_error_fields_are_the_masked_reductions")
FACTORED_TESTS = (T + "test_rank_certificate_of_factors_with_known_condition",
                  T + "test_rank_certificate_fires_only_above_its_margin",
                  T + "test_rank_certificate_falls_back_below_full_rank",
                  T + "test_factored_rank_makes_one_factor_at_a_time",
                  T + "test_gram_certificate_remakes_only_the_blocks_of_its_first_2r_rows",
                  T + "test_factored_rank_is_the_rank_of_the_product")
UNDERFLOW_TESTS = (T + "test_rank_of_an_underflowing_product_is_that_of_a_lowrank",
                   T + "test_reconstruct_is_the_whole_matrix_oracle_at_any_scale")

MUTANTS = [
    # _Factor and _gram_certificate
    Mutant("theta/4", LOWRANK,
           "    theta = RANK_CERT_MARGIN * RANK_REL_TOL\n",
           "    theta = RANK_CERT_MARGIN * RANK_REL_TOL / 4.0\n", GRAM_TESTS),
    Mutant("no rounding allowance", LOWRANK,
           "eps = 2.0 * _U + _gamma(ell) + _gamma(r + 1) * r / (1.0 - _gamma(r + 1))",
           "eps = 0.0", GRAM_TESTS),
    Mutant("no running-shift rescale", LOWRANK,
           "return max(2 * (old - k), -2200)", "return 0", GRAM_TESTS),
    Mutant("rescale by 2^-d", LOWRANK,
           "return max(2 * (old - k), -2200)", "return max(old - k, -2200)", GRAM_TESTS),
    Mutant("row sums not rescaled", LOWRANK,
           "np.ldexp(self.sums, _rescale(old, k), out=self.sums)", "self.sums", GRAM_TESTS),
    Mutant("mu from the subset rows only", LOWRANK,
           "            self.sums += f.T @ f.sum(axis=1)\n",
           "            head = f[:max(2 * f.shape[1] - self.rows, 0)]\n"
           "            self.sums += head.T @ head.sum(axis=1)\n", GRAM_TESTS),
    Mutant("row sums from the replayed head only", LOWRANK,
           "* (1.0 + 2.0 * _gamma(ell + r + 4)) * row_sum",
           "* (1.0 + 2.0 * _gamma(ell + r + 4)) * g.sum(axis=1).max()", GRAM_TESTS),
    Mutant("head replayed under the final shift instead of each block's", LOWRANK,
           "                f *= np.exp(log_w - k * _LN2)[:, None]\n",
           "                f *= np.exp(log_w - factor.blocks[-1][0] * _LN2)[:, None]\n",
           GRAM_TESTS),
    Mutant("head replay one block short", LOWRANK,
           "if start < 2 * r:", "if start + n < 2 * r:", GRAM_TESTS),
    Mutant("_CERT_MIN_NORM = 0", LOWRANK,
           "_CERT_MIN_NORM = np.finfo(np.float64).tiny * 2.0 ** 53",
           "_CERT_MIN_NORM = 0.0", GRAM_TESTS),
    # _factored_rank
    Mutant("right certificate alone", LOWRANK,
           "_gram_certificate(right) and _gram_certificate(left)",
           "_gram_certificate(right)", FACTORED_TESTS),
    Mutant("fallback reads the left QR alone", LOWRANK,
           'numerical_rank(np.linalg.qr(_whole(left.make()), mode="r") @ r_right.T)',
           'numerical_rank(np.linalg.qr(_whole(left.make()), mode="r"))', FACTORED_TESTS),
    Mutant("no fallback", LOWRANK,
           "    if _gram_certificate(right) and _gram_certificate(left):\n        return r\n",
           "    return r\n", FACTORED_TESTS),
    # the pass and its error fold
    Mutant("left row sums of the first block only", LOWRANK,
           "        if left is not None:\n",
           "        if left is not None and start == 0:\n", FACTORED_TESTS + BLOCK_TESTS),
    Mutant("last block's background error only", LOWRANK,
           "max_bg = np.maximum(max_bg, np.max(err, initial=0.0))",
           "max_bg = np.max(err, initial=0.0)", BLOCK_TESTS),
    Mutant("fold restarts each block", LOWRANK,
           "        row_log = np.empty_like(mq)\n",
           "        row_log = np.empty_like(mq)\n"
           "        folded = (0.0, True, 0.0)\n", BLOCK_TESTS),
    Mutant("fold restarts each tile", LOWRANK,
           "            row_log[tile] = mq[tile] - log_z[rows] - log_r\n",
           "            row_log[tile] = mq[tile] - log_z[rows] - log_r\n"
           "            folded = (0.0, True, 0.0)\n", BLOCK_TESTS),
    Mutant("last partial tile skipped", LOWRANK,
           "for t in range(0, len(fq), PRODUCT_TILE_ROWS):",
           "for t in range(0, len(fq) - len(fq) % PRODUCT_TILE_ROWS, PRODUCT_TILE_ROWS):",
           BLOCK_TESTS),
    Mutant("faint rows never ranked", LOWRANK,
           "rank = numerical_rank(np.concatenate(faint))", "rank = rank", UNDERFLOW_TESTS),
    # the other certificates
    Mutant("QR bound x 1.001", LOWRANK,
           "return float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_t) - delta)",
           "return 1.001 * float((1.0 - delta) ** 2 * (1.0 - rho) / (norm_x * norm_t) - delta)",
           (T + "test_qr_rank_certificate_of_matrices_with_known_condition",
            T + "test_qr_rank_certificate_is_below_the_svd_ratio")),
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
