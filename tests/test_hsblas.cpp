// Unit + property tests for src/hsblas: blocked kernels vs naive
// references, factor-and-reconstruct round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hsblas/kernels.hpp"
#include "hsblas/matrix.hpp"
#include "hsblas/reference.hpp"
#include "param_bytes.hpp"

namespace hs::blas {
namespace {

constexpr double kTol = 1e-9;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  m.randomize(rng);
  return m;
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(3, 2);
  m(2, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.data()[1 * 3 + 2], 7.0);
}

TEST(Matrix, TileViewsAliasParent) {
  Matrix m(8, 8);
  auto t = m.tile(2, 4, 3, 3);
  t(0, 0) = 5.0;
  EXPECT_DOUBLE_EQ(m(2, 4), 5.0);
  EXPECT_EQ(t.ld, 8u);
}

TEST(Matrix, TileOutOfBoundsThrows) {
  Matrix m(4, 4);
  EXPECT_THROW((void)m.tile(2, 2, 3, 1), Error);
}

TEST(Matrix, MakeSpdIsSymmetric) {
  Matrix m(16, 16);
  Rng rng(3);
  m.make_spd(rng);
  for (std::size_t j = 0; j < 16; ++j) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
    }
  }
}

// ---- GEMM vs reference over a sweep of shapes and transpose modes -------

struct GemmCase {
  std::size_t m, n, k;
  Op op_a, op_b;
  double alpha, beta;
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  test::print_field_bytes(c, os, &GemmCase::m, &GemmCase::n, &GemmCase::k,
                          &GemmCase::op_a, &GemmCase::op_b, &GemmCase::alpha,
                          &GemmCase::beta);
}

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const auto& p = GetParam();
  const std::size_t a_r = p.op_a == Op::none ? p.m : p.k;
  const std::size_t a_c = p.op_a == Op::none ? p.k : p.m;
  const std::size_t b_r = p.op_b == Op::none ? p.k : p.n;
  const std::size_t b_c = p.op_b == Op::none ? p.n : p.k;
  const Matrix a = random_matrix(a_r, a_c, 1);
  const Matrix b = random_matrix(b_r, b_c, 2);
  Matrix c = random_matrix(p.m, p.n, 3);
  Matrix c_ref = c;

  gemm(p.op_a, p.op_b, p.alpha, a.view(), b.view(), p.beta, c.view());
  ref::gemm(p.op_a, p.op_b, p.alpha, a.view(), b.view(), p.beta, c_ref.view());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(
        GemmCase{1, 1, 1, Op::none, Op::none, 1.0, 0.0},
        GemmCase{5, 7, 3, Op::none, Op::none, 1.0, 0.0},
        GemmCase{64, 64, 64, Op::none, Op::none, 1.0, 1.0},
        GemmCase{65, 63, 67, Op::none, Op::none, -0.5, 2.0},
        GemmCase{100, 1, 100, Op::none, Op::none, 1.0, 0.0},
        GemmCase{33, 17, 29, Op::transpose, Op::none, 1.0, 0.0},
        GemmCase{33, 17, 29, Op::none, Op::transpose, 1.0, -1.0},
        GemmCase{33, 17, 29, Op::transpose, Op::transpose, 2.0, 0.5},
        GemmCase{128, 96, 80, Op::none, Op::transpose, -1.0, 1.0},
        // Depth past one packed block, every op combination.
        GemmCase{40, 36, 300, Op::none, Op::none, 1.0, 0.5},
        GemmCase{40, 36, 300, Op::transpose, Op::none, -1.0, 1.0},
        GemmCase{40, 36, 300, Op::none, Op::transpose, -1.0, 1.0},
        GemmCase{40, 36, 300, Op::transpose, Op::transpose, 0.5, 0.0},
        // Just past the production tile, so every micro-tile edge shows.
        GemmCase{129, 130, 128, Op::none, Op::transpose, -1.0, 1.0}));

TEST(Gemm, AlphaZeroOnlyScales) {
  const Matrix a = random_matrix(8, 8, 1);
  const Matrix b = random_matrix(8, 8, 2);
  Matrix c = random_matrix(8, 8, 3);
  const Matrix before = c;
  gemm(Op::none, Op::none, 0.0, a.view(), b.view(), 2.0, c.view());
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(c(i, j), 2.0 * before(i, j));
    }
  }
}

TEST(Gemm, BetaZeroIgnoresGarbage) {
  const Matrix a = random_matrix(4, 4, 1);
  const Matrix b = random_matrix(4, 4, 2);
  Matrix c(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    c(i, i) = std::numeric_limits<double>::quiet_NaN();
  }
  gemm(Op::none, Op::none, 1.0, a.view(), b.view(), 0.0, c.view());
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(std::isnan(c(i, j)));
    }
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix a = random_matrix(4, 5, 1);
  const Matrix b = random_matrix(4, 4, 2);  // inner dim mismatch
  Matrix c(4, 4);
  EXPECT_THROW(
      gemm(Op::none, Op::none, 1.0, a.view(), b.view(), 0.0, c.view()),
      Error);
}

// ---- SYRK ----------------------------------------------------------------

class SyrkParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SyrkParam, LowerMatchesGemm) {
  const auto [n, k] = GetParam();
  const auto nn = static_cast<std::size_t>(n);
  const auto kk = static_cast<std::size_t>(k);
  const Matrix a = random_matrix(nn, kk, 5);
  Matrix c = random_matrix(nn, nn, 6);
  Matrix full = c;

  syrk_lower(1.0, a.view(), 1.0, c.view());
  ref::gemm(Op::none, Op::transpose, 1.0, a.view(), a.view(), 1.0,
            full.view());
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t i = j; i < nn; ++i) {  // lower triangle only
      EXPECT_NEAR(c(i, j), full(i, j), kTol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SyrkParam,
                         ::testing::Values(std::pair{1, 1}, std::pair{8, 8},
                                           std::pair{17, 5}, std::pair{64, 32},
                                           std::pair{33, 65},
                                           std::pair{128, 128},
                                           std::pair{129, 128},
                                           std::pair{130, 300}));

TEST(Syrk, BetaZeroIgnoresNaN) {
  const Matrix a = random_matrix(130, 40, 5);
  // NaN in the lower triangle, a marker in the strictly upper one, which
  // syrk_lower must leave as it is.
  constexpr double kMarker = 7.0;
  Matrix c(130, 130);
  for (std::size_t j = 0; j < 130; ++j) {
    for (std::size_t i = 0; i < 130; ++i) {
      c(i, j) = i < j ? kMarker : std::numeric_limits<double>::quiet_NaN();
    }
  }
  syrk_lower(1.0, a.view(), 0.0, c.view());
  for (std::size_t j = 0; j < 130; ++j) {
    for (std::size_t i = 0; i < 130; ++i) {
      if (i < j) {
        EXPECT_EQ(c(i, j), kMarker) << i << "," << j;
      } else {
        EXPECT_FALSE(std::isnan(c(i, j))) << i << "," << j;
      }
    }
  }
}

// ---- TRSM ------------------------------------------------------------------

class TrsmParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TrsmParam, SolvesRightLowerTranspose) {
  const auto [m, n] = GetParam();
  const auto mm = static_cast<std::size_t>(m);
  const auto nn = static_cast<std::size_t>(n);
  // Build a well-conditioned lower triangle.
  Matrix l = random_matrix(nn, nn, 7);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      l(i, j) = 0.0;
    }
    l(j, j) = 2.0 + std::abs(l(j, j));
  }
  const Matrix b = random_matrix(mm, nn, 8);
  Matrix x = b;
  trsm_right_lower_trans(l.view(), x.view());

  // Check X * L^T == B.
  Matrix recon(mm, nn);
  ref::gemm(Op::none, Op::transpose, 1.0, x.view(), l.view(), 0.0,
            recon.view());
  EXPECT_LT(max_abs_diff(recon.view(), b.view()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrsmParam,
                         ::testing::Values(std::pair{1, 1}, std::pair{8, 4},
                                           std::pair{32, 32}, std::pair{5, 17},
                                           std::pair{64, 48},
                                           std::pair{128, 128},
                                           std::pair{129, 129},
                                           std::pair{130, 130},
                                           std::pair{7, 130}));

// ---- Factorizations ---------------------------------------------------------

class FactorParam : public ::testing::TestWithParam<int> {};

TEST_P(FactorParam, PotrfReconstructs) {
  const auto n = static_cast<std::size_t>(GetParam());
  Matrix a(n, n);
  Rng rng(9);
  a.make_spd(rng);
  const Matrix original = a;

  ASSERT_EQ(potrf_lower(a.view()), 0);
  const Matrix recon = ref::reconstruct_llt(a.view());
  EXPECT_LT(max_abs_diff(recon.view(), original.view()),
            1e-8 * static_cast<double>(n));
}

TEST_P(FactorParam, LdltReconstructs) {
  const auto n = static_cast<std::size_t>(GetParam());
  Matrix a(n, n);
  Rng rng(10);
  a.make_spd(rng);
  const Matrix original = a;

  ASSERT_EQ(ldlt_lower(a.view()), 0);
  const Matrix recon = ref::reconstruct_ldlt(a.view());
  EXPECT_LT(max_abs_diff(recon.view(), original.view()),
            1e-8 * static_cast<double>(n));
}

TEST_P(FactorParam, GetrfReconstructs) {
  const auto n = static_cast<std::size_t>(GetParam());
  Matrix a = random_matrix(n, n, 11);
  const Matrix original = a;
  std::vector<std::size_t> pivots(n);

  ASSERT_EQ(getrf(a.view(), pivots.data()), 0);
  const Matrix recon = ref::reconstruct_lu(a.view(), pivots.data());
  EXPECT_LT(max_abs_diff(recon.view(), original.view()),
            1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorParam,
                         ::testing::Values(1, 2, 5, 16, 33, 64, 100));

TEST(Potrf, DetectsNonPositiveDefinite) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // not PD
  a(2, 2) = 1.0;
  EXPECT_EQ(potrf_lower(a.view()), 2);
}

TEST(Ldlt, DetectsZeroPivot) {
  Matrix a(2, 2);  // all zeros
  EXPECT_EQ(ldlt_lower(a.view()), 1);
}

TEST(Getrf, RectangularTallMatrix) {
  Matrix a = random_matrix(10, 6, 12);
  const Matrix original = a;
  std::vector<std::size_t> pivots(6);
  ASSERT_EQ(getrf(a.view(), pivots.data()), 0);
  const Matrix recon = ref::reconstruct_lu(a.view(), pivots.data());
  EXPECT_LT(max_abs_diff(recon.view(), original.view()), 1e-8);
}

TEST(Getrf, SingularMatrixReported) {
  Matrix a(3, 3);  // zero matrix is singular
  std::vector<std::size_t> pivots(3);
  EXPECT_EQ(getrf(a.view(), pivots.data()), 1);
}

// ---- Flop counters ------------------------------------------------------------

TEST(Flops, LeadingTerms) {
  EXPECT_DOUBLE_EQ(gemm_flops(10, 10, 10), 2000.0);
  EXPECT_DOUBLE_EQ(potrf_flops(30), 9000.0);
  EXPECT_NEAR(getrf_flops(30, 30), 2.0 * 27000.0 / 3.0, 1.0);
  EXPECT_DOUBLE_EQ(syrk_flops(10, 4), 440.0);
  EXPECT_DOUBLE_EQ(trsm_flops(8, 4), 128.0);
  EXPECT_DOUBLE_EQ(ldlt_flops(30), potrf_flops(30));
}

// ---- LU and LDL^T tile kernels past one diagonal block ----------------------

TEST(BlockedSolves, TrsmLeftLowerUnitSolves) {
  for (const std::size_t n : {33u, 130u}) {
    // Unit lower L with small off-diagonal entries, so X stays bounded.
    Matrix l = random_matrix(n, n, 50);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        l(i, j) = i < j ? 0.0 : i == j ? 1.0 : l(i, j) / static_cast<double>(n);
      }
    }
    const Matrix b = random_matrix(n, 7, 51);
    Matrix x = b;
    trsm_left_lower_unit(l.view(), x.view());
    Matrix recon(n, 7);
    ref::gemm(Op::none, Op::none, 1.0, l.view(), x.view(), 0.0, recon.view());
    EXPECT_LT(max_abs_diff(recon.view(), b.view()), 1e-9) << n;
  }
}

TEST(BlockedSolves, LdltTrsmRightSolves) {
  for (const std::size_t n : {33u, 130u}) {
    Matrix f(n, n);
    Rng rng(52);
    f.make_spd(rng);
    ASSERT_EQ(ldlt_lower(f.view()), 0);
    // X * D * L^T == B, checked as X * (L * D)^T.
    Matrix ld(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = j; i < n; ++i) {
        ld(i, j) = (i == j ? 1.0 : f(i, j)) * f(j, j);
      }
    }
    const Matrix b = random_matrix(9, n, 53);
    Matrix x = b;
    ldlt_trsm_right(f.view(), x.view());
    Matrix recon(9, n);
    ref::gemm(Op::none, Op::transpose, 1.0, x.view(), ld.view(), 0.0,
              recon.view());
    EXPECT_LT(max_abs_diff(recon.view(), b.view()), 1e-9) << n;
  }
}

TEST(BlockedSolves, LdltUpdateMatchesReference) {
  // n past one packed column block, k past one packed depth block.
  constexpr std::size_t kM = 70;
  constexpr std::size_t kN = 130;
  constexpr std::size_t kK = 300;
  const Matrix a = random_matrix(kM, kK, 54);
  const Matrix b = random_matrix(kN, kK, 55);
  const Matrix f = random_matrix(kK, kK, 56);
  Matrix c = random_matrix(kM, kN, 57);
  Matrix expected = c;
  Matrix bd = b;
  for (std::size_t p = 0; p < kK; ++p) {
    for (std::size_t j = 0; j < kN; ++j) {
      bd(j, p) *= f(p, p);
    }
  }
  ldlt_update(a.view(), f.view(), b.view(), c.view());
  ref::gemm(Op::none, Op::transpose, -1.0, a.view(), bd.view(), 1.0,
            expected.view());
  EXPECT_LT(max_abs_diff(c.view(), expected.view()), kTol);
}

// ---- Tile views and repeatability ------------------------------------------

// A symmetric positive definite matrix: a potrf input, whose factor is a
// well-conditioned trsm triangle.
Matrix spd(std::size_t n, std::uint64_t seed) {
  Matrix a(n, n);
  Rng rng(seed);
  a.make_spd(rng);
  return a;
}

Matrix dense_copy(ConstMatrixView v) {
  Matrix m(v.rows, v.cols);
  for (std::size_t j = 0; j < v.cols; ++j) {
    for (std::size_t i = 0; i < v.rows; ++i) {
      m(i, j) = v(i, j);
    }
  }
  return m;
}

bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
}

// A tile of a larger matrix (ld > rows) and a dense copy of it.
struct TileInput {
  ConstMatrixView tile;
  Matrix dense;
  [[nodiscard]] ConstMatrixView get(bool tiled) const {
    return tiled ? tile : dense.view();
  }
};

TileInput tile_input(ConstMatrixView tile) { return {tile, dense_copy(tile)}; }

// Every kernel on tiles of a larger matrix must write the same bytes as on
// dense copies of those tiles, and nothing outside its output tile.
class TileViewParam : public ::testing::TestWithParam<int> {};

TEST_P(TileViewParam, KernelsHonourLeadingDimension) {
  constexpr std::size_t kParent = 300;
  const auto n = static_cast<std::size_t>(GetParam());
  const Matrix src = random_matrix(kParent, kParent, 31);
  const Matrix factor = spd(n, 32);
  // Runs kernel(out, tiled) on the output tile of a copy of `parent` at
  // (i0, j0) with tiled inputs, and on a dense copy of that tile with
  // dense inputs, and compares the two.
  const auto check = [](const Matrix& parent, std::size_t i0, std::size_t j0,
                        std::size_t r, std::size_t c, const auto& kernel) {
    Matrix in_place = parent;
    Matrix alone = dense_copy(parent.tile(i0, j0, r, c));
    kernel(in_place.tile(i0, j0, r, c), true);
    kernel(alone.view(), false);
    EXPECT_TRUE(same_bytes(dense_copy(in_place.tile(i0, j0, r, c)), alone));
    Matrix outside = in_place;
    Matrix expected = parent;
    for (std::size_t j = j0; j < j0 + c; ++j) {
      for (std::size_t i = i0; i < i0 + r; ++i) {
        outside(i, j) = expected(i, j) = 0.0;
      }
    }
    EXPECT_TRUE(same_bytes(outside, expected));
  };

  for (const Op op_a : {Op::none, Op::transpose}) {
    for (const Op op_b : {Op::none, Op::transpose}) {
      const TileInput a = tile_input(op_a == Op::none ? src.tile(3, 5, n, 70)
                                                      : src.tile(3, 5, 70, n));
      const TileInput b = tile_input(op_b == Op::none
                                         ? src.tile(90, 2, 70, n - 1)
                                         : src.tile(90, 2, n - 1, 70));
      check(src, 7, 11, n, n - 1, [&](MatrixView c, bool tiled) {
        gemm(op_a, op_b, -1.0, a.get(tiled), b.get(tiled), 1.0, c);
      });
    }
  }
  const TileInput panel = tile_input(src.tile(150, 1, n, 40));
  check(src, 13, 17, n, n, [&](MatrixView c, bool tiled) {
    syrk_lower(-1.0, panel.get(tiled), 1.0, c);
  });

  Matrix l_parent = src;
  Matrix l = factor;
  ASSERT_EQ(potrf_lower(l.view()), 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      l_parent(20 + i, 30 + j) = l(i, j);
    }
  }
  const TileInput l_tile = tile_input(l_parent.tile(20, 30, n, n));
  check(src, 9, 2, 70, n, [&](MatrixView b, bool tiled) {
    trsm_right_lower_trans(l_tile.get(tiled), b);
  });

  Matrix a_parent = src;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      a_parent(40 + i, 50 + j) = factor(i, j);
    }
  }
  check(a_parent, 40, 50, n, n, [](MatrixView a, bool /*tiled*/) {
    EXPECT_EQ(potrf_lower(a), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, TileViewParam, ::testing::Values(5, 33, 130));

// perfbench requires every cholesky_ooc op to repeat its bytes exactly:
// the same call, on another thread (other pack buffers), gives the same
// result.
TEST(Determinism, RepeatedCallsGiveIdenticalBytes) {
  constexpr std::size_t kN = 128;
  const Matrix a = random_matrix(kN, kN, 40);
  const Matrix b = random_matrix(kN, kN, 41);
  const Matrix c = random_matrix(kN, kN, 42);
  Matrix l = spd(kN, 43);
  ASSERT_EQ(potrf_lower(l.view()), 0);
  const auto run = [&] {
    std::vector<Matrix> out = {c, c, b, spd(kN, 43)};
    gemm(Op::none, Op::transpose, -1.0, a.view(), b.view(), 1.0,
         out[0].view());
    syrk_lower(-1.0, a.view(), 1.0, out[1].view());
    trsm_right_lower_trans(l.view(), out[2].view());
    EXPECT_EQ(potrf_lower(out[3].view()), 0);
    return out;
  };
  const std::vector<Matrix> first = run();
  std::vector<Matrix> second;
  std::thread([&] { second = run(); }).join();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_bytes(first[i], second[i])) << "kernel " << i;
  }
}

// ---- Tiled composition property: tiled GEMM == monolithic GEMM -------------

TEST(TiledProperty, TiledGemmEqualsMonolithic) {
  constexpr std::size_t kN = 96;
  constexpr std::size_t kTile = 32;
  const Matrix a = random_matrix(kN, kN, 20);
  const Matrix b = random_matrix(kN, kN, 21);
  Matrix c_tiled(kN, kN);
  Matrix c_mono(kN, kN);

  gemm(Op::none, Op::none, 1.0, a.view(), b.view(), 0.0, c_mono.view());
  for (std::size_t i = 0; i < kN; i += kTile) {
    for (std::size_t j = 0; j < kN; j += kTile) {
      for (std::size_t k = 0; k < kN; k += kTile) {
        gemm(Op::none, Op::none, 1.0, a.tile(i, k, kTile, kTile),
             b.tile(k, j, kTile, kTile), k == 0 ? 0.0 : 1.0,
             c_tiled.tile(i, j, kTile, kTile));
      }
    }
  }
  EXPECT_LT(max_abs_diff(c_tiled.view(), c_mono.view()), kTol);
}

}  // namespace
}  // namespace hs::blas
