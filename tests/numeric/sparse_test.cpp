#include "src/numeric/sparse.hpp"

#include <gtest/gtest.h>

namespace stco::numeric {
namespace {

TEST(Sparse, FromTripletsSumsDuplicates) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);  // duplicate: summed
  b.add(1, 1, 4.0);
  b.add(0, 1, -1.0);
  const auto m = SparseMatrix::from_triplets(b);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.coeff(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.coeff(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 0), 0.0);
}

TEST(Sparse, OutOfRangeAddThrows) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 2, 1.0), std::out_of_range);
}

TEST(Sparse, Apply) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 0, 1.0);
  b.add(1, 2, 3.0);
  b.add(2, 1, -1.0);
  const auto m = SparseMatrix::from_triplets(b);
  const Vec y = m.apply({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_DOUBLE_EQ(y[2], -2.0);
}

TEST(Sparse, RefillSamePattern) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 2.0);
  auto m = SparseMatrix::from_triplets(b);

  TripletBuilder b2(2, 2);
  b2.add(0, 0, 5.0);
  b2.add(1, 1, 6.0);
  m.refill(b2);
  EXPECT_DOUBLE_EQ(m.coeff(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.coeff(1, 1), 6.0);
}

TEST(Sparse, RefillPatternMismatchThrows) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  auto m = SparseMatrix::from_triplets(b);
  TripletBuilder b2(2, 2);
  b2.add(0, 1, 1.0);  // not in pattern
  EXPECT_THROW(m.refill(b2), std::invalid_argument);
}

TEST(Sparse, ToDenseRoundTrip) {
  TripletBuilder b(2, 3);
  b.add(0, 1, 4.0);
  b.add(1, 2, -2.5);
  const auto m = SparseMatrix::from_triplets(b);
  const Matrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d(1, 2), -2.5);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

}  // namespace
}  // namespace stco::numeric
