/**
 * @file
 * Tests for the Tensor container.
 */

#include <gtest/gtest.h>

#include <string>

#include "tensor/tensor.hpp"

namespace mrq {
namespace {

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ShapeConstructorZeroInitializes)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.size(), 6u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor)
{
    Tensor t({4}, 2.5f);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataConstructorChecksSize)
{
    EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), FatalError);
    Tensor ok({2, 2}, std::vector<float>{1, 2, 3, 4});
    EXPECT_EQ(ok(1, 1), 4.0f);
}

TEST(Tensor, Rank2Indexing)
{
    Tensor t({2, 3});
    t(1, 2) = 7.0f;
    EXPECT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, Rank4IndexingRowMajor)
{
    Tensor t({2, 3, 4, 5});
    t(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r(2, 1), 6.0f);
    EXPECT_THROW(t.reshaped({4, 2}), FatalError);
}

TEST(Tensor, InPlaceReshape)
{
    Tensor t({6});
    t.reshape({2, 3});
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_THROW(t.reshape({7}), FatalError);
}

TEST(Tensor, AdditionAndSubtraction)
{
    Tensor a({3}, std::vector<float>{1, 2, 3});
    Tensor b({3}, std::vector<float>{4, 5, 6});
    Tensor c = a + b;
    EXPECT_EQ(c[0], 5.0f);
    EXPECT_EQ(c[2], 9.0f);
    Tensor d = b - a;
    EXPECT_EQ(d[1], 3.0f);
}

TEST(Tensor, ShapeMismatchThrows)
{
    Tensor a({3});
    Tensor b({4});
    EXPECT_THROW(a += b, FatalError);
}

TEST(Tensor, ScalarMultiply)
{
    Tensor a({2}, std::vector<float>{3, -4});
    Tensor b = a * 0.5f;
    EXPECT_EQ(b[0], 1.5f);
    EXPECT_EQ(b[1], -2.0f);
}

TEST(Tensor, SumAndMaxAbs)
{
    Tensor a({4}, std::vector<float>{1, -2, 3, -4});
    EXPECT_DOUBLE_EQ(a.sum(), -2.0);
    EXPECT_EQ(a.maxAbs(), 4.0f);
}

TEST(Tensor, ShapeString)
{
    // Shapes print through the shared check formatter.
    Tensor a({2, 3, 4});
    const Tensor b({2, 3});
    try {
        a += b;
        FAIL() << "shape mismatch not rejected";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("[2, 3, 4] vs [2, 3]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Tensor, CopySemantics)
{
    Tensor a({2}, std::vector<float>{1, 2});
    Tensor b = a;
    b[0] = 5.0f;
    EXPECT_EQ(a[0], 1.0f);
}

} // namespace
} // namespace mrq
