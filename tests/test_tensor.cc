/**
 * @file
 * Tensor and shape tests.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "nn/tensor.hh"

namespace ptolemy::nn
{
namespace
{

TEST(Shape, Numel)
{
    EXPECT_EQ(flatShape(10).numel(), 10u);
    EXPECT_TRUE(flatShape(10).isFlat());
    EXPECT_EQ(mapShape(3, 4, 5).numel(), 60u);
    EXPECT_FALSE(mapShape(3, 4, 5).isFlat());
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t(mapShape(2, 3, 3));
    EXPECT_EQ(t.size(), 18u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ChwIndexing)
{
    Tensor t(mapShape(2, 3, 4));
    t.at(1, 2, 3) = 5.0f;
    EXPECT_EQ(t[t.index(1, 2, 3)], 5.0f);
    EXPECT_EQ(t.index(0, 0, 0), 0u);
    EXPECT_EQ(t.index(1, 0, 0), 12u);
    EXPECT_EQ(t.index(1, 2, 3), 12u + 2 * 4 + 3);
}

TEST(Tensor, ElementwiseOps)
{
    Tensor a(flatShape(3), {1.0f, 2.0f, 3.0f});
    Tensor b(flatShape(3), {0.5f, 0.5f, 0.5f});
    a += b;
    EXPECT_FLOAT_EQ(a[0], 1.5f);
    a *= 2.0f;
    EXPECT_FLOAT_EQ(a[2], 7.0f);
}

TEST(Tensor, SumSqAndArgmax)
{
    Tensor t(flatShape(4), {1.0f, -2.0f, 3.0f, 0.0f});
    EXPECT_DOUBLE_EQ(t.sumSq(), 1.0 + 4.0 + 9.0);
    EXPECT_EQ(t.argmax(), 2u);
}

TEST(Tensor, FillConstant)
{
    Tensor t(flatShape(5));
    t.fill(2.5f);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], 2.5f);
}

TEST(Misuse, TensorRejectsDataOfOtherSize)
{
    // The size check guards caller data, so it must hold in Release.
    EXPECT_THROW(Tensor(mapShape(2, 3, 3), std::vector<float>(17)),
                 std::invalid_argument);
    EXPECT_THROW(Tensor(flatShape(4), std::vector<float>(5)),
                 std::invalid_argument);
    EXPECT_THROW(Tensor(flatShape(4), {}), std::invalid_argument);
    EXPECT_EQ(Tensor(mapShape(2, 3, 3), std::vector<float>(18)).size(), 18u);
}

} // namespace
} // namespace ptolemy::nn
