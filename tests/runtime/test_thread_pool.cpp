/**
 * @file
 * Determinism and correctness tests for the runtime thread pool.
 *
 * The pool's contract is that chunk boundaries depend only on problem
 * size and grain, and reductions fold partials in chunk order — so
 * every kernel built on it must produce bit-identical results at any
 * pool size.  These tests exercise that contract directly on the pool
 * helpers and end-to-end on the hot kernels (matmul, im2col,
 * fakeQuantWeights).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "nn/lstm.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace mrq {
namespace {

/** Restores the ambient pool size around each test. */
class ThreadPoolTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_ = ThreadPool::instance().threadCount();
    }
    void TearDown() override { ThreadPool::instance().resize(saved_); }

  private:
    std::size_t saved_ = 1;
};

Tensor
randomTensor(std::vector<std::size_t> shape, Rng& rng, float scale = 1.0f)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal()) * scale;
    return t;
}

void
expectBitIdentical(const Tensor& a, const Tensor& b)
{
    ASSERT_TRUE(a.sameShape(b));
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

/** Runs fn() at each pool size and asserts all outputs are identical. */
template <typename Fn>
void
expectSamePerPoolSize(Fn&& fn)
{
    ThreadPool::instance().resize(1);
    const Tensor reference = fn();
    for (std::size_t threads : {2, 3, 4, 7}) {
        ThreadPool::instance().resize(threads);
        SCOPED_TRACE("pool size " + std::to_string(threads));
        expectBitIdentical(fn(), reference);
    }
}

TEST_F(ThreadPoolTest, ResizeChangesThreadCount)
{
    ThreadPool::instance().resize(3);
    EXPECT_EQ(ThreadPool::instance().threadCount(), 3u);
    ThreadPool::instance().resize(1);
    EXPECT_EQ(ThreadPool::instance().threadCount(), 1u);
}

TEST_F(ThreadPoolTest, ChunkGeometryIgnoresThreadCount)
{
    EXPECT_EQ(parallelChunks(100, 7), 15u);
    EXPECT_EQ(parallelChunks(14, 7), 2u);
    EXPECT_EQ(parallelChunks(1, 7), 1u);
    EXPECT_EQ(parallelChunks(5, 0), 5u); // grain clamps to 1
    EXPECT_GE(parallelGrain(0), 1u);
    EXPECT_EQ(parallelGrain(1u << 30), 1u);
}

TEST_F(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool::instance().resize(4);
    const std::size_t n = 1237;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, 7, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_F(ThreadPoolTest, MatmulVariantsBitIdenticalAcrossPoolSizes)
{
    Rng rng(11);
    const Tensor a = randomTensor({37, 53}, rng);
    const Tensor b = randomTensor({53, 29}, rng);
    const Tensor at = transpose2d(a);
    const Tensor bt = transpose2d(b);
    expectSamePerPoolSize([&] { return matmul(a, b); });
    expectSamePerPoolSize([&] { return matmulTransA(at, b); });
    expectSamePerPoolSize([&] { return matmulTransB(a, bt); });
}

TEST_F(ThreadPoolTest, Im2colBitIdenticalAcrossPoolSizes)
{
    Rng rng(12);
    const Tensor x = randomTensor({2, 3, 13, 11}, rng);
    expectSamePerPoolSize([&] { return im2col(x, 3, 2, 1); });
}

TEST_F(ThreadPoolTest, FakeQuantWeightsBitIdenticalAcrossPoolSizes)
{
    Rng rng(13);
    const Tensor w = randomTensor({48, 40}, rng, 0.3f);
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.bits = 5;
    cfg.groupSize = 16;
    cfg.alpha = 12;
    cfg.beta = 3;

    ThreadPool::instance().resize(1);
    QuantStats ref_stats;
    const Tensor reference = fakeQuantWeights(w, 1.0f, cfg, &ref_stats);
    for (std::size_t threads : {2, 4, 7}) {
        ThreadPool::instance().resize(threads);
        SCOPED_TRACE("pool size " + std::to_string(threads));
        QuantStats stats;
        expectBitIdentical(fakeQuantWeights(w, 1.0f, cfg, &stats),
                           reference);
        EXPECT_EQ(stats.keptTerms, ref_stats.keptTerms);
        EXPECT_EQ(stats.units, ref_stats.units);
    }
}

TEST_F(ThreadPoolTest, ReduceFoldsPartialsInChunkOrder)
{
    // Float accumulation is order-sensitive; the fold order is defined
    // by the chunking, so sums must match bit-for-bit per pool size.
    Rng rng(14);
    const Tensor v = randomTensor({4099}, rng, 100.0f);
    auto sum = [&] {
        return Tensor(
            {1},
            parallelReduce(
                v.size(), 64, 0.0f,
                [&](std::size_t b, std::size_t e) {
                    float s = 0.0f;
                    for (std::size_t i = b; i < e; ++i)
                        s += v[i];
                    return s;
                },
                [](float acc, float part) { return acc + part; }));
    };
    expectSamePerPoolSize(sum);
}

TEST_F(ThreadPoolTest, ExceptionInChunkPropagatesToCaller)
{
    ThreadPool::instance().resize(4);
    EXPECT_THROW(
        parallelFor(100, 1,
                    [&](std::size_t b, std::size_t) {
                        if (b == 57)
                            throw std::runtime_error("chunk failure");
                    }),
        std::runtime_error);
    // The pool must remain usable after an exception.
    std::atomic<int> count{0};
    parallelFor(100, 1, [&](std::size_t b, std::size_t e) {
        count.fetch_add(static_cast<int>(e - b),
                        std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100);
}

TEST_F(ThreadPoolTest, NestedParallelRegionsRunInline)
{
    ThreadPool::instance().resize(4);
    // Outer region over rows, inner region per row: the inner calls
    // must run inline on the worker instead of deadlocking the pool.
    const std::size_t rows = 8, cols = 1000;
    std::vector<std::size_t> row_sums(rows, 0);
    parallelFor(rows, 1, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            row_sums[r] = parallelReduce(
                cols, 64, std::size_t{0},
                [&](std::size_t b, std::size_t e) {
                    std::size_t s = 0;
                    for (std::size_t i = b; i < e; ++i)
                        s += i;
                    return s;
                },
                [](std::size_t acc, std::size_t part) {
                    return acc + part;
                });
        }
    });
    const std::size_t expected = cols * (cols - 1) / 2;
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(row_sums[r], expected);
}

/** The thread that ran each chunk of a parallelFor over @p n indices
 *  in chunks of @p grain. */
std::vector<std::thread::id>
chunkThreads(std::size_t n, std::size_t grain)
{
    std::vector<std::thread::id> ids(parallelChunks(n, grain));
    parallelFor(n, grain, [&](std::size_t b, std::size_t) {
        ids[b / grain] = std::this_thread::get_id();
    });
    return ids;
}

std::int64_t
counterValue(const std::string& name)
{
    for (const auto& cv : obs::MetricsRegistry::instance().snapshot().counters)
        if (cv.name == name)
            return cv.value;
    return 0;
}

TEST_F(ThreadPoolTest, HandOffRuleDependsOnlyOnSizeAndGrain)
{
    EXPECT_FALSE(parallelHandOffPays(7, 7));   // one chunk
    EXPECT_FALSE(parallelHandOffPays(8, 7));   // second chunk: 1 index
    EXPECT_FALSE(parallelHandOffPays(9, 7));   // 2 < 7 / 2
    EXPECT_TRUE(parallelHandOffPays(10, 7));   // 3 = 7 / 2
    EXPECT_TRUE(parallelHandOffPays(11, 7));
    EXPECT_TRUE(parallelHandOffPays(15, 7));   // three chunks
    EXPECT_FALSE(parallelHandOffPays(192, 170));
    EXPECT_FALSE(parallelHandOffPays(254, 170));
    EXPECT_TRUE(parallelHandOffPays(255, 170));
    EXPECT_TRUE(parallelHandOffPays(2, 1));
    EXPECT_TRUE(parallelHandOffPays(2, 0)); // grain clamps to 1
}

TEST_F(ThreadPoolTest, SliverRegionRunsEveryChunkOnTheCaller)
{
    for (std::size_t threads : {2, 4}) {
        ThreadPool::instance().resize(threads);
        SCOPED_TRACE("pool size " + std::to_string(threads));
        const std::vector<std::thread::id> ids = chunkThreads(8, 7);
        ASSERT_EQ(ids.size(), 2u);
        EXPECT_EQ(ids[0], std::this_thread::get_id());
        EXPECT_EQ(ids[1], std::this_thread::get_id());
    }
}

TEST_F(ThreadPoolTest, RegionWithHalfAChunkPastTheFirstHandsOff)
{
    for (std::size_t threads : {2, 4}) {
        ThreadPool::instance().resize(threads);
        for (std::size_t n : {11, 15}) {
            SCOPED_TRACE("pool size " + std::to_string(threads) +
                         ", n " + std::to_string(n));
            const std::vector<std::thread::id> ids = chunkThreads(n, 7);
            EXPECT_EQ(ids[0], std::this_thread::get_id());
            EXPECT_NE(ids[1], std::this_thread::get_id());
        }
    }
}

TEST_F(ThreadPoolTest, PoolCountersIgnoreTheHandOffDecision)
{
    const bool prev = obs::setMetricsEnabled(true);
    for (std::size_t threads : {1, 2, 4}) {
        ThreadPool::instance().resize(threads);
        for (std::size_t n : {8, 11, 15}) {
            SCOPED_TRACE("pool size " + std::to_string(threads) +
                         ", n " + std::to_string(n));
            const std::int64_t regions0 =
                counterValue("runtime.pool.regions");
            const std::int64_t chunks0 = counterValue("runtime.pool.chunks");
            parallelFor(n, 7, [](std::size_t, std::size_t) {});
            EXPECT_EQ(counterValue("runtime.pool.regions") - regions0, 1);
            EXPECT_EQ(counterValue("runtime.pool.chunks") - chunks0,
                      static_cast<std::int64_t>(parallelChunks(n, 7)));
        }
    }
    obs::setMetricsEnabled(prev);
}

TEST_F(ThreadPoolTest, ReduceOverSliverGeometriesBitIdentical)
{
    Rng rng(15);
    const Tensor v = randomTensor({600}, rng, 100.0f);
    for (std::size_t grain : {7, 170}) {
        for (std::size_t n : {8, 9, 10, 11, 15, 192, 254, 255, 600}) {
            SCOPED_TRACE("n " + std::to_string(n) + ", grain " +
                         std::to_string(grain));
            const auto sum = [&] {
                return Tensor(
                    {1},
                    parallelReduce(
                        n, grain, 0.0f,
                        [&](std::size_t b, std::size_t e) {
                            float s = 0.0f;
                            for (std::size_t i = b; i < e; ++i)
                                s += v[i];
                            return s;
                        },
                        [](float acc, float part) { return acc + part; }));
            };
            ThreadPool::instance().resize(1);
            const Tensor reference = sum();
            for (std::size_t threads : {2, 4}) {
                ThreadPool::instance().resize(threads);
                expectBitIdentical(sum(), reference);
            }
        }
    }
}

/** The LSTM's per-timestep GEMMs are the sliver regions the hand-off
 *  rule inlines: forward output, dx and every gradient must not depend
 *  on the pool size. */
TEST_F(ThreadPoolTest, LstmForwardBackwardBitIdenticalAcrossPoolSizes)
{
    Rng data_rng(16);
    const Tensor x = randomTensor({5, 8, 24}, data_rng);
    const Tensor dy = randomTensor({5, 8, 48}, data_rng);
    QuantContext ctx;
    ctx.config.mode = QuantMode::Tq;
    ctx.config.bits = 5;
    ctx.config.groupSize = 16;
    ctx.config.alpha = 12;
    ctx.config.beta = 3;
    const auto run = [&] {
        Rng rng(17);
        Lstm lstm(24, 48, rng);
        lstm.setQuantContext(&ctx);
        std::vector<Tensor> outs;
        outs.push_back(lstm.forward(x));
        outs.push_back(lstm.backward(dy));
        std::vector<Parameter*> params;
        lstm.collectParameters(params);
        for (Parameter* p : params)
            outs.push_back(p->grad);
        return outs;
    };
    ThreadPool::instance().resize(1);
    const std::vector<Tensor> reference = run();
    for (std::size_t threads : {2, 4}) {
        ThreadPool::instance().resize(threads);
        SCOPED_TRACE("pool size " + std::to_string(threads));
        const std::vector<Tensor> got = run();
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("output " + std::to_string(i));
            expectBitIdentical(got[i], reference[i]);
        }
    }
}

} // namespace
} // namespace mrq
