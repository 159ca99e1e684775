/**
 * @file
 * Kernel substrate parity suite: every compiled-in ISA variant must
 * produce byte-identical results to the generic scalar kernels, at
 * every thread count, including odd sizes that exercise the masked
 * vector tails.  Also pins the streaming TQ helpers (tqValueKeepTop,
 * tqGroupProject) to the reference term_quant implementations and the
 * lattice kernels to UniformQuantizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "core/term_quant.hpp"
#include "core/uniform_quant.hpp"
#include "kernels/kernels.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace mrq {
namespace {

using kernels::Isa;
using kernels::KernelTable;

/** Sizes covering empty, sub-lane, one-block, and ragged tails. */
const std::size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 100, 257, 1023};

std::vector<Isa>
compiledIsas()
{
    std::vector<Isa> isas = {Isa::Generic};
    if (kernels::kernelTableFor(Isa::Avx2) != nullptr)
        isas.push_back(Isa::Avx2);
    if (kernels::kernelTableFor(Isa::Avx512) != nullptr)
        isas.push_back(Isa::Avx512);
    return isas;
}

std::vector<float>
randomFloats(std::size_t n, Rng& rng, float scale = 1.0f)
{
    std::vector<float> v(n);
    for (float& x : v)
        x = scale * static_cast<float>(rng.normal());
    return v;
}

/** Byte-level equality (FLOAT_EQ would hide sign/NaN drift). */
bool
bitEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/** Restore the active ISA after each test. */
class ParityTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = kernels::activeIsa(); }
    void TearDown() override { kernels::setActiveIsa(saved_); }

  private:
    Isa saved_ = Isa::Generic;
};

TEST_F(ParityTest, DotMatchesGenericBitExact)
{
    Rng rng(101);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    ASSERT_NE(generic, nullptr);
    for (std::size_t n : kSizes) {
        const std::vector<float> a = randomFloats(n, rng);
        const std::vector<float> b = randomFloats(n, rng);
        float want = 0.0f;
        generic->dotRows(a.data(), b.data(), 1, n, &want,
                         kernels::RowOut::Store);
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            float got = 0.0f;
            kt->dotRows(a.data(), b.data(), 1, n, &got,
                        kernels::RowOut::Store);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                << "dot n=" << n << " isa=" << kernels::isaName(isa)
                << " want=" << want << " got=" << got;
        }
    }
}

TEST_F(ParityTest, ElementwiseKernelsMatchGenericBitExact)
{
    Rng rng(102);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t n : kSizes) {
        const std::vector<float> x = randomFloats(n, rng);
        const std::vector<float> y0 = randomFloats(n, rng);
        const float a = static_cast<float>(rng.normal());

        std::vector<float> want_axpy = y0;
        generic->axpy(a, x.data(), want_axpy.data(), n);
        std::vector<float> want_add = y0;
        generic->addRowInPlace(want_add.data(), x.data(), n);
        std::vector<float> want_scalar = y0;
        generic->addScalarInPlace(want_scalar.data(), a, n);

        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<float> got = y0;
            kt->axpy(a, x.data(), got.data(), n);
            EXPECT_TRUE(bitEqual(want_axpy, got))
                << "axpy n=" << n << " isa=" << kernels::isaName(isa);
            got = y0;
            kt->addRowInPlace(got.data(), x.data(), n);
            EXPECT_TRUE(bitEqual(want_add, got))
                << "addRow n=" << n << " isa=" << kernels::isaName(isa);
            got = y0;
            kt->addScalarInPlace(got.data(), a, n);
            EXPECT_TRUE(bitEqual(want_scalar, got))
                << "addScalar n=" << n << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, LatticeKernelsMatchUniformQuantizer)
{
    Rng rng(103);
    UniformQuantizer uq;
    uq.bits = 5;
    uq.clip = 0.83f;
    uq.isSigned = true;
    const kernels::LatticeParams lp =
        kernels::makeLatticeParams(uq.bits, uq.scale(), uq.isSigned);

    for (std::size_t n : kSizes) {
        // Mix smooth values with exact lattice midpoints (rounding
        // ties) and out-of-range values (clamping).
        std::vector<float> x = randomFloats(n, rng, 0.6f);
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 5 == 1)
                x[i] = (static_cast<float>(static_cast<int>(i % 63) - 31) +
                        0.5f) * uq.scale();
            if (i % 7 == 2)
                x[i] *= 10.0f;
        }
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<std::int32_t> q(n, 0);
            kt->latticeQuantize(x.data(), q.data(), n, lp);
            std::vector<float> rt(n, 0.0f);
            kt->latticeRoundTrip(x.data(), rt.data(), n, lp);
            std::vector<float> dq(n, 0.0f);
            kt->latticeDequant(q.data(), dq.data(), n, lp.scale);
            for (std::size_t i = 0; i < n; ++i) {
                const std::int64_t want_q = uq.quantize(x[i]);
                EXPECT_EQ(q[i], want_q)
                    << "x=" << x[i] << " isa=" << kernels::isaName(isa);
                const float want_rt = uq.roundTrip(x[i]);
                EXPECT_EQ(std::memcmp(&rt[i], &want_rt, sizeof(float)), 0)
                    << "roundTrip x=" << x[i]
                    << " isa=" << kernels::isaName(isa);
                EXPECT_EQ(std::memcmp(&dq[i], &want_rt, sizeof(float)), 0)
                    << "dequant x=" << x[i]
                    << " isa=" << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(ParityTest, LstmGatesMatchGenericBitExact)
{
    Rng rng(104);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t hidden : {1u, 3u, 8u, 17u, 64u, 100u}) {
        const std::vector<float> z = randomFloats(4 * hidden, rng);
        const std::vector<float> c_prev = randomFloats(hidden, rng);
        std::vector<float> want_g(4 * hidden), want_c(hidden),
            want_h(hidden);
        generic->lstmGates(z.data(), c_prev.data(), want_g.data(),
                           want_c.data(), want_h.data(), hidden);
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<float> g(4 * hidden), c(hidden), h(hidden);
            kt->lstmGates(z.data(), c_prev.data(), g.data(), c.data(),
                          h.data(), hidden);
            EXPECT_TRUE(bitEqual(want_g, g))
                << "gates hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
            EXPECT_TRUE(bitEqual(want_c, c))
                << "c hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
            EXPECT_TRUE(bitEqual(want_h, h))
                << "h hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, IntegerKernelsMatchGeneric)
{
    Rng rng(105);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t n : kSizes) {
        std::vector<std::int16_t> exps(n);
        std::vector<std::int8_t> signs(n);
        for (std::size_t i = 0; i < n; ++i) {
            exps[i] = static_cast<std::int16_t>(rng.next() % 40);
            signs[i] = (rng.next() & 1) != 0 ? 1 : -1;
        }
        const std::int64_t y_in =
            static_cast<std::int64_t>(rng.next() % 4096) - 2048;
        const std::int64_t want =
            generic->termPairAccumulate(exps.data(), signs.data(), n, y_in);

        std::vector<std::int64_t> buckets(n);
        for (std::size_t i = 0; i < n && i < 48; ++i)
            buckets[i] = static_cast<std::int64_t>(rng.next() % 65) - 32;
        const std::size_t bucket_n = std::min<std::size_t>(n, 48);
        const std::int64_t want_sum =
            generic->weightedBucketSum(buckets.data(), bucket_n);

        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            EXPECT_EQ(kt->termPairAccumulate(exps.data(), signs.data(), n,
                                             y_in),
                      want)
                << "termPairAccumulate n=" << n
                << " isa=" << kernels::isaName(isa);
            EXPECT_EQ(kt->weightedBucketSum(buckets.data(), bucket_n),
                      want_sum)
                << "weightedBucketSum n=" << bucket_n
                << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, TqValueKeepTopMatchesTermQuantizeValue)
{
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        for (std::int64_t v = -1025; v <= 1025; ++v) {
            for (std::size_t beta : {0u, 1u, 2u, 3u, 8u}) {
                const kernels::TqValueResult r =
                    kernels::tqValueKeepTop(v, beta, enc);
                EXPECT_EQ(r.value, termQuantizeValue(v, beta, enc))
                    << "v=" << v << " beta=" << beta;
                EXPECT_EQ(r.kept, std::min(beta, termCount(v, enc)))
                    << "v=" << v << " beta=" << beta;
            }
        }
    }
}

TEST_F(ParityTest, TqGroupProjectMatchesTermQuantizeGroup)
{
    Rng rng(106);
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        for (std::size_t len : {1u, 3u, 7u, 16u, 21u}) {
            for (std::size_t budget : {0u, 1u, 5u, 20u, 200u}) {
                for (int trial = 0; trial < 20; ++trial) {
                    std::vector<std::int64_t> group(len);
                    std::vector<std::int32_t> q(len);
                    for (std::size_t i = 0; i < len; ++i) {
                        group[i] =
                            static_cast<std::int64_t>(rng.next() % 63) - 31;
                        q[i] = static_cast<std::int32_t>(group[i]);
                    }
                    const GroupQuantResult want =
                        termQuantizeGroup(group, budget, enc);
                    std::vector<std::int32_t> out(len, 0);
                    const kernels::TqGroupStats stats =
                        kernels::tqGroupProject(q.data(), len, budget, enc,
                                                out.data());
                    for (std::size_t i = 0; i < len; ++i)
                        EXPECT_EQ(out[i], want.values[i])
                            << "len=" << len << " budget=" << budget
                            << " i=" << i;
                    EXPECT_EQ(stats.kept, want.keptTerms.size());
                    EXPECT_EQ(stats.total, want.totalTerms);
                    // In-place aliasing must give the same answer.
                    kernels::tqGroupProject(q.data(), len, budget, enc,
                                            q.data());
                    for (std::size_t i = 0; i < len; ++i)
                        EXPECT_EQ(q[i], out[i]);
                }
            }
        }
    }
}

TEST_F(ParityTest, TqValueTableMatchesTqValueKeepTop)
{
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        for (int bits = 2; bits <= 8; ++bits) {
            for (bool is_signed : {false, true}) {
                const kernels::LatticeParams lp =
                    kernels::makeLatticeParams(bits, 0.1f, is_signed);
                for (std::size_t beta = 1; beta <= 6; ++beta) {
                    const kernels::TqValueTable table(lp, beta, enc);
                    ASSERT_TRUE(table.fits());
                    ASSERT_EQ(table.levels(),
                              static_cast<std::size_t>(lp.hi - lp.lo) + 1);
                    for (std::int32_t q = lp.lo; q <= lp.hi; ++q) {
                        const kernels::TqValueResult want =
                            kernels::tqValueKeepTop(q, beta, enc);
                        const kernels::TqValueResult got = table.lookup(q);
                        EXPECT_EQ(got.value, want.value)
                            << "q=" << q << " bits=" << bits
                            << " beta=" << beta;
                        EXPECT_EQ(got.kept, want.kept)
                            << "q=" << q << " bits=" << bits
                            << " beta=" << beta;
                    }
                }
            }
        }
    }
    // A 10-bit lattice is wider than the table: not tabulated.
    EXPECT_FALSE(kernels::TqValueTable(kernels::makeLatticeParams(
                                           10, 0.1f, false),
                                       2, TermEncoding::Naf)
                     .fits());
}

/** fakeQuantData is a per-element function of the input: the table
 *  lookup (bits 5, 8) and the per-element fallback (bits 10) must both
 *  equal UQ + tqValueKeepTop + dequantize, element by element. */
TEST_F(ParityTest, FakeQuantDataMatchesPerElementReference)
{
    Rng rng(108);
    const Tensor x = [&] {
        Tensor t({2100});
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<float>(rng.normal()) * 0.8f;
        return t;
    }();
    for (int bits : {5, 8, 10}) {
        for (bool is_signed : {false, true}) {
            SubModelConfig cfg;
            cfg.mode = QuantMode::Tq;
            cfg.bits = bits;
            cfg.beta = 2;
            UniformQuantizer uq;
            uq.bits = bits;
            uq.clip = 1.1f;
            uq.isSigned = is_signed;
            QuantStats stats;
            const Tensor got =
                fakeQuantData(x, uq.clip, cfg, &stats, is_signed);
            std::size_t kept = 0;
            for (std::size_t i = 0; i < x.size(); ++i) {
                const kernels::TqValueResult r = kernels::tqValueKeepTop(
                    uq.quantize(x[i]), cfg.beta, cfg.encoding);
                kept += r.kept;
                const float want =
                    static_cast<float>(r.value) * uq.scale();
                EXPECT_EQ(std::memcmp(got.data() + i, &want, sizeof(float)),
                          0)
                    << "bits=" << bits << " signed=" << is_signed
                    << " x=" << x[i];
            }
            EXPECT_EQ(stats.keptTerms, kept);
            EXPECT_EQ(stats.units, x.size());
        }
    }
}

/** End-to-end: matmul + fake-quant bits must not depend on ISA or
 *  thread count. */
TEST_F(ParityTest, MatmulAndFakeQuantInvariantAcrossIsaAndThreads)
{
    Rng rng(107);
    Tensor a({13, 37});
    Tensor b({37, 17});
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(rng.normal());
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(rng.normal());
    Tensor w({8, 33});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(rng.normal()) * 0.4f;
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.groupSize = 16;
    cfg.alpha = 6;
    cfg.beta = 2;

    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    std::vector<float> ref_mm;
    std::vector<float> ref_fq;
    for (Isa isa : compiledIsas()) {
        kernels::setActiveIsa(isa);
        for (std::size_t threads : {1u, 4u, 7u}) {
            ThreadPool::instance().resize(threads);
            Tensor mm = matmul(a, b);
            Tensor fq = fakeQuantWeights(w, 1.0f, cfg, nullptr);
            std::vector<float> mm_bits(mm.data(), mm.data() + mm.size());
            std::vector<float> fq_bits(fq.data(), fq.data() + fq.size());
            if (ref_mm.empty()) {
                ref_mm = mm_bits;
                ref_fq = fq_bits;
            } else {
                EXPECT_TRUE(bitEqual(ref_mm, mm_bits))
                    << "matmul isa=" << kernels::isaName(isa)
                    << " threads=" << threads;
                EXPECT_TRUE(bitEqual(ref_fq, fq_bits))
                    << "fakeQuant isa=" << kernels::isaName(isa)
                    << " threads=" << threads;
            }
        }
    }
    ThreadPool::instance().resize(saved_threads);
}

TEST_F(ParityTest, SetActiveIsaClampsAndDispatches)
{
    // Requesting the generic table always succeeds and kernels()
    // reflects it immediately.
    kernels::setActiveIsa(Isa::Generic);
    EXPECT_EQ(kernels::activeIsa(), Isa::Generic);
    EXPECT_EQ(kernels::kernels().isa, Isa::Generic);
    // Requesting the widest ISA lands on something available.
    kernels::setActiveIsa(Isa::Avx512);
    EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsa()));
    EXPECT_EQ(kernels::kernels().isa, kernels::activeIsa());
}

} // namespace
} // namespace mrq
