/**
 * @file
 * Kernel substrate parity suite: every compiled-in ISA variant must
 * produce byte-identical results to the generic scalar kernels, at
 * every thread count, including odd sizes that exercise the masked
 * vector tails.  Also pins the streaming TQ helpers (tqValueKeepTop,
 * tqGroupProject) to the reference term_quant implementations, checks
 * that the group projection's terms nest across budgets, and pins the
 * lattice kernels to UniformQuantizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
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

/** A random group of lattice levels in [lo, hi]: about a quarter of
 *  the members zero and an eighth at an end of the lattice. */
std::vector<std::int64_t>
randomLevels(std::size_t len, const kernels::LatticeParams& lp, Rng& rng)
{
    const auto span = static_cast<std::uint64_t>(lp.hi - lp.lo) + 1;
    std::vector<std::int64_t> group(len);
    for (std::int64_t& v : group) {
        const std::uint64_t pick = rng.next() % 8;
        if (pick < 2)
            v = 0;
        else if (pick == 2)
            v = rng.next() % 2 == 0 ? lp.lo : lp.hi;
        else
            v = lp.lo + static_cast<std::int64_t>(rng.next() % span);
    }
    return group;
}

/** Lattices of 2-12 bits, signed and unsigned, in every encoding:
 *  bits <= 8 project through the mask table, 10 and 12 through the
 *  per-element masks.  Lengths 1-40 cover the tail groups; budgets
 *  run from 0 to past the group's total. */
TEST_F(ParityTest, TqGroupProjectMatchesTermQuantizeGroup)
{
    Rng rng(106);
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        for (int bits = 2; bits <= 12; ++bits) {
            for (bool is_signed : {false, true}) {
                const kernels::LatticeParams lp =
                    kernels::makeLatticeParams(bits, 0.1f, is_signed);
                const kernels::TermMaskTable masks(lp, enc);
                if (bits <= 8) {
                    ASSERT_TRUE(masks.fits());
                }
                if (bits >= 10) {
                    ASSERT_FALSE(masks.fits());
                }
                for (std::size_t len = 1; len <= 40; ++len) {
                    for (int trial = 0; trial < 3; ++trial) {
                        const std::vector<std::int64_t> group =
                            trial == 0 && len % 8 == 0
                                ? std::vector<std::int64_t>(len, 0)
                                : randomLevels(len, lp, rng);
                        const std::vector<std::int32_t> q(group.begin(),
                                                          group.end());
                        const std::size_t total =
                            termQuantizeGroup(group, 0, enc).totalTerms;
                        for (std::size_t budget :
                             {std::size_t{0}, std::size_t{1}, len / 2, len,
                              2 * len, total > 0 ? total - 1 : 0, total,
                              total + 1, total + 40}) {
                            const GroupQuantResult want =
                                termQuantizeGroup(group, budget, enc);
                            std::vector<std::int32_t> out(len, 0);
                            const kernels::TqGroupStats stats =
                                kernels::tqGroupProject(q.data(), len,
                                                        budget, masks,
                                                        out.data());
                            SCOPED_TRACE(::testing::Message()
                                         << "bits=" << bits << " signed="
                                         << is_signed << " len=" << len
                                         << " budget=" << budget);
                            for (std::size_t i = 0; i < len; ++i)
                                ASSERT_EQ(out[i], want.values[i])
                                    << "i=" << i;
                            ASSERT_EQ(stats.kept, want.keptTerms.size());
                            ASSERT_EQ(stats.total, want.totalTerms);
                            // In-place aliasing must give the same
                            // answer.
                            std::vector<std::int32_t> in_place = q;
                            kernels::tqGroupProject(in_place.data(), len,
                                                    budget, masks,
                                                    in_place.data());
                            ASSERT_EQ(in_place, out);
                        }
                    }
                }
            }
        }
    }
}

/** The terms of @p value in the reference encoder's decomposition, as
 *  (positive, negative) exponent masks. */
std::pair<std::uint64_t, std::uint64_t>
referenceTermSets(std::int64_t value, TermEncoding enc)
{
    std::pair<std::uint64_t, std::uint64_t> sets{0, 0};
    for (const Term& t : encodeTerms(value, enc))
        (t.sign > 0 ? sets.first : sets.second) |= std::uint64_t{1}
                                                   << t.exponent;
    return sets;
}

/** Terms nest across budgets, as a property over random groups: for
 *  every budget pair a < b each projected member's terms at a are a
 *  subset of its terms at b, which are a subset of the input's terms.
 *  Checked in NAF and UBR, where a subset of a value's terms
 *  re-encodes to itself; a subset of Booth digits need not. */
TEST_F(ParityTest, TqGroupProjectNestsAcrossBudgets)
{
    Rng rng(107);
    for (TermEncoding enc : {TermEncoding::Naf, TermEncoding::Ubr}) {
        for (int bits : {3, 5, 8, 10}) {
            const kernels::LatticeParams lp =
                kernels::makeLatticeParams(bits, 0.1f, true);
            const kernels::TermMaskTable masks(lp, enc);
            for (int trial = 0; trial < 12; ++trial) {
                const std::size_t len = 1 + rng.next() % 24;
                const std::vector<std::int64_t> group =
                    randomLevels(len, lp, rng);
                const std::vector<std::int32_t> q(group.begin(),
                                                  group.end());
                const std::size_t total =
                    termQuantizeGroup(group, 0, enc).totalTerms;
                // sets[b][i]: member i's terms at budget b; the last
                // row holds the input's.
                std::vector<std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
                    sets(total + 3);
                std::vector<std::int32_t> out(len);
                for (std::size_t b = 0; b <= total + 1; ++b) {
                    kernels::tqGroupProject(q.data(), len, b, masks,
                                            out.data());
                    for (std::size_t i = 0; i < len; ++i)
                        sets[b].push_back(referenceTermSets(out[i], enc));
                }
                for (std::size_t i = 0; i < len; ++i)
                    sets[total + 2].push_back(
                        referenceTermSets(group[i], enc));
                const auto subset = [](std::pair<std::uint64_t,
                                                 std::uint64_t> x,
                                       std::pair<std::uint64_t,
                                                 std::uint64_t> y) {
                    return (x.first & ~y.first) == 0 &&
                           (x.second & ~y.second) == 0;
                };
                for (std::size_t a = 0; a < sets.size(); ++a)
                    for (std::size_t b = a + 1; b < sets.size(); ++b)
                        for (std::size_t i = 0; i < len; ++i)
                            ASSERT_TRUE(subset(sets[a][i], sets[b][i]))
                                << "bits=" << bits << " len=" << len
                                << " budgets " << a << " < " << b
                                << " member " << i << " value "
                                << group[i];
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
