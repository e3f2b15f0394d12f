/**
 * @file
 * The registered convolution algorithms: the paper's three lowering
 * schemes (channel-first implicit, channel-last implicit, explicit
 * im2col) plus the two zoo additions from PAPERS.md — IndirectConv
 * (Dukhan, arXiv:1907.02129) and SMM-Conv (Ofir & Ben-Artzi,
 * arXiv:2411.15659). Each supplies its plan and its pointer producer;
 * the one Algorithm::execute() runs them on im2col::gatherGemm(), which
 * is deterministic at any thread count because parallelFor only ever
 * distributes disjoint output rows.
 */

#include "conv/algorithm.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "im2col/implicit_conv.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::conv {

namespace {

using im2col::FeedLocality;
using im2col::FilterTile;
using im2col::PassPlan;
using im2col::TapPointers;
using tensor::ColumnOrder;

/** Pointer-size of one indirection-buffer entry (64-bit host). */
constexpr Bytes kPointerBytes = 8;

/** Plan of the per-tap schemes: the decomposed 1x1 tiles in row-major
 *  order, C_I deep each. */
PassPlan
tapPlan(const ConvParams &params, FeedLocality feed)
{
    PassPlan plan;
    plan.taps = im2col::decomposeFilter(params);
    plan.tapDepth = params.inChannels;
    plan.feed = feed;
    return plan;
}

/** Plan of the schemes that walk all of gemmK as one column block. */
PassPlan
wholeGemmPlan(const ConvParams &params, FeedLocality feed)
{
    PassPlan plan;
    plan.taps = {im2col::FilterTile{0, 0}};
    plan.tapDepth = params.gemmK();
    plan.feed = feed;
    return plan;
}

/** A copy of @p src's [n0, n0 + n) x [c0, c0 + c) x H x W block, in
 *  NCHW: one group's input channels or filter rows. */
Tensor
block(const Tensor &src, Index n0, Index n, Index c0, Index c)
{
    Tensor out(n, c, src.h(), src.w());
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < c; ++j)
            for (Index h = 0; h < src.h(); ++h)
                for (Index w = 0; w < src.w(); ++w)
                    out.at(i, j, h, w) = src.at(n0 + i, c0 + j, h, w);
    return out;
}

// ---------------------------------------------------------------------------
// Channel-first implicit im2col (the paper's algorithm, Sec. III).
// ---------------------------------------------------------------------------

class ChannelFirstAlgorithm final : public Algorithm
{
  public:
    AlgorithmId id() const override { return AlgorithmId::ChannelFirst; }
    const char *name() const override { return "channel-first"; }

    TapPointers
    pointers(const ConvParams &params, const Tensor &input,
             const PassPlan &) const override
    {
        return im2col::pixelGather(params, input);
    }

  private:
    PassPlan
    buildPlan(const ConvParams &params) const override
    {
        return im2col::channelFirstPlan(params,
                                        im2col::decomposeFilter(params));
    }
};

// ---------------------------------------------------------------------------
// Channel-last implicit im2col (the conventional column order).
// ---------------------------------------------------------------------------

class ChannelLastAlgorithm final : public Algorithm
{
  public:
    AlgorithmId id() const override { return AlgorithmId::ChannelLast; }
    const char *name() const override { return "channel-last"; }

    TapPointers
    pointers(const ConvParams &params, const Tensor &input,
             const PassPlan &) const override
    {
        // im2col's row lowering of each work unit's rows, every row
        // pointing at its own lowered row.
        return [&params, &input](const std::vector<FilterTile> &taps,
                                 Index m0, Index m1, const float **rows,
                                 Index ld, std::vector<float> &panel) {
            const Index k = params.gemmK();
            panel.resize(static_cast<size_t>((m1 - m0) * k));
            tensor::im2colLowerRows(params, input, ColumnOrder::ChannelLast,
                                    m0, m1, panel.data());
            for (size_t t = 0; t < taps.size(); ++t)
                for (Index m = m0; m < m1; ++m)
                    rows[static_cast<Index>(t) * ld + m - m0] =
                        panel.data() + (m - m0) * k;
        };
    }

  private:
    PassPlan
    buildPlan(const ConvParams &params) const override
    {
        return wholeGemmPlan(params, FeedLocality::UnionGather);
    }
};

// ---------------------------------------------------------------------------
// Explicit im2col: materialized lowered matrix + GEMM (Sec. II-B).
// ---------------------------------------------------------------------------

class ExplicitIm2colAlgorithm final : public Algorithm
{
  public:
    AlgorithmId
    id() const override
    {
        return AlgorithmId::ExplicitIm2col;
    }

    const char *name() const override { return "explicit-im2col"; }

    TapPointers
    pointers(const ConvParams &params, const Tensor &input,
             const PassPlan &) const override
    {
        // Channel-last's lowering hoisted out of the work units: the
        // whole M x K workspace is written before the GEMM reads it
        // back, each row pointing at its own row.
        const auto lowered = std::make_shared<const tensor::Matrix>(
            tensor::im2colLower(params, input, ColumnOrder::ChannelLast));
        return [lowered](const std::vector<FilterTile> &taps, Index m0,
                         Index m1, const float **rows, Index ld,
                         std::vector<float> &) {
            for (size_t t = 0; t < taps.size(); ++t)
                for (Index m = m0; m < m1; ++m)
                    rows[static_cast<Index>(t) * ld + m - m0] =
                        lowered->data() + m * lowered->cols();
        };
    }

  private:
    PassPlan
    buildPlan(const ConvParams &params) const override
    {
        PassPlan plan = wholeGemmPlan(params, FeedLocality::Workspace);
        plan.transformBytes = params.inputBytes() + params.loweredBytes();
        return plan;
    }
};

// ---------------------------------------------------------------------------
// IndirectConv (Dukhan, arXiv:1907.02129): a pointer table of
// M x H_F x W_F entries gathers C_I-deep input rows straight out of the
// IFMap, so nothing is duplicated and striding/dilation only change
// which pointers are materialized. The cost of the scheme is the
// indirection buffer itself: M * H_F * W_F pointers streamed alongside
// the GEMM.
// ---------------------------------------------------------------------------

class IndirectAlgorithm final : public Algorithm
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Indirect; }
    const char *name() const override { return "indirect"; }

    TapPointers
    pointers(const ConvParams &params, const Tensor &input,
             const PassPlan &plan) const override
    {
        // Materialize the indirection buffer: for every (filter tap,
        // output position), the address of the C_I-deep pixel it reads
        // in the HWC copy, or of the shared zero pixel in the halo. Tap
        // (r, s)'s M entries start at first[r * W_F + s].
        const Index m_total = params.gemmM();
        const Index kernel_w = params.kernelW;
        const TapPointers pixels = im2col::pixelGather(params, input);
        const auto table = std::make_shared<std::vector<const float *>>(
            plan.taps.size() * static_cast<size_t>(m_total));
        std::vector<float> unused;
        pixels(plan.taps, 0, m_total, table->data(), m_total, unused);
        std::vector<Index> first(
            static_cast<size_t>(params.kernelH * kernel_w));
        for (size_t t = 0; t < plan.taps.size(); ++t)
            first[static_cast<size_t>(plan.taps[t].r * kernel_w +
                                      plan.taps[t].s)] =
                static_cast<Index>(t) * m_total;

        // Pointer GEMM: each work unit reads its rows' slice of the
        // requested taps' entries. The copy of `pixels` keeps the HWC
        // copy it points into alive.
        return [pixels, table, first, kernel_w](
                   const std::vector<FilterTile> &taps, Index m0, Index m1,
                   const float **rows, Index ld, std::vector<float> &) {
            for (size_t t = 0; t < taps.size(); ++t) {
                const auto from =
                    table->begin() +
                    first[static_cast<size_t>(taps[t].r * kernel_w +
                                              taps[t].s)] +
                    m0;
                std::copy(from, from + (m1 - m0),
                          rows + static_cast<Index>(t) * ld);
            }
        };
    }

  private:
    PassPlan
    buildPlan(const ConvParams &params) const override
    {
        // The indirection buffer already de-duplicates input rows, so
        // taps never merge: each runs its own C_I-deep passes.
        PassPlan plan = tapPlan(params, FeedLocality::PointerGather);
        plan.metadataBytesPerRowTap = kPointerBytes;
        return plan;
    }
};

// ---------------------------------------------------------------------------
// SMM-Conv (Ofir & Ben-Artzi, arXiv:2411.15659): one scalar-matrix
// multiply per filter tap over contiguous input rows with zero packing
// at the borders — no im2col at all, but only defined for unit stride
// and dilation (the contiguity the scheme exploits).
// ---------------------------------------------------------------------------

class SmmAlgorithm final : public Algorithm
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Smm; }
    const char *name() const override { return "smm"; }

    Status
    supports(const ConvParams &params, Index groups) const override
    {
        CFCONV_RETURN_IF_ERROR(Algorithm::supports(params, groups));
        if (params.strideH != 1 || params.strideW != 1)
            return invalidArgumentError(
                "algorithm \"smm\" requires unit stride (got %lldx%lld)",
                static_cast<long long>(params.strideH),
                static_cast<long long>(params.strideW));
        if (params.dilationH != 1 || params.dilationW != 1)
            return invalidArgumentError(
                "algorithm \"smm\" requires unit dilation (got "
                "%lldx%lld)",
                static_cast<long long>(params.dilationH),
                static_cast<long long>(params.dilationW));
        return okStatus();
    }

    TapPointers
    pointers(const ConvParams &params, const Tensor &input,
             const PassPlan &) const override
    {
        // One scalar-matrix pass per tap <r, s>: the IFMap shifted by
        // (r - pad, s - pad), with the border rows packed as zeros --
        // at unit stride, exactly the pixel gather.
        return im2col::pixelGather(params, input);
    }

  private:
    PassPlan
    buildPlan(const ConvParams &params) const override
    {
        // Unit stride makes each tap's shifted block one long
        // sequential run: no gather at all.
        return tapPlan(params, FeedLocality::Contiguous);
    }
};

} // namespace

Status
Algorithm::supports(const ConvParams &params, Index groups) const
{
    return tensor::checkLayer(params, groups);
}

Traffic
Algorithm::traffic(const ConvParams &params) const
{
    // buildPlan(), not plan(): the model answers outside supports().
    const PassPlan plan = buildPlan(params);
    Traffic t;
    t.filterBytes = params.filterBytes();
    t.outputBytes = params.outputBytes();
    t.metadataBytes = plan.metadataBytes(params.gemmM());
    if (plan.feed == FeedLocality::Workspace) {
        // The transform reads the whole IFMap and writes the lowered
        // matrix, which the GEMM reads back.
        t.inputBytes = params.inputBytes();
        t.workspaceBytes = 2 * params.loweredBytes();
    } else {
        t.inputBytes = im2col::inputUnionBytes(params);
    }
    return t;
}

StatusOr<PassPlan>
Algorithm::plan(const ConvParams &params) const
{
    CFCONV_RETURN_IF_ERROR(supports(params, /*groups=*/1));
    return buildPlan(params);
}

std::vector<tensor::ColCoord>
Algorithm::columns(const ConvParams &params, const PassPlan &plan) const
{
    if (plan.tapDepth == params.inChannels)
        return im2col::tapColumns(params, plan.taps);
    CFCONV_ASSERT(plan.taps.size() == 1 && plan.tapDepth == params.gemmK(),
                  "(plan is neither per-tap nor one column block)");
    std::vector<tensor::ColCoord> cols;
    for (Index k = 0; k < params.gemmK(); ++k)
        cols.push_back(tensor::colCoord(params, ColumnOrder::ChannelLast, k));
    return cols;
}

Tensor
Algorithm::execute(const ConvParams &params, const Tensor &input,
                   const Tensor &filter, Index groups) const
{
    const Status supported = supports(params, groups);
    CFCONV_FATAL_IF(!supported.ok(), "%s", supported.message().c_str());
    tensor::checkInput(params, input);
    tensor::checkFilter(params, filter, groups);
    // The slice of a layer supports() accepts is one too, so its plan
    // needs no second check.
    const ConvParams slice = tensor::groupSlice(params, groups);
    const PassPlan plan = buildPlan(slice);
    const std::vector<tensor::ColCoord> cols = columns(slice, plan);
    const auto run = [&](const Tensor &in, const Tensor &f) {
        return im2col::gatherGemm(slice, in, plan,
                                  im2col::packFilter(slice, f, cols),
                                  pointers(slice, in, plan));
    };
    if (groups == 1)
        return run(input, filter);

    Tensor out(params.batch, params.outChannels, params.outH(),
               params.outW());
    const Index cig = slice.inChannels, cog = slice.outChannels;
    for (Index g = 0; g < groups; ++g) {
        const Tensor part =
            run(block(input, 0, params.batch, g * cig, cig),
                block(filter, g * cog, cog, 0, cig));
        for (Index n = 0; n < params.batch; ++n)
            std::copy_n(part.data() + part.offsetOf(n, 0, 0, 0),
                        cog * part.h() * part.w(),
                        out.data() + out.offsetOf(n, g * cog, 0, 0));
    }
    return out;
}

const std::vector<const Algorithm *> &
allAlgorithms()
{
    static const ChannelFirstAlgorithm channel_first;
    static const ChannelLastAlgorithm channel_last;
    static const ExplicitIm2colAlgorithm explicit_im2col;
    static const IndirectAlgorithm indirect;
    static const SmmAlgorithm smm;
    static const std::vector<const Algorithm *> all = {
        &channel_first, &channel_last, &explicit_im2col, &indirect, &smm,
    };
    return all;
}

const Algorithm *
findAlgorithm(AlgorithmId id)
{
    const auto &all = allAlgorithms();
    const auto index = static_cast<size_t>(id);
    CFCONV_ASSERT(index < all.size(), "(unregistered AlgorithmId)");
    return all[index];
}

const Algorithm *
findAlgorithm(const std::string &name)
{
    for (const Algorithm *algo : allAlgorithms())
        if (name == algo->name())
            return algo;
    return nullptr;
}

const char *
algorithmName(AlgorithmId id)
{
    return findAlgorithm(id)->name();
}

StatusOr<AlgorithmId>
parseAlgorithmName(const std::string &name)
{
    if (const Algorithm *algo = findAlgorithm(name))
        return algo->id();
    std::string known;
    for (const Algorithm *algo : allAlgorithms()) {
        if (!known.empty())
            known += ", ";
        known += algo->name();
    }
    return invalidArgumentError("unknown algorithm \"%s\" (known: %s)",
                                name.c_str(), known.c_str());
}

} // namespace cfconv::conv
