#include "im2col/implicit_conv.h"

#include <algorithm>
#include <memory>

#include "common/parallel.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"

namespace cfconv::im2col {

namespace {

constexpr Index MR = tensor::kMicroRows;
constexpr Index NR = tensor::kMicroCols;

/** GEMM rows per work unit: four register tiles, so gemmM 49 already
 *  splits in two. */
constexpr Index kUnitRows = 4 * MR;

/** What pixelGather() points into: the input in HWC order plus one
 *  zero pixel for the padding halo. */
struct HwcInput
{
    explicit HwcInput(const tensor::Tensor &input)
        : pixels(input.toLayout(tensor::Layout::NHWC)),
          zeros(static_cast<size_t>(input.c()), 0.0f)
    {
    }

    tensor::Tensor pixels;
    std::vector<float> zeros;
};

} // namespace

tensor::Tensor
gatherGemm(const ConvParams &params, const tensor::Tensor &input,
           const PassPlan &plan, const std::vector<float> &strips,
           const TapPointers &point)
{
    tensor::checkInput(params, input);
    const Index m_total = params.gemmM();
    const Index n = params.gemmN();
    const Index taps = static_cast<Index>(plan.taps.size());
    const Index k = taps * plan.tapDepth;
    CFCONV_ASSERT(static_cast<Index>(strips.size()) ==
                      divCeil(n, NR) * NR * k,
                  "(strips are not the plan's packed filter)");
    const Index plane = params.outH() * params.outW();
    tensor::Tensor out(params.batch, n, params.outH(), params.outW());
    if (taps == 0)
        return out; // every output is an empty sum, +0
    float *ofmap = out.data();

    // Element (m, co) of the GEMM output lives at ofmap + offset(m, co).
    const auto offset = [&](Index m, Index co) {
        return (m / plane * n + co) * plane + m % plane;
    };
    parallel::parallelFor(
        0, divCeil(m_total, kUnitRows), 1, [&](Index u0, Index u1) {
            std::vector<const float *> rows(
                static_cast<size_t>(taps * kUnitRows));
            std::vector<float> panel;
            float tile[MR * NR];
            for (Index u = u0; u < u1; ++u) {
                const Index m0 = u * kUnitRows;
                const Index m1 = std::min(m0 + kUnitRows, m_total);
                point(plan.taps, m0, m1, rows.data(), kUnitRows, panel);
                // Rows past gemmM in the last tile re-read the last row;
                // their sums are never stored.
                for (Index t = 0; t < taps; ++t) {
                    const float **tap_rows = rows.data() + t * kUnitRows;
                    for (Index i = m1 - m0; i % MR != 0; ++i)
                        tap_rows[i] = tap_rows[m1 - m0 - 1];
                }
                // A tile of eight pixels of one image stores column co
                // as a contiguous run of its channel's plane, at
                // ofmap + direct[tile] + co * plane; the others (-1) go
                // through the scratch tile.
                Index direct[kUnitRows / MR];
                for (Index i = m0; i < m1; i += MR)
                    direct[(i - m0) / MR] =
                        m1 - i >= MR && i % plane + MR <= plane
                            ? offset(i, 0)
                            : -1;
                for (Index j = 0; j < n; j += NR) {
                    const float *b = strips.data() + j * k;
                    const Index nr = std::min(NR, n - j);
                    for (Index i = m0; i < m1; i += MR) {
                        const float *const *a = rows.data() + (i - m0);
                        const Index at = direct[(i - m0) / MR];
                        if (at >= 0 && nr == NR) {
                            tensor::indirectTile(taps, plan.tapDepth, a,
                                                 kUnitRows, b,
                                                 ofmap + at + j * plane,
                                                 plane, false);
                            continue;
                        }
                        tensor::indirectTile(taps, plan.tapDepth, a,
                                             kUnitRows, b, tile, MR, false);
                        const Index mr = std::min(MR, m1 - i);
                        for (Index jj = 0; jj < nr; ++jj)
                            for (Index ii = 0; ii < mr; ++ii)
                                ofmap[offset(i + ii, j + jj)] =
                                    tile[jj * MR + ii];
                    }
                }
            }
        });
    return out;
}

std::vector<float>
packFilter(const ConvParams &params, const tensor::Tensor &filter,
           const std::vector<tensor::ColCoord> &cols)
{
    tensor::checkFilter(params, filter);
    std::vector<Index> rows;
    rows.reserve(cols.size());
    for (const tensor::ColCoord &col : cols)
        rows.push_back(filter.offsetOf(0, col.ci, col.r, col.s));
    return tensor::packColumnStrips(filter.data(), rows, params.outChannels,
                                    filter.offsetOf(1, 0, 0, 0));
}

std::vector<tensor::ColCoord>
tapColumns(const ConvParams &params, const std::vector<FilterTile> &taps)
{
    std::vector<tensor::ColCoord> cols;
    for (const FilterTile &tap : taps)
        for (Index ci = 0; ci < params.inChannels; ++ci)
            cols.push_back({tap.r, tap.s, ci});
    return cols;
}

std::vector<float>
tapStrips(const ConvParams &params, const tensor::Tensor &filter,
          const std::vector<FilterTile> &taps)
{
    return packFilter(params, filter, tapColumns(params, taps));
}

TapPointers
pixelGather(const ConvParams &params, const tensor::Tensor &input)
{
    const auto hwc = std::make_shared<const HwcInput>(input);
    return [&params, hwc](const std::vector<FilterTile> &taps, Index m0,
                          Index m1, const float **rows, Index ld,
                          std::vector<float> &) {
        // Pixel (n, ih, iw) of the NHWC copy starts at
        // ((n * H_I + ih) * W_I + iw) * C_I.
        const Index c_i = params.inChannels;
        tensor::RowCoord rc = tensor::rowCoord(params, m0);
        for (Index m = m0; m < m1; ++m, tensor::nextRow(params, rc)) {
            const float *image =
                hwc->pixels.data() + rc.n * params.inH * params.inW * c_i;
            for (size_t t = 0; t < taps.size(); ++t) {
                const Index ih = params.inputRow(rc.oh, taps[t].r);
                const Index iw = params.inputCol(rc.ow, taps[t].s);
                rows[static_cast<Index>(t) * ld + (m - m0)] =
                    params.inInput(ih, iw)
                        ? image + (ih * params.inW + iw) * c_i
                        : hwc->zeros.data();
            }
        }
    };
}

void
gatherPass(const TapPointers &point, const PassPlan &plan,
           const PlanPass &pass, Index m0, Index m1, float *panel)
{
    const auto first = plan.taps.begin() + pass.firstTap;
    const std::vector<FilterTile> taps(first, first + pass.taps);
    const Index n_rows = m1 - m0;
    std::vector<const float *> rows(static_cast<size_t>(pass.taps * n_rows));
    std::vector<float> scratch;
    point(taps, m0, m1, rows.data(), n_rows, scratch);
    for (Index t = 0; t < pass.taps; ++t)
        for (Index i = 0; i < n_rows; ++i)
            std::copy_n(rows[static_cast<size_t>(t * n_rows + i)] +
                            pass.offset,
                        pass.slice,
                        panel + i * pass.depth() + t * pass.slice);
}

tensor::Matrix
passWeights(const ConvParams &params, const tensor::Tensor &filter,
            const std::vector<tensor::ColCoord> &cols, const PassPlan &plan,
            const PlanPass &pass)
{
    tensor::checkFilter(params, filter);
    const Index first = pass.firstTap * plan.tapDepth + pass.offset;
    tensor::Matrix b(pass.depth(), params.outChannels);
    for (Index k = 0; k < pass.depth(); ++k) {
        const tensor::ColCoord &col = cols[static_cast<size_t>(first + k)];
        for (Index co = 0; co < params.outChannels; ++co)
            b.at(k, co) = filter.at(co, col.ci, col.r, col.s);
    }
    return b;
}

} // namespace cfconv::im2col
