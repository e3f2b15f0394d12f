#include "im2col/filter_decomp.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace cfconv::im2col {

bool
TileFootprint::contains(Index ih, Index iw) const
{
    if (ih < ihBegin || ih >= ihEnd || iw < iwBegin || iw >= iwEnd)
        return false;
    return (ih - ihBegin) % ihStep == 0 && (iw - iwBegin) % iwStep == 0;
}

std::vector<FilterTile>
decomposeFilter(const ConvParams &params)
{
    params.validate();
    std::vector<FilterTile> tiles;
    tiles.reserve(static_cast<size_t>(params.kernelH * params.kernelW));
    for (Index r = 0; r < params.kernelH; ++r)
        for (Index s = 0; s < params.kernelW; ++s)
            tiles.push_back({r, s});
    return tiles;
}

TileFootprint
tileFootprint(const ConvParams &params, const FilterTile &tile)
{
    CFCONV_FATAL_IF(tile.r < 0 || tile.r >= params.kernelH ||
                    tile.s < 0 || tile.s >= params.kernelW,
                    "tileFootprint: tile <%lld,%lld> outside filter",
                    static_cast<long long>(tile.r),
                    static_cast<long long>(tile.s));

    // The address function is affine in the output coordinate with
    // slope stride: clip the outputs to those whose input coordinate
    // falls inside [0, in_dim), then map the clipped range back.
    auto clip = [](Index off, Index stride, Index out_dim,
                   Index in_dim) -> std::pair<Index, Index> {
        // smallest o with o*stride + off >= 0
        const Index o_lo = off >= 0 ? 0 : divCeil(-off, stride);
        // largest o with o*stride + off < in_dim
        const Index o_hi =
            (in_dim - 1 - off) >= 0
                ? std::min(out_dim - 1, (in_dim - 1 - off) / stride)
                : -1;
        return {o_lo, o_hi};
    };

    TileFootprint fp{0, 0, params.strideH, 0, 0, params.strideW};
    const auto [oh_lo, oh_hi] = clip(params.inputRow(0, tile.r),
                                     params.strideH, params.outH(),
                                     params.inH);
    if (oh_lo <= oh_hi) {
        fp.ihBegin = params.inputRow(oh_lo, tile.r);
        fp.ihEnd = params.inputRow(oh_hi, tile.r) + 1;
    }
    const auto [ow_lo, ow_hi] = clip(params.inputCol(0, tile.s),
                                     params.strideW, params.outW(),
                                     params.inW);
    if (ow_lo <= ow_hi) {
        fp.iwBegin = params.inputCol(ow_lo, tile.s);
        fp.iwEnd = params.inputCol(ow_hi, tile.s) + 1;
    }
    return fp;
}

Index
tileFillElems(const ConvParams &params, const FilterTile &tile)
{
    const TileFootprint fp = tileFootprint(params, tile);
    return fp.positions() * params.inChannels * params.batch;
}

double
tileOverlap(const ConvParams &params, const FilterTile &a,
            const FilterTile &b)
{
    const TileFootprint fa = tileFootprint(params, a);
    const TileFootprint fb = tileFootprint(params, b);
    const Index pa = fa.positions();
    const Index pb = fb.positions();
    if (pa == 0 || pb == 0)
        return 0.0;

    // Footprints are arithmetic lattices with the same steps; intersect
    // the begin offsets. They only intersect when the begins are congruent
    // modulo the step.
    auto axis_overlap = [](Index a_begin, Index a_end, Index b_begin,
                           Index b_end, Index step) -> Index {
        if ((a_begin - b_begin) % step != 0)
            return 0;
        const Index lo = std::max(a_begin, b_begin);
        const Index hi = std::min(a_end, b_end);
        return hi > lo ? (hi - lo - 1) / step + 1 : 0;
    };

    const Index rows = axis_overlap(fa.ihBegin, fa.ihEnd, fb.ihBegin,
                                    fb.ihEnd, fa.ihStep);
    const Index cols = axis_overlap(fa.iwBegin, fa.iwEnd, fb.iwBegin,
                                    fb.iwEnd, fa.iwStep);
    const Index common = rows * cols;
    return static_cast<double>(common) /
           static_cast<double>(std::min(pa, pb));
}

namespace {

/**
 * The input coordinates in [0, @p in) that output coordinates
 * [0, @p out) read through taps [0, @p kernel) along one axis, counted
 * per residue of the stride. Tap r reads lattice points
 * j * stride + rho_r for j in [q_r, q_r + out), where r * dilation - pad
 * = q_r * stride + rho_r, clipped to [0, (in - 1 - rho_r) / stride].
 * Taps period = stride / gcd(stride, dilation) apart share a residue,
 * and within one q_r rises with r, so a running end merges them.
 */
Index
axisUnion(Index in, Index out, Index kernel, Index stride, Index pad,
          Index dilation)
{
    const Index period = stride / std::gcd(stride, dilation);
    Index count = 0;
    for (Index r0 = 0; r0 < std::min(period, kernel); ++r0) {
        const Index rho = ((r0 * dilation - pad) % stride + stride) % stride;
        if (rho >= in)
            continue;
        const Index j_max = (in - 1 - rho) / stride;
        Index end = 0; // one past the last lattice index counted
        for (Index r = r0; r < kernel; r += period) {
            const Index q = (r * dilation - pad - rho) / stride;
            const Index lo = std::max(q, end);
            const Index hi = std::min(q + out - 1, j_max);
            if (hi >= lo) {
                count += hi - lo + 1;
                end = hi + 1;
            }
        }
    }
    return count;
}

} // namespace

Index
inputUnionPositions(const ConvParams &params)
{
    return axisUnion(params.inH, params.outH(), params.kernelH,
                     params.strideH, params.padH, params.dilationH) *
           axisUnion(params.inW, params.outW(), params.kernelW,
                     params.strideW, params.padW, params.dilationW);
}

Bytes
inputUnionBytes(const ConvParams &params)
{
    return static_cast<Bytes>(inputUnionPositions(params)) *
           static_cast<Bytes>(params.inChannels * params.batch) *
           dataTypeSize(params.dataType);
}

} // namespace cfconv::im2col
