#include "tensor/im2col_explicit.h"

#include "common/parallel.h"
#include "tensor/conv_ref.h"

namespace cfconv::tensor {

RowCoord
rowCoord(const ConvParams &params, Index m)
{
    const Index wo = params.outW();
    const Index ho = params.outH();
    CFCONV_ASSERT(m >= 0 && m < params.gemmM(), "(row out of range)");
    RowCoord rc;
    rc.ow = m % wo;
    rc.oh = (m / wo) % ho;
    rc.n = m / (wo * ho);
    return rc;
}

ColCoord
colCoord(const ConvParams &params, ColumnOrder order, Index k)
{
    CFCONV_ASSERT(k >= 0 && k < params.gemmK(), "(col out of range)");
    ColCoord cc;
    if (order == ColumnOrder::ChannelLast) {
        cc.s = k % params.kernelW;
        cc.r = (k / params.kernelW) % params.kernelH;
        cc.ci = k / (params.kernelW * params.kernelH);
    } else {
        cc.ci = k % params.inChannels;
        const Index pos = k / params.inChannels;
        cc.s = pos % params.kernelW;
        cc.r = pos / params.kernelW;
    }
    return cc;
}

Index
colIndex(const ConvParams &params, ColumnOrder order, Index r, Index s,
         Index ci)
{
    if (order == ColumnOrder::ChannelLast)
        return (ci * params.kernelH + r) * params.kernelW + s;
    return (r * params.kernelW + s) * params.inChannels + ci;
}

void
im2colLowerRows(const ConvParams &params, const Tensor &input,
                ColumnOrder order, Index m0, Index m1, float *dst)
{
    // Column coordinates depend only on k: compute them once per call,
    // not per element (this relayout is a visible share of conv time).
    const Index k_total = params.gemmK();
    std::vector<ColCoord> cols(static_cast<size_t>(k_total));
    for (Index k = 0; k < k_total; ++k)
        cols[static_cast<size_t>(k)] = colCoord(params, order, k);
    for (Index m = m0; m < m1; ++m) {
        const RowCoord rc = rowCoord(params, m);
        float *row = dst + (m - m0) * k_total;
        for (Index k = 0; k < k_total; ++k) {
            const ColCoord &cc = cols[static_cast<size_t>(k)];
            row[k] = input.atPadded(rc.n, cc.ci,
                                    params.inputRow(rc.oh, cc.r),
                                    params.inputCol(rc.ow, cc.s));
        }
    }
}

Matrix
im2colLower(const ConvParams &params, const Tensor &input,
            ColumnOrder order)
{
    params.validate();
    Matrix lowered(params.gemmM(), params.gemmK());
    // Each worker fills a disjoint block of output positions (rows).
    parallel::parallelFor(
        0, lowered.rows(), 64, [&](Index m0, Index m1) {
            im2colLowerRows(params, input, order, m0, m1,
                            lowered.data() + m0 * lowered.cols());
        });
    return lowered;
}

void
checkOperandDims(const ConvParams &params, const char *operand,
                 std::initializer_list<OperandDim> dims)
{
    for (const OperandDim &d : dims)
        CFCONV_FATAL_IF(d.got != d.want,
                        "conv: %s %s is %lld but the layer has %lld (%s)",
                        operand, d.name, static_cast<long long>(d.got),
                        static_cast<long long>(d.want),
                        params.toString().c_str());
}

void
checkInput(const ConvParams &params, const Tensor &input)
{
    params.validate();
    checkOperandDims(params, "input",
                     {{"N", input.n(), params.batch},
                      {"C_I", input.c(), params.inChannels},
                      {"H_I", input.h(), params.inH},
                      {"W_I", input.w(), params.inW}});
}

void
checkFilter(const ConvParams &params, const Tensor &filter, Index groups)
{
    checkOperandDims(params, "filter",
                     {{"C_O", filter.n(), params.outChannels},
                      {groups == 1 ? "C_I" : "C_I/G", filter.c(),
                       groupSlice(params, groups).inChannels},
                      {"H_F", filter.h(), params.kernelH},
                      {"W_F", filter.w(), params.kernelW}});
}

Tensor
col2im(const ConvParams &params, const Matrix &lowered, ColumnOrder order)
{
    CFCONV_FATAL_IF(lowered.rows() != params.gemmM() ||
                    lowered.cols() != params.gemmK(),
                    "col2im: lowered matrix shape mismatch");
    Tensor folded = makeInput(params);
    for (Index m = 0; m < lowered.rows(); ++m) {
        const RowCoord rc = rowCoord(params, m);
        for (Index k = 0; k < lowered.cols(); ++k) {
            const ColCoord cc = colCoord(params, order, k);
            const Index ih = params.inputRow(rc.oh, cc.r);
            const Index iw = params.inputCol(rc.ow, cc.s);
            if (!params.inInput(ih, iw))
                continue; // padding region: values fall off the tensor
            folded.at(rc.n, cc.ci, ih, iw) += lowered.at(m, k);
        }
    }
    return folded;
}

} // namespace cfconv::tensor
