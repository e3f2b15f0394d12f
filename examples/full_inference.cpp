/**
 * @file
 * End-to-end functional inference through a small CNN built entirely
 * from this library's layers: convolution (implicit channel-first),
 * batch norm, ReLU, max pooling, a grouped (depthwise) stage, and a
 * residual add. Every convolution is cross-checked against the direct
 * reference as it runs, and the TPU-v2 cost of the conv stack is
 * estimated at the end through the unified sim::Accelerator layer.
 */

#include <cstdio>

#include "conv/algorithm.h"
#include "im2col/pass_plan.h"
#include "sim/accelerator.h"
#include "tensor/conv_ref.h"
#include "tensor/nn_ops.h"

using namespace cfconv;
using tensor::Tensor;

namespace {

/** Implicit conv, run @p groups-way grouped, + parity check against
 *  the direct reference. */
Tensor
checkedConv(const tensor::ConvParams &p, const Tensor &input,
            const Tensor &filter, double &worst_diff, Index groups = 1)
{
    const Tensor out =
        conv::findAlgorithm(conv::AlgorithmId::ChannelFirst)
            ->execute(p, input, filter, groups);
    const double diff = static_cast<double>(
        out.maxAbsDiff(tensor::convDirect(p, input, filter, groups)));
    worst_diff = std::max(worst_diff, diff);
    return out;
}

tensor::BatchNormParams
identityBn(Index channels)
{
    tensor::BatchNormParams bn;
    bn.mean.assign(static_cast<size_t>(channels), 0.1f);
    bn.variance.assign(static_cast<size_t>(channels), 1.5f);
    bn.gamma.assign(static_cast<size_t>(channels), 1.2f);
    bn.beta.assign(static_cast<size_t>(channels), 0.05f);
    return bn;
}

} // namespace

int
main()
{
    const Index batch = 2;
    double worst = 0.0;
    std::vector<tensor::ConvParams> conv_stack;

    // Stage 1: stem conv 3 -> 16, 32x32.
    auto p1 = tensor::makeConv(batch, 3, 32, 16, 3, 1, 1);
    conv_stack.push_back(p1);
    Tensor x = tensor::makeInput(p1);
    x.fillRandom(1);
    Tensor w1 = tensor::makeFilter(p1);
    w1.fillRandom(2);
    x = tensor::relu(
        tensor::batchNorm(checkedConv(p1, x, w1, worst),
                          identityBn(16)));
    std::printf("stem:      %lldx%lldx%lld\n", (long long)x.c(),
                (long long)x.h(), (long long)x.w());

    // Stage 2: pool to 16x16, conv 16 -> 32.
    x = tensor::maxPool2d(x, {});
    auto p2 = tensor::makeConv(batch, 16, 16, 32, 3, 1, 1);
    conv_stack.push_back(p2);
    Tensor w2 = tensor::makeFilter(p2);
    w2.fillRandom(3);
    x = tensor::relu(checkedConv(p2, x, w2, worst));
    std::printf("stage 2:   %lldx%lldx%lld\n", (long long)x.c(),
                (long long)x.h(), (long long)x.w());

    // Stage 3: depthwise 3x3 + pointwise 32 -> 64 (separable block)
    // with a residual around the depthwise.
    const auto dw = tensor::makeConv(batch, 32, 16, 32, 3, 1, 1);
    const Index dw_groups = 32;
    Tensor wd = tensor::makeFilter(dw, dw_groups);
    wd.fillRandom(4);
    const Tensor residual = x;
    x = tensor::relu(tensor::add(
        checkedConv(dw, x, wd, worst, dw_groups), residual));
    auto p3 = tensor::makeConv(batch, 32, 16, 64, 1);
    conv_stack.push_back(p3);
    Tensor w3 = tensor::makeFilter(p3);
    w3.fillRandom(5);
    x = tensor::relu(checkedConv(p3, x, w3, worst));
    std::printf("separable: %lldx%lldx%lld (depthwise occupancy on a "
                "128-row array: %.1f%%)\n",
                (long long)x.c(), (long long)x.h(), (long long)x.w(),
                100.0 * im2col::groupedRowOccupancy(dw, dw_groups, 128));

    // Stage 4: strided conv 64 -> 64 s2, global average pool, logits.
    auto p4 = tensor::makeConv(batch, 64, 16, 64, 3, 2, 1);
    conv_stack.push_back(p4);
    Tensor w4 = tensor::makeFilter(p4);
    w4.fillRandom(6);
    x = tensor::relu(checkedConv(p4, x, w4, worst));
    tensor::PoolParams gap;
    gap.kernelH = gap.kernelW = x.h();
    gap.strideH = gap.strideW = x.h();
    x = tensor::avgPool2d(x, gap);
    std::printf("head:      %lldx%lldx%lld\n", (long long)x.c(),
                (long long)x.h(), (long long)x.w());

    float checksum = 0.0f;
    for (Index i = 0; i < x.size(); ++i)
        checksum += x.data()[i];
    std::printf("\nlogit checksum: %.4f | worst conv |diff| vs direct: "
                "%.2e\n", static_cast<double>(checksum), worst);

    // TPU cost of the conv stack, through the accelerator layer.
    const auto tpu = sim::makeAccelerator("tpu-v2");
    double total = 0.0;
    for (const auto &p : conv_stack)
        total += tpu->runLayer(p).seconds;
    std::printf("TPU-v2 estimate for the conv stack: %.1f us\n",
                total * 1e6);
    return worst < 5e-3 ? 0 : 1;
}
