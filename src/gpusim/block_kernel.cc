#include "gpusim/block_kernel.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "im2col/implicit_conv.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"

namespace cfconv::gpusim {

Tensor
convBlock(const conv::Algorithm &algorithm, const im2col::PassPlan &plan,
          const ConvParams &params, const Tensor &input,
          const Tensor &filter, const BlockKernelConfig &config,
          BlockKernelStats *stats)
{
    tensor::checkInput(params, input);
    CFCONV_FATAL_IF(config.tileM < 1 || config.tileN < 1 ||
                    config.chunkK < 1,
                    "block kernel: non-positive tile configuration");

    const Index m_total = params.gemmM();
    const Index n_total = params.gemmN();
    const std::vector<im2col::PlanPass> passes = plan.passes(config.chunkK);
    const im2col::TapPointers point =
        algorithm.pointers(params, input, plan);
    // Each pass's B rows, read in the algorithm's column order.
    const std::vector<tensor::ColCoord> cols =
        algorithm.columns(params, plan);
    std::vector<tensor::Matrix> weights;
    for (const im2col::PlanPass &pass : passes)
        weights.push_back(
            im2col::passWeights(params, filter, cols, plan, pass));

    BlockKernelStats local;
    Tensor out(params.batch, params.outChannels, params.outH(),
               params.outW());
    // The no-atomics proof: count writes per OFMap element; every
    // element must be written exactly once across all thread blocks.
    std::vector<Index> write_count(
        static_cast<size_t>(m_total * n_total), 0);

    for (Index m0 = 0; m0 < m_total; m0 += config.tileM) {
        const Index m1 = std::min(m0 + config.tileM, m_total);
        for (Index n0 = 0; n0 < n_total; n0 += config.tileN) {
            const Index n1 = std::min(n0 + config.tileN, n_total);
            ++local.threadBlocks;

            // Per-TB accumulator (the register tile).
            tensor::Matrix acc(m1 - m0, n1 - n0);
            acc.fill(0.0f);

            for (size_t p = 0; p < passes.size(); ++p) {
                const Index depth = passes[p].depth();
                // Stage the A and B chunks "into shared memory".
                const Bytes staged =
                    static_cast<Bytes>((m1 - m0) * depth +
                                       depth * (n1 - n0)) *
                    config.elemBytes;
                CFCONV_FATAL_IF(staged > config.sharedMemBytes,
                                "block kernel: staging %llu B exceeds "
                                "shared memory %llu B",
                                (unsigned long long)staged,
                                (unsigned long long)config.sharedMemBytes);
                ++local.stagingSteps;
                local.peakStagingBytes =
                    std::max(local.peakStagingBytes, staged);

                std::vector<float> a_smem(
                    static_cast<size_t>((m1 - m0) * depth));
                im2col::gatherPass(point, plan, passes[p], m0, m1,
                                   a_smem.data());

                // The tensor-core MMA over the staged chunks,
                // dispatched to the micro-kernel GEMM (the staged
                // buffers are exactly its operand shape).
                tensor::microkernelGemm(m1 - m0, n1 - n0, depth,
                                        a_smem.data(), depth,
                                        weights[p].data() + n0, n_total,
                                        acc.data(), n1 - n0, true);
            }

            // Epilogue: each TB writes its own disjoint output tile.
            for (Index m = m0; m < m1; ++m) {
                const tensor::RowCoord rc = tensor::rowCoord(params, m);
                for (Index n = n0; n < n1; ++n) {
                    out.at(rc.n, n, rc.oh, rc.ow) =
                        acc.at(m - m0, n - n0);
                    ++write_count[static_cast<size_t>(m * n_total + n)];
                    ++local.outputWrites;
                }
            }
        }
    }

    for (size_t i = 0; i < write_count.size(); ++i)
        CFCONV_ASSERT(write_count[i] == 1,
                      "(an OFMap element was written != 1 times: the "
                      "no-atomics property is broken)");

    if (stats)
        *stats = local;
    return out;
}

} // namespace cfconv::gpusim
