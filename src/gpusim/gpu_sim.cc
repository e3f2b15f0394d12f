#include "gpusim/gpu_sim.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/trace.h"
#include "gpusim/kernel_cache.h"
#include "im2col/reorder.h"

namespace cfconv::gpusim {

namespace {

/** Thread blocks resident on the whole GPU at once. */
constexpr Index kResidentTbs = kSms * kTbPerSm;

/**
 * Pick the thread-block tile for an (M, N) output. Starts from the
 * throughput-optimal 128x128 tile and halves it while the grid would
 * underfill the machine (what cuDNN's heuristics do for small layers).
 */
void
chooseTile(Index m, Index n, Index occupancy_target, Index &tm,
           Index &tn)
{
    tm = m >= 128 ? 128 : 64;
    tn = n >= 128 ? 128 : 64;
    auto tbs = [&] { return divCeil(m, tm) * divCeil(n, tn); };
    while (tbs() < occupancy_target && (tm > 32 || tn > 32)) {
        if (tm >= tn && tm > 32)
            tm /= 2;
        else if (tn > 32)
            tn /= 2;
        else
            break;
    }
}

/** Label for a conv kernel's trace rows, e.g. "cf-conv 3x3 64->128". */
std::string
convKernelLabel(const ConvParams &params, const im2col::PassPlan &plan,
                const GpuRunOptions &options)
{
    const char *alg = "cl-conv";
    if (plan.feed == im2col::FeedLocality::TileGather)
        alg = options.interTileReuse ? "cf-conv+reuse" : "cf-conv";
    else if (plan.feed == im2col::FeedLocality::PointerGather)
        alg = "indirect-conv";
    else if (plan.feed == im2col::FeedLocality::Contiguous)
        alg = "smm-conv";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %lldx%lld %lld->%lld", alg,
                  static_cast<long long>(params.kernelH),
                  static_cast<long long>(params.kernelW),
                  static_cast<long long>(params.inChannels),
                  static_cast<long long>(params.outChannels));
    return buf;
}

/**
 * One representative thread block of an M x N kernel on the overlap
 * schedule, each k-step's MACs paired with the step's own fill. Its
 * wall-clock span and its timeline carry @p label.
 */
struct ThreadBlock
{
    ThreadBlock(const GpuConfig &gpu, Index m, Index n, bool vendor_tuned,
                const std::string &label)
        : config(gpu), span("gpusim", label),
          schedule([&label] { return label; }),
          overheadSec(vendor_tuned ? kCudnnKernelOverheadSec
                                   : kKernelOverheadSec)
    {
        chooseTile(m, n, kResidentTbs, tm, tn);
        const Index tbs = divCeil(m, tm) * divCeil(n, tn);
        // Continuous throughput model: a ragged tail wave contributes
        // its fraction rather than a whole extra wave.
        waves = std::max(1.0, static_cast<double>(tbs) /
                                  static_cast<double>(kResidentTbs));
        macsPerCycle = static_cast<double>(kMacsPerSmPerCycle) /
                       static_cast<double>(kTbPerSm) *
                       (vendor_tuned ? kCudnnComputeEff : kComputeEff);
        fillBytesPerCycle =
            kL2GBps * 1e9 * kL2Util /
            (static_cast<double>(std::min(tbs, kResidentTbs)) *
             gpu.clockGhz * 1e9);
        span.arg("waves", waves);
        span.arg("threadBlocks", static_cast<double>(tbs));
    }

    /** One k-step: @p macs overlapped with the @p fill_bytes it loads. */
    void
    step(Flops macs, Bytes fill_bytes)
    {
        schedule.step(static_cast<double>(macs) / macsPerCycle,
                      static_cast<double>(fill_bytes) / fillBytesPerCycle);
    }

    /** Write the output tile of @p elem-byte values back, then time
     *  every wave in seconds plus the launch overhead, stalled up to
     *  the time @p unique_bytes take at sustained DRAM bandwidth. */
    GpuKernelResult
    finish(Bytes elem, Bytes unique_bytes, Flops useful_flops)
    {
        step(0, static_cast<Bytes>(tm * tn) * elem);
        GpuKernelResult r;
        r.breakdown =
            schedule.breakdown().scaled(waves, config.clockGhz * 1e9);
        r.breakdown.overhead = overheadSec;
        r.seconds =
            waves * schedule.total() / (config.clockGhz * 1e9) + overheadSec;
        const double roofline = static_cast<double>(unique_bytes) /
                                    (config.dram.peakGBps() * 1e9 * kBwUtil) +
                                overheadSec;
        if (roofline > r.seconds) {
            r.breakdown.stall = roofline - r.seconds;
            r.seconds = roofline;
        }
        r.tflops = static_cast<double>(useful_flops) / r.seconds / 1e12;
        return r;
    }

    const GpuConfig &config;
    trace::Scope span;
    conv::OverlapSchedule schedule;
    double overheadSec;
    Index tm = 0;
    Index tn = 0;
    double waves = 1.0;
    double macsPerCycle = 0.0;
    double fillBytesPerCycle = 0.0;
};

} // namespace

double
GpuSim::gatherWaste(Bytes contiguous_run_bytes, Index stride) const
{
    if (stride <= 1 || contiguous_run_bytes >= kTransactionBytes)
        return 1.0;
    const double per_run = static_cast<double>(kTransactionBytes) /
                           static_cast<double>(contiguous_run_bytes);
    return std::min(static_cast<double>(stride), per_run);
}

GpuKernelResult
GpuSim::runGemm(Index m, Index k, Index n, bool vendor_tuned,
                bool operands_in_dram) const
{
    CFCONV_FATAL_IF(m < 1 || k < 1 || n < 1,
                    "GpuSim::runGemm: non-positive dimensions");
    // A GEMM result is a pure function of (dims, flags, config);
    // memoize it exactly like TpuSim::runGemm.
    KernelCache &cache = KernelCache::instance();
    std::string key;
    GpuKernelResult cached;
    if (cache.enabled()) {
        key = gpuGemmCacheKey(config_, m, k, n, vendor_tuned,
                              operands_in_dram);
        if (cache.lookup(key, &cached))
            return cached;
    }
    ThreadBlock tb(config_, m, n, vendor_tuned,
                   trace::enabled() ? conv::gemmLabel(m, k, n)
                                    : std::string());
    const Bytes elem = 2; // FP16 operands
    for (Index k0 = 0; k0 < k; k0 += kChunkK) {
        const Index kc = std::min(kChunkK, k - k0);
        tb.step(static_cast<Flops>(tb.tm) * static_cast<Flops>(tb.tn) *
                    static_cast<Flops>(kc),
                static_cast<Bytes>((tb.tm + tb.tn) * kc) * elem);
    }

    // Global DRAM roofline: unique operand + result bytes. None for
    // the idealized reference GEMM whose operands are assumed resident.
    const Bytes unique =
        (static_cast<Bytes>(m) * static_cast<Bytes>(k) +
         static_cast<Bytes>(k) * static_cast<Bytes>(n) +
         static_cast<Bytes>(m) * static_cast<Bytes>(n)) *
        elem;
    const Flops flops = 2ULL * static_cast<Flops>(m) *
                        static_cast<Flops>(k) * static_cast<Flops>(n);
    GpuKernelResult r =
        tb.finish(elem, operands_in_dram ? unique : 0, flops);
    r.dramBytes = unique;
    if (cache.enabled())
        cache.insert(key, r);
    return r;
}

GpuKernelResult
GpuSim::runConv(const ConvParams &params,
                const GpuRunOptions &options) const
{
    params.validate();

    // A kernel result is a pure function of (params, options, config);
    // memoize it so repeated shapes (model blocks, sweep grids) are
    // simulated once. Concurrent misses on the same key may compute
    // the identical result twice — benign, last insert wins.
    KernelCache &cache = KernelCache::instance();
    std::string key;
    GpuKernelResult cached;
    if (cache.enabled()) {
        key = kernelCacheKey(config_, params, options);
        if (cache.lookup(key, &cached))
            return cached;
    }

    GpuKernelResult r = runConvUncached(params, options);
    if (cache.enabled())
        cache.insert(key, r);
    return r;
}

GpuKernelResult
GpuSim::runConvUncached(const ConvParams &params,
                        const GpuRunOptions &options) const
{
    const StatusOr<im2col::PassPlan> planned =
        conv::findAlgorithm(options.algorithm)->plan(params);
    CFCONV_FATAL_IF(!planned.ok(), "GpuSim: %s",
                    planned.status().message().c_str());
    const im2col::PassPlan &plan = *planned;
    const Index m = params.gemmM();
    const Index n = params.gemmN();
    const Bytes elem = dataTypeSize(params.dataType);

    if (plan.feed == im2col::FeedLocality::Workspace) {
        // The GEMM's dramBytes already count the lowered-matrix read;
        // the transform adds the IFMap read and the workspace write.
        GpuKernelResult gemm =
            runGemm(m, params.gemmK(), n, options.vendorTuned);
        gemm.transformSeconds = explicitTransformSeconds(params);
        gemm.breakdown.exposedFill += gemm.transformSeconds;
        gemm.seconds += gemm.transformSeconds;
        gemm.tflops =
            static_cast<double>(params.flops()) / gemm.seconds / 1e12;
        gemm.dramBytes += plan.transformBytes;
        return gemm;
    }

    // DRAM-transaction waste of the A-operand gathers, by feed locality.
    double waste = 1.0;
    if (plan.feed == im2col::FeedLocality::TileGather) {
        // NHWC gathers are contiguous over C_I; waste appears only for
        // shallow inputs. With inter-tile reuse and stride <= kernel,
        // whole pixel rows are useful across the tile sequence, so the
        // transaction waste is amortized away even for C_I = 3.
        const bool rows_fully_useful =
            options.interTileReuse &&
            params.strideW <= params.kernelW &&
            params.strideH <= params.kernelH;
        if (!rows_fully_useful)
            waste = gatherWaste(static_cast<Bytes>(params.inChannels) * elem,
                                std::max(params.strideH, params.strideW));
    } else if (plan.feed == im2col::FeedLocality::UnionGather) {
        // cuDNN-like implicit channel-last kernel: strided layers
        // gather scattered rows, paying a stride-proportional
        // transaction waste, and the fill volume does not shrink with
        // stride (Fig 3). Capped at 2x: past that, the vendor kernel's
        // specialized gathers (e.g. first-layer kernels) stop the
        // bleeding.
        const double lin_stride = static_cast<double>(
            std::max(params.strideH, params.strideW));
        if (lin_stride > 1.0)
            waste = std::clamp(kClStrideWasteCoeff * lin_stride,
                               1.0, 2.0);
    }
    // Pointer gathers dereference per-pixel rows, contiguous over C_I
    // regardless of stride/dilation, and contiguous feeds are one long
    // sequential run: both are waste-free.

    // Each TB walks the plan's taps in kChunkK-deep k-steps.
    // Shared-memory fills are paid per k-step regardless of reuse; what
    // inter-tile reuse changes is which of those fills hit L2 instead of
    // DRAM (the unique-traffic roofline below). A side table (the
    // indirection buffer: tm pointers per tap per TB) streams with the
    // first chunk of every tap.
    ThreadBlock tb(config_, m, n, options.vendorTuned,
                   trace::enabled() ? convKernelLabel(params, plan, options)
                                    : std::string());
    for (const im2col::PlanPass &pass : plan.passes(kChunkK)) {
        const Index depth = pass.depth();
        const double a_bytes = static_cast<double>(tb.tm * depth) *
                               static_cast<double>(elem) * waste;
        Bytes fill = static_cast<Bytes>(a_bytes) +
                     static_cast<Bytes>(depth * tb.tn) * elem;
        if (pass.offset == 0)
            fill += static_cast<Bytes>(tb.tm * pass.taps) *
                    plan.metadataBytesPerRowTap;
        tb.step(static_cast<Flops>(tb.tm) * static_cast<Flops>(tb.tn) *
                    static_cast<Flops>(depth),
                fill);
    }

    Bytes unique_input;
    if (plan.feed == im2col::FeedLocality::TileGather) {
        // Block-level channel-first kernel (Fig 12): the chosen tile
        // order decides how much of each footprint is refetched.
        const auto sequence = [&] {
            TRACE_SCOPE("gpusim", "orderTiles");
            return im2col::orderTiles(
                params, options.interTileReuse
                            ? im2col::TileOrder::ReuseGreedy
                            : im2col::TileOrder::Naive);
        }();
        unique_input = static_cast<Bytes>(im2col::sequenceFillElems(
                           params, sequence)) *
                       elem;
    } else {
        unique_input =
            static_cast<Bytes>(
                static_cast<double>(im2col::inputUnionBytes(params)) *
                waste) +
            plan.metadataBytes(m);
    }

    const Bytes unique = unique_input + params.filterBytes() +
                         params.outputBytes();
    GpuKernelResult r = tb.finish(elem, unique, params.flops());
    r.dramBytes = unique;
    return r;
}

double
GpuSim::explicitTransformSeconds(const ConvParams &params) const
{
    // The im2col kernel reads the IFMap and writes the lowered matrix.
    // It streams through L2 (transformGBps), since the matrix is
    // produced tile-by-tile rather than bounced entirely off DRAM.
    const Bytes bytes = params.inputBytes() + params.loweredBytes();
    return static_cast<double>(bytes) / (kTransformGBps * 1e9) +
           kKernelOverheadSec;
}

} // namespace cfconv::gpusim
