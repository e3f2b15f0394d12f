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

std::string
gemmKernelLabel(Index m, Index k, Index n)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "gemm %lldx%lldx%lld",
                  static_cast<long long>(m), static_cast<long long>(k),
                  static_cast<long long>(n));
    return buf;
}

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
GpuSim::runPipeline(Index m, Index n, const std::vector<Step> &steps,
                    Flops useful_flops, double compute_eff,
                    double overhead_sec, const std::string &label) const
{
    CFCONV_FATAL_IF(steps.empty(), "GpuSim: empty pipeline");
    trace::Scope span("gpusim",
                      trace::enabled() ? label : std::string());
    Index tm, tn;
    chooseTile(m, n, kResidentTbs, tm, tn);
    const Index num_tbs = divCeil(m, tm) * divCeil(n, tn);
    const Index concurrent = std::min(num_tbs, kResidentTbs);
    // Continuous throughput model: a ragged tail wave contributes its
    // fraction rather than a whole extra wave.
    const double waves = std::max(
        1.0, static_cast<double>(num_tbs) /
                 static_cast<double>(kResidentTbs));

    const double per_tb_macs =
        static_cast<double>(kMacsPerSmPerCycle) /
        static_cast<double>(kTbPerSm) * compute_eff;
    const double per_tb_fill_bpc =
        kL2GBps * 1e9 * kL2Util /
        (static_cast<double>(concurrent) * config_.clockGhz * 1e9);

    // One representative thread block's pipeline on the simulated-
    // cycles clock: fills overlap the previous step's MACs, so the two
    // phases get their own rows (they would collide on one track).
    trace::SimTrack fill_row;
    trace::SimTrack mac_row;
    if (trace::enabled()) {
        fill_row = trace::simTrack(label + " fill");
        mac_row = trace::simTrack(label + " mac");
    }
    // Past this many k-steps the picture is periodic anyway.
    constexpr size_t kMaxSteps = 512;
    size_t emitted = 0;

    double tb_cycles = 0.0;
    double compute_cycles = 0.0;
    double fill_cycles = 0.0;
    Bytes tb_bytes = 0;
    for (const auto &s : steps) {
        const double c = static_cast<double>(s.macs) / per_tb_macs;
        const double f =
            static_cast<double>(s.fillBytes) / per_tb_fill_bpc;
        if (mac_row.active() && emitted < kMaxSteps) {
            const auto t0 = static_cast<std::uint64_t>(tb_cycles + 0.5);
            if (c > 0.0)
                trace::simSpan(mac_row, "mac", t0,
                               static_cast<std::uint64_t>(c + 0.5));
            if (f > 0.0)
                trace::simSpan(fill_row, "smem fill", t0,
                               static_cast<std::uint64_t>(f + 0.5));
            ++emitted;
        }
        tb_cycles += std::max(c, f);
        compute_cycles += c;
        fill_cycles += f;
        tb_bytes += s.fillBytes;
    }
    span.arg("waves", waves);
    span.arg("threadBlocks", static_cast<double>(num_tbs));

    GpuKernelResult r;
    const double kernel_secs =
        waves * tb_cycles / (config_.clockGhz * 1e9);
    r.computeSeconds =
        waves * compute_cycles / (config_.clockGhz * 1e9);
    r.memorySeconds =
        waves * fill_cycles / (config_.clockGhz * 1e9);
    r.memoryBound = fill_cycles > compute_cycles;
    r.seconds = kernel_secs + overhead_sec;
    r.dramBytes = tb_bytes * static_cast<Bytes>(num_tbs);
    r.tflops = static_cast<double>(useful_flops) / r.seconds / 1e12;
    return r;
}

void
GpuSim::applyDramRoofline(GpuKernelResult &r, Bytes unique_bytes,
                          double overhead_sec, Flops flops) const
{
    const double dram_secs =
        static_cast<double>(unique_bytes) /
        (config_.dram.peakGBps() * 1e9 * kBwUtil);
    if (dram_secs + overhead_sec > r.seconds) {
        r.seconds = dram_secs + overhead_sec;
        r.memoryBound = true;
        r.tflops = static_cast<double>(flops) / r.seconds / 1e12;
    }
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
    Index tm, tn;
    chooseTile(m, n, kResidentTbs, tm, tn);
    const Bytes elem = 2; // FP16 operands
    const Index kc = 64;
    std::vector<Step> steps;
    for (Index k0 = 0; k0 < k; k0 += kc) {
        const Index kc_eff = std::min(kc, k - k0);
        Step s;
        s.macs = static_cast<Flops>(tm) * static_cast<Flops>(tn) *
                 static_cast<Flops>(kc_eff);
        s.fillBytes =
            static_cast<Bytes>((tm + tn) * kc_eff) * elem;
        steps.push_back(s);
    }
    // Epilogue: write the output tile.
    steps.push_back({0, static_cast<Bytes>(tm * tn) * elem});

    const Flops flops = 2ULL * static_cast<Flops>(m) *
                        static_cast<Flops>(k) * static_cast<Flops>(n);
    const double overhead =
        vendor_tuned ? kCudnnKernelOverheadSec : kKernelOverheadSec;
    GpuKernelResult r =
        runPipeline(m, n, steps, flops,
                    vendor_tuned ? kCudnnComputeEff : kComputeEff,
                    overhead, gemmKernelLabel(m, k, n));

    // Global DRAM roofline: unique operand + result bytes. Skipped for
    // the idealized reference GEMM whose operands are assumed resident.
    const Bytes unique =
        (static_cast<Bytes>(m) * static_cast<Bytes>(k) +
         static_cast<Bytes>(k) * static_cast<Bytes>(n) +
         static_cast<Bytes>(m) * static_cast<Bytes>(n)) *
        elem;
    if (operands_in_dram)
        applyDramRoofline(r, unique, overhead, flops);
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
        const double transform = explicitTransformSeconds(params);
        gemm.transformSeconds = transform;
        gemm.seconds += transform;
        gemm.tflops =
            static_cast<double>(params.flops()) / gemm.seconds / 1e12;
        gemm.dramBytes += plan.transformBytes;
        return gemm;
    }

    Index tm, tn;
    chooseTile(m, n, kResidentTbs, tm, tn);
    const Index kc = 64;
    const double eff =
        options.vendorTuned ? kCudnnComputeEff : kComputeEff;

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

    // Each TB walks the plan's taps in kc-deep k-steps. Shared-memory
    // fills are paid per k-step regardless of reuse; what inter-tile
    // reuse changes is which of those fills hit L2 instead of DRAM (the
    // unique-traffic roofline below). A side table (the indirection
    // buffer: tm pointers per tap per TB) streams with the first chunk
    // of every tap.
    std::vector<Step> steps;
    for (const im2col::PlanPass &pass : plan.passes(kc)) {
        const Index depth = pass.depth();
        Step s;
        s.macs = static_cast<Flops>(tm) * static_cast<Flops>(tn) *
                 static_cast<Flops>(depth);
        const double a_bytes = static_cast<double>(tm * depth) *
                               static_cast<double>(elem) * waste;
        s.fillBytes = static_cast<Bytes>(a_bytes) +
                      static_cast<Bytes>(depth * tn) * elem;
        if (pass.offset == 0)
            s.fillBytes += static_cast<Bytes>(tm * pass.taps) *
                           plan.metadataBytesPerRowTap;
        steps.push_back(s);
    }
    // Epilogue: output tile writeback.
    steps.push_back({0, static_cast<Bytes>(tm * tn) * elem});

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

    const double overhead = options.vendorTuned ? kCudnnKernelOverheadSec
                                                : kKernelOverheadSec;
    GpuKernelResult r = runPipeline(m, n, steps, params.flops(), eff,
                                    overhead,
                                    convKernelLabel(params, plan, options));

    // Global DRAM roofline over unique traffic.
    const Bytes unique = unique_input + params.filterBytes() +
                         params.outputBytes();
    applyDramRoofline(r, unique, overhead, params.flops());
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
