#include "tpusim/tpu_sim.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/trace.h"
#include "dram/access_pattern.h"
#include "im2col/pass_plan.h"
#include "systolic/systolic_timing.h"
#include "tensor/space_to_depth.h"
#include "tpusim/layer_cache.h"

namespace cfconv::tpusim {

namespace {

/** Closed-form DRAM efficiency by access-pattern friendliness. */
double
layoutEfficiency(tensor::Layout layout)
{
    switch (layout) {
      case tensor::Layout::HWCN:
      case tensor::Layout::NHWC:
        return 0.85; // long contiguous bursts (Fig 7, HWC side)
      case tensor::Layout::NCHW:
      case tensor::Layout::CHWN:
        return 0.45; // short scattered bursts (Fig 7, CHW side)
    }
    return 0.5;
}

/** Label for a layer's rows on the simulated-cycles clock. */
std::string
convTraceLabel(const ConvParams &params)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "conv %lldx%lld %lld->%lld M=%lld",
                  static_cast<long long>(params.kernelH),
                  static_cast<long long>(params.kernelW),
                  static_cast<long long>(params.inChannels),
                  static_cast<long long>(params.outChannels),
                  static_cast<long long>(params.gemmM()));
    return buf;
}

std::string
gemmTraceLabel(Index m, Index k, Index n)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "gemm %lldx%lldx%lld",
                  static_cast<long long>(m), static_cast<long long>(k),
                  static_cast<long long>(n));
    return buf;
}

/**
 * Re-play a captured unit schedule onto the simulated-cycles clock.
 * Mirrors scheduleUnits' double buffering: fill 0 is fully exposed,
 * fill i+1 overlaps compute i, and time advances by
 * max(compute_i, fill_{i+1}). Two rows per timeline because the
 * overlapped phases would collide on a single track.
 */
void
emitSimTimeline(const std::string &label, const TpuConfig &config,
                const TpuLayerResult &r)
{
    if (!trace::enabled() || r.trace.empty())
        return;
    // Keep giant layers viewable: past this many units the picture is
    // periodic anyway.
    constexpr size_t kMaxUnits = 512;
    trace::SimTrack fill_row = trace::simTrack(label + " fill");
    trace::SimTrack compute_row = trace::simTrack(label + " compute");
    std::uint64_t t = config.invokeOverheadCycles;
    trace::simSpan(fill_row, "fill", t, r.trace.front().fill);
    t += r.trace.front().fill;
    const size_t n = std::min(r.trace.size(), kMaxUnits);
    for (size_t i = 0; i < n; ++i) {
        const Cycles c = r.trace[i].compute;
        const Cycles f =
            i + 1 < r.trace.size() ? r.trace[i + 1].fill : 0;
        trace::simSpan(compute_row, "compute", t, c,
                       {{"unit", static_cast<double>(i)}});
        if (f > 0)
            trace::simSpan(fill_row, "fill", t, f);
        t += std::max(c, f);
    }
}

/** Busy fraction of @p config's single-port vector memories, one per
 *  PE row, over @p cycles. */
double
portUtilization(const TpuConfig &config, Index port_ops, Cycles cycles)
{
    return static_cast<double>(port_ops) /
           (static_cast<double>(cycles) *
            static_cast<double>(config.array.rows));
}

} // namespace

TpuSim::TpuSim(const TpuConfig &config) : config_(config) {}

Cycles
TpuSim::dramCycles(Bytes bytes, double efficiency) const
{
    if (bytes == 0)
        return 0;
    return dram::transferCycles(bytes, config_.dram.peakGBps(),
                                config_.clockGhz, efficiency);
}

Cycles
TpuSim::tileFillCoreCycles(const ConvParams &params,
                           const im2col::FilterTile &tile,
                           tensor::Layout layout) const
{
    dram::DramModel model(config_.dram);
    const auto stream = dram::tileFillStream(params, tile, layout);
    if (stream.empty())
        return 0;
    const Cycles dram_cycles = model.service(stream);
    const double secs = model.cyclesToSeconds(dram_cycles);
    return static_cast<Cycles>(secs * config_.clockGhz * 1e9 + 0.5);
}

TpuLayerResult
TpuSim::scheduleUnits(const std::vector<Unit> &units,
                      Flops total_flops, bool capture_trace) const
{
    TpuLayerResult r;
    CFCONV_FATAL_IF(units.empty(), "TpuSim: nothing to schedule");

    // Double buffering: the fill of unit i+1 overlaps the compute of
    // unit i; only unit 0's fill is fully exposed. With multiple
    // matrix units, independent passes run concurrently until the
    // single-port vector memories run out of bandwidth: each MXU needs
    // its own word stream, so per-unit compute divides by the MXU
    // count but never below the port-service time.
    const double mxus = static_cast<double>(config_.mxus);
    Cycles total = config_.invokeOverheadCycles + units.front().fill;
    Index port_ops = 0;
    for (size_t i = 0; i < units.size(); ++i) {
        const Cycles next_fill =
            i + 1 < units.size() ? units[i + 1].fill : 0;
        const Cycles port_floor = static_cast<Cycles>(
            divCeil<Index>(units[i].portOps, config_.array.rows));
        const Cycles compute = std::max<Cycles>(
            static_cast<Cycles>(
                static_cast<double>(units[i].compute) / mxus + 0.5),
            port_floor);
        total += std::max(compute, next_fill);
        r.computeCycles += compute;
        r.fillCycles += units[i].fill;
        port_ops += units[i].portOps;
        if (capture_trace)
            r.trace.push_back({units[i].fill, compute});
    }

    r.cycles = total;
    r.vecMemOps = port_ops;
    r.exposedFillCycles = total - r.computeCycles;
    r.seconds = config_.cyclesToSeconds(total);
    r.tflops = static_cast<double>(total_flops) / r.seconds / 1e12;
    r.portUtilization = portUtilization(config_, port_ops, total);
    return r;
}

TpuLayerResult
TpuSim::runConv(const ConvParams &params,
                const TpuRunOptions &options) const
{
    params.validate();

    // Timeline emission needs the captured unit schedule; forcing the
    // flag while tracing is benign because captureTrace is part of the
    // memo key, so traced and untraced runs use distinct entries.
    TpuRunOptions opts = options;
    if (trace::enabled())
        opts.captureTrace = true;

    // A layer result is a pure function of (params, options, config);
    // memoize it so repeated shapes (model blocks, sweep grids) are
    // simulated once. Concurrent misses on the same key may compute
    // the identical result twice — benign, last insert wins.
    LayerCache &cache = LayerCache::instance();
    std::string key;
    TpuLayerResult cached;
    if (cache.enabled()) {
        key = layerCacheKey(config_, params, opts);
        if (cache.lookup(key, &cached))
            return cached;
    }

    TRACE_SCOPE_DYN("tpusim", convTraceLabel(params));
    TpuLayerResult r = runConvUncached(params, opts);
    if (trace::enabled())
        emitSimTimeline(convTraceLabel(params), config_, r);
    if (cache.enabled())
        cache.insert(key, r);
    return r;
}

TpuLayerResult
TpuSim::runConvUncached(const ConvParams &params,
                        const TpuRunOptions &options) const
{
    if (options.spaceToDepthFirstLayer && params.inChannels <= 4 &&
        params.strideH % 2 == 0 && params.strideW % 2 == 0 &&
        params.dilationH == 1 && params.dilationW == 1) {
        // Shallow stem: remap through space-to-depth so the systolic
        // rows are four times better occupied. The rewritten layer's
        // padded taps are not useful work: throughput counts the
        // original layer's FLOPs.
        TpuRunOptions inner = options;
        inner.spaceToDepthFirstLayer = false;
        TpuLayerResult r =
            runConv(tensor::spaceToDepthParams(params, 2), inner);
        r.tflops = static_cast<double>(params.flops()) / r.seconds / 1e12;
        return r;
    }
    const StatusOr<im2col::PassPlan> plan =
        conv::findAlgorithm(options.algorithm)->plan(params);
    CFCONV_FATAL_IF(!plan.ok(), "TpuSim: %s",
                    plan.status().message().c_str());
    if (plan->feed == im2col::FeedLocality::Workspace)
        return runMaterialized(params, *plan, options);
    return schedulePlan(params, *plan, options);
}

Index
TpuSim::mTile(Index m) const
{
    // M tiling by vector-memory capacity: each lane (channel x tile
    // copy) stores one element per GEMM row, double buffered.
    const Index word = config_.wordElems;
    const Index usable =
        static_cast<Index>(config_.perArrayBytes() / config_.elemBytes);
    const Index m_tile = std::min<Index>(m, usable / 2 - 4 * word);
    return std::max<Index>(word, (m_tile / word) * word);
}

void
TpuSim::addCompute(Unit &unit, Index m, Index depth, Index n) const
{
    const Index rows = config_.array.rows;
    const Index cols = config_.array.cols;
    const Index words = divCeil(m, config_.wordElems);
    for (Index k0 = 0; k0 < depth; k0 += rows) {
        const Index k_eff = std::min(rows, depth - k0);
        for (Index n0 = 0; n0 < n; n0 += cols) {
            const Index n_eff = std::min(cols, n - n0);
            unit.compute +=
                systolic::passCycles(config_.array, m, k_eff, n_eff);
            unit.portOps += (k_eff + n_eff) * words;
        }
    }
}

TpuLayerResult
TpuSim::schedulePlan(const ConvParams &params, const im2col::PassPlan &plan,
                     const TpuRunOptions &options) const
{
    const Index rows = config_.array.rows;
    const Index m_total = params.gemmM();
    const Index n_total = params.gemmN();
    const Bytes elem = dataTypeSize(params.dataType);
    const Index m_tile = mTile(m_total);
    const Index m_tiles = divCeil(m_total, m_tile);
    const Index m_cap = std::min(m_tile, m_total);

    // When the layer's whole input footprint fits on chip, it is loaded
    // from DRAM once; later decomposed-filter groups replicate data
    // inside the vector memories instead of refetching (Sec. IV-B).
    // Residency depends only on the activation volume: M-tiling a
    // resident input redistributes data inside the unified memory,
    // never over DRAM.
    const Bytes union_bytes = im2col::inputUnionBytes(params);
    const bool resident = union_bytes * 2 <= config_.onChipBytes;

    // Multi-tile merging when a whole tap fits the array rows;
    // channel chunking otherwise.
    Index multi_tile = 1;
    if (plan.mergeable && plan.tapDepth <= rows) {
        multi_tile = options.multiTileOverride > 0
            ? std::min({options.multiTileOverride,
                        static_cast<Index>(plan.taps.size()),
                        std::max<Index>(1, rows / plan.tapDepth)})
            : im2col::tpuMultiTileParam(rows, params);
    }
    const std::vector<im2col::PlanPass> passes =
        plan.passes(rows, multi_tile);

    std::vector<Unit> units;
    Bytes fill_bytes = 0;
    Bytes peak_on_chip = 0;
    if (plan.feed == im2col::FeedLocality::UnionGather) {
        // The union of all receptive fields -- effectively the whole
        // input region, regardless of stride -- fills once per M tile
        // and feeds every depth chunk of that tile.
        for (Index mt = 0; mt < m_tiles; ++mt) {
            const Index m_cur = std::min(m_tile, m_total - mt * m_tile);
            const double frac = static_cast<double>(m_cur) /
                                static_cast<double>(m_total);
            Unit u;
            u.fill = resident
                ? 0
                : dramCycles(static_cast<Bytes>(
                                 static_cast<double>(union_bytes) * frac),
                             layoutEfficiency(options.dramLayout));
            for (const im2col::PlanPass &pass : passes)
                addCompute(u, m_cur, pass.depth(), n_total);
            units.push_back(u);
        }
        fill_bytes = union_bytes;
        peak_on_chip = union_bytes / static_cast<Bytes>(m_tiles);
    } else {
        // Per-tap fills: each tap's footprint is priced once for the
        // whole layer, then split across its depth slices and M tiles.
        // Resident activations live in the unified on-chip memory
        // between layers (32 MB); tile replication happens inside the
        // vector memories, not over DRAM, so only a streamed layer's
        // taps are priced.
        std::vector<Cycles> tap_cycles;
        std::vector<Bytes> tap_bytes;
        for (const im2col::FilterTile &tap : plan.taps) {
            const Bytes bytes =
                static_cast<Bytes>(im2col::tileFillElems(params, tap)) *
                elem;
            tap_bytes.push_back(bytes);
            // Contiguous feeds are closed-form at a high burst
            // efficiency; gathers go through the (banked) DRAM model.
            if (resident)
                tap_cycles.push_back(0);
            else if (plan.feed == im2col::FeedLocality::Contiguous)
                tap_cycles.push_back(dramCycles(bytes, 0.95));
            else
                tap_cycles.push_back(
                    tileFillCoreCycles(params, tap, options.dramLayout));
        }
        const auto scaled = [](auto full, double frac) {
            return static_cast<decltype(full)>(
                static_cast<double>(full) * frac + 0.5);
        };
        for (const im2col::PlanPass &pass : passes) {
            const double slice_frac = static_cast<double>(pass.slice) /
                                      static_cast<double>(plan.tapDepth);
            Cycles fill_core = 0;
            for (Index t = pass.firstTap; t < pass.firstTap + pass.taps;
                 ++t) {
                const auto i = static_cast<size_t>(t);
                fill_core += scaled(tap_cycles[i], slice_frac);
                fill_bytes += scaled(tap_bytes[i], slice_frac);
            }
            peak_on_chip = std::max(
                peak_on_chip,
                static_cast<Bytes>(pass.depth()) *
                        static_cast<Bytes>(m_cap) * config_.elemBytes +
                    static_cast<Bytes>(m_cap) *
                        static_cast<Bytes>(pass.taps) *
                        plan.metadataBytesPerRowTap);
            for (Index mt = 0; mt < m_tiles; ++mt) {
                const Index m_cur =
                    std::min(m_tile, m_total - mt * m_tile);
                Unit u;
                u.fill = scaled(fill_core, static_cast<double>(m_cur) /
                                               static_cast<double>(m_total));
                addCompute(u, m_cur, pass.depth(), n_total);
                units.push_back(u);
            }
        }
    }

    // Weights and side tables (IndirectConv's pointers) always stream
    // from DRAM; the OFMap is written back only when the activations do
    // not stay on chip. Writeback and table streaming share the bus
    // with the per-tap fills, so spread their cycles across the units;
    // the union-gather schedule charges its fills alone.
    const Bytes meta_bytes = plan.metadataBytes(m_total);
    const auto share = [&units, this](Bytes bytes) {
        return dramCycles(bytes, 0.85) / static_cast<Cycles>(units.size());
    };
    Bytes dram_bytes = params.filterBytes() + meta_bytes;
    Cycles shared = share(meta_bytes);
    if (!resident) {
        dram_bytes += fill_bytes + params.outputBytes();
        if (plan.feed != im2col::FeedLocality::UnionGather)
            shared += share(params.outputBytes());
    }
    for (auto &u : units)
        u.fill += shared;

    TpuLayerResult r =
        scheduleUnits(units, params.flops(), options.captureTrace);
    r.dramBytes = dram_bytes;
    r.multiTile = multi_tile;
    r.peakOnChipBytes = peak_on_chip;
    return r;
}

TpuLayerResult
TpuSim::runMaterialized(const ConvParams &params,
                        const im2col::PassPlan &plan,
                        const TpuRunOptions &options) const
{
    // GEMM over the materialized lowered matrix, streamed from DRAM
    // (its dramBytes already count the lowered-matrix read).
    TpuLayerResult r =
        runGemm(params.gemmM(), params.gemmK(), params.gemmN(),
                params.dataType);
    // The transformation itself: by default estimated as the DRAM time
    // to read the IFMap and write the lowered matrix; callers may
    // substitute a measured/estimated figure (Fig 2b uses GPU numbers).
    double transform = options.explicitTransformSeconds;
    if (transform <= 0.0)
        transform =
            config_.cyclesToSeconds(dramCycles(plan.transformBytes, 0.7));
    // Nothing overlaps the transform: its cycles are exposed fill, and
    // the vector-memory ports idle through them.
    const auto transform_cycles =
        static_cast<Cycles>(transform * config_.clockGhz * 1e9);
    r.seconds += transform;
    r.cycles += transform_cycles;
    r.fillCycles += transform_cycles;
    r.exposedFillCycles += transform_cycles;
    r.portUtilization = portUtilization(config_, r.vecMemOps, r.cycles);
    r.tflops =
        static_cast<double>(params.flops()) / r.seconds / 1e12;
    r.dramBytes += plan.transformBytes;
    return r;
}

TpuLayerResult
TpuSim::runGroupedConv(const ConvParams &base, Index groups,
                       const TpuRunOptions &options) const
{
    base.validate(groups);
    if (groups == 1)
        return runConv(base, options);

    const ConvParams slice = tensor::groupSlice(base, groups);
    const Index cig = slice.inChannels;
    const Index cog = slice.outChannels;
    // Block-diagonal packing: each pass holds `pack` group slices.
    const Index pack = std::max<Index>(
        1, std::min(config_.array.rows / std::max<Index>(1, cig),
                    config_.array.cols / std::max<Index>(1, cog)));
    const Index packed = std::min(pack, groups);

    ConvParams eq = slice;
    eq.inChannels = packed * cig;
    eq.outChannels = packed * cog;
    TpuLayerResult r = runConv(eq, options);

    const Index reps = divCeil(groups, packed);
    r.seconds *= static_cast<double>(reps);
    r.cycles *= static_cast<Cycles>(reps);
    r.dramBytes *= static_cast<Bytes>(reps);
    r.computeCycles *= static_cast<Cycles>(reps);
    r.fillCycles *= static_cast<Cycles>(reps);
    r.exposedFillCycles *= static_cast<Cycles>(reps);
    r.vecMemOps *= reps;

    // Useful work is the grouped FLOP count; the block-diagonal zeros
    // are wasted array capacity.
    r.tflops = static_cast<double>(tensor::groupedFlops(base, groups)) /
               r.seconds / 1e12;
    return r;
}

TpuLayerResult
TpuSim::runGemm(Index m, Index k, Index n, DataType dtype) const
{
    CFCONV_FATAL_IF(m < 1 || k < 1 || n < 1,
                    "TpuSim::runGemm: non-positive dimensions");
    LayerCache &cache = LayerCache::instance();
    std::string key;
    TpuLayerResult cached;
    if (cache.enabled()) {
        key = gemmCacheKey(config_, m, k, n, dtype);
        if (cache.lookup(key, &cached))
            return cached;
    }
    TRACE_SCOPE_DYN("tpusim", gemmTraceLabel(m, k, n));
    const Index rows = config_.array.rows;
    const Bytes elem = dataTypeSize(dtype);
    const Index m_tile = mTile(m);

    std::vector<Unit> units;
    for (Index m0 = 0; m0 < m; m0 += m_tile) {
        const Index m_cur = std::min(m_tile, m - m0);
        for (Index k0 = 0; k0 < k; k0 += rows) {
            const Index k_eff = std::min(rows, k - k0);
            Unit u;
            u.fill = dramCycles(static_cast<Bytes>(m_cur) *
                                    static_cast<Bytes>(k_eff) * elem,
                                0.85);
            addCompute(u, m_cur, k_eff, n);
            units.push_back(u);
        }
    }

    const Flops flops = 2ULL * static_cast<Flops>(m) *
                        static_cast<Flops>(k) * static_cast<Flops>(n);
    TpuLayerResult r = scheduleUnits(units, flops, trace::enabled());
    if (trace::enabled())
        emitSimTimeline(gemmTraceLabel(m, k, n), config_, r);
    r.dramBytes = (static_cast<Bytes>(m) * static_cast<Bytes>(k) +
                   static_cast<Bytes>(k) * static_cast<Bytes>(n) +
                   static_cast<Bytes>(m) * static_cast<Bytes>(n)) *
                  elem;
    if (cache.enabled())
        cache.insert(key, r);
    return r;
}

} // namespace cfconv::tpusim
