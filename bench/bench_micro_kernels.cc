/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels: reference
 * GEMM, explicit im2col lowering, the implicit channel-first engine,
 * and every conv::Algorithm::execute(), plus the banked DRAM fill
 * model TPUSim prices its channel-first tile fills with.
 * These time host-side code: the reference implementations and the
 * fill model, not whole simulator runs.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "conv/algorithm.h"
#include "dram/access_pattern.h"
#include "im2col/filter_decomp.h"
#include "tensor/conv_ref.h"
#include "tensor/gemm.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"

using namespace cfconv;
using tensor::makeConv;

namespace {

void
BM_ReferenceGemm(benchmark::State &state)
{
    const Index dim = state.range(0);
    tensor::Matrix a(dim, dim), b(dim, dim), c(dim, dim);
    a.fillRandom(1);
    b.fillRandom(2);
    for (auto _ : state) {
        tensor::gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * dim * dim * dim);
}
BENCHMARK(BM_ReferenceGemm)->Arg(64)->Arg(128);

void
BM_ExplicitLowering(benchmark::State &state)
{
    const auto p = makeConv(1, 32, state.range(0), 32, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    input.fillRandom(3);
    for (auto _ : state) {
        auto lowered = tensor::im2colLower(
            p, input, tensor::ColumnOrder::ChannelFirst);
        benchmark::DoNotOptimize(lowered.data());
    }
    state.SetItemsProcessed(state.iterations() * p.loweredElems());
}
BENCHMARK(BM_ExplicitLowering)->Arg(28)->Arg(56);

void
BM_ImplicitConv(benchmark::State &state)
{
    const auto p = makeConv(1, 16, state.range(0), 16, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(5);
    filter.fillRandom(6);
    const conv::Algorithm *channel_first =
        conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    for (auto _ : state) {
        auto out = channel_first->execute(p, input, filter);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * p.flops());
}
BENCHMARK(BM_ImplicitConv)->Arg(14)->Arg(28);

void
BM_DirectConv(benchmark::State &state)
{
    const auto p = makeConv(1, 16, state.range(0), 16, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(7);
    filter.fillRandom(8);
    for (auto _ : state) {
        auto out = tensor::convDirect(p, input, filter);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * p.flops());
}
BENCHMARK(BM_DirectConv)->Arg(14)->Arg(28);

/** The ResNet layers BM_AlgorithmExecute times: a 3x3 on 28x28, the
 *  7x7 stride-2 stem (C_I 3: 49 three-deep taps) and a 3x3 on the 7x7
 *  map (gemmM 49: fewer rows than one 128-row block). */
const std::vector<std::pair<const char *, tensor::ConvParams>> &
executeLayers()
{
    static const std::vector<std::pair<const char *, tensor::ConvParams>>
        layers = {
            {"3x3/28x28", makeConv(1, 64, 28, 64, 3, 1, 1)},
            {"stem7x7/s2", makeConv(1, 3, 112, 64, 7, 2, 3)},
            {"3x3/7x7", makeConv(1, 256, 7, 256, 3, 1, 1)},
        };
    return layers;
}

/** Host GFLOP/s of each registered algorithm's execute() (first
 *  argument) on one executeLayers() layer (second argument); items
 *  processed are FLOPs. */
void
BM_AlgorithmExecute(benchmark::State &state)
{
    const conv::Algorithm *algo =
        conv::allAlgorithms()[static_cast<size_t>(state.range(0))];
    const auto &[layer, p] =
        executeLayers()[static_cast<size_t>(state.range(1))];
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(9);
    filter.fillRandom(10);
    for (auto _ : state) {
        auto out = algo->execute(p, input, filter);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(std::string(algo->name()) + " " + layer);
    state.SetItemsProcessed(state.iterations() * p.flops());
}
BENCHMARK(BM_AlgorithmExecute)->Apply([](benchmark::internal::Benchmark *b) {
    // Every (algorithm, layer) pair the algorithm supports.
    for (Index a = 0; a < conv::kAlgorithmCount; ++a)
        for (size_t l = 0; l < executeLayers().size(); ++l)
            if (conv::allAlgorithms()[static_cast<size_t>(a)]
                    ->supports(executeLayers()[l].second, 1)
                    .ok())
                b->Args({a, static_cast<Index>(l)});
});

/** The layers BM_TileFill times, at batch 8: the ResNet-50 7x7/2 stem
 *  (C_I 3: short scattered bursts inside one DRAM row), VGG16 conv1_2
 *  (C 64 at 224x224: footprint rows of up to 224 DRAM rows, more than
 *  a turn of the banks), a 3x3 with C 64 at 56x56, and YOLOv2 conv2
 *  (C 32 at 208x208: 104-row footprint rows, which end inside the
 *  first turn). */
const std::vector<std::pair<const char *, tensor::ConvParams>> &
fillLayers()
{
    static const std::vector<std::pair<const char *, tensor::ConvParams>>
        layers = {
            {"stem7x7/s2", makeConv(8, 3, 224, 64, 7, 2, 3)},
            {"vgg16.conv1_2", makeConv(8, 64, 224, 64, 3, 1, 1)},
            {"3x3/56x56", makeConv(8, 64, 56, 64, 3, 1, 1)},
            {"yolov2.conv2", makeConv(8, 32, 208, 64, 3, 1, 1)},
        };
    return layers;
}

/** Host time of the banked DRAM fill model on one fillLayers() layer:
 *  the HWCN fill stream of every tap, serviced by an HBM2 (700 GB/s)
 *  DramModel. Bytes processed are the bytes the fills move. */
void
BM_TileFill(benchmark::State &state)
{
    const auto &[layer, p] =
        fillLayers()[static_cast<size_t>(state.range(0))];
    const std::vector<im2col::FilterTile> taps = im2col::decomposeFilter(p);
    dram::DramModel model(dram::DramConfig::hbm700());
    Bytes bytes = 0;
    for (auto _ : state) {
        Cycles cycles = 0;
        bytes = 0;
        for (const im2col::FilterTile &tap : taps) {
            const auto stream =
                dram::tileFillStream(p, tap, tensor::Layout::HWCN);
            bytes += dram::streamBytes(stream);
            cycles += model.service(stream);
        }
        benchmark::DoNotOptimize(cycles);
    }
    state.SetLabel(layer);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TileFill)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

/** One timed GEMM data point of the per-backend sweep. */
struct GemmPoint
{
    Index m, n, k;
    std::string backend;
    long long threads;
    double wallMs;
    double gflops;
};

/** Best-of-3 wall time for one gemm() call on the active backend. */
double
timeGemmMs(const tensor::Matrix &a, const tensor::Matrix &b,
           tensor::Matrix &c)
{
    double best = 1e30;
    tensor::gemm(a, b, c); // warm up the pool and the caches
    for (int rep = 0; rep < 3; ++rep) {
        bench::WallTimer t;
        tensor::gemm(a, b, c);
        best = std::min(best, t.seconds() * 1e3);
    }
    benchmark::DoNotOptimize(c.data());
    return best;
}

/**
 * Per-backend GEMM sweep: GFLOP/s for every available backend on a few
 * paper-relevant shapes, printed as GEMM lines and written to
 * BENCH_gemm.json so the repo's bench trajectory has machine-readable
 * data points.
 */
void
gemmBackendSweep()
{
    bench::experimentHeader(
        "gemm_backends",
        "micro-kernel GEMM GFLOP/s per backend (best of 3)");

    const struct
    {
        Index m, n, k;
    } shapes[] = {
        {256, 256, 256},
        {512, 512, 512},
        {3136, 64, 576}, // resnet conv3x3 56x56x64 lowered
    };
    const tensor::KernelBackend backends[] = {
        tensor::KernelBackend::Generic,
        tensor::KernelBackend::Avx2,
    };

    std::vector<GemmPoint> points;
    for (const auto &sh : shapes) {
        tensor::Matrix a(sh.m, sh.k), b(sh.k, sh.n), c(sh.m, sh.n);
        a.fillRandom(11);
        b.fillRandom(12);
        for (const auto backend : backends) {
            if (!tensor::kernelBackendAvailable(backend))
                continue;
            tensor::setKernelBackend(backend);
            GemmPoint pt;
            pt.m = sh.m;
            pt.n = sh.n;
            pt.k = sh.k;
            pt.backend = tensor::kernelBackendName(backend);
            pt.threads = static_cast<long long>(parallel::threads());
            pt.wallMs = timeGemmMs(a, b, c);
            pt.gflops = 2.0 * static_cast<double>(sh.m) *
                        static_cast<double>(sh.n) *
                        static_cast<double>(sh.k) /
                        (pt.wallMs * 1e6);
            std::printf("GEMM shape=%lldx%lldx%lld backend=%s "
                        "threads=%lld wall_ms=%.3f gflops=%.2f\n",
                        static_cast<long long>(pt.m),
                        static_cast<long long>(pt.n),
                        static_cast<long long>(pt.k),
                        pt.backend.c_str(), pt.threads, pt.wallMs,
                        pt.gflops);
            points.push_back(std::move(pt));
        }
    }
    tensor::resetKernelBackend();

    std::FILE *json = std::fopen("BENCH_gemm.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "could not write BENCH_gemm.json\n");
        return;
    }
    std::fprintf(json, "[\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const GemmPoint &pt = points[i];
        std::fprintf(
            json,
            "  {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
            "\"backend\": \"%s\", \"threads\": %lld, "
            "\"wall_ms\": %.3f, \"gflops\": %.2f}%s\n",
            static_cast<long long>(pt.m), static_cast<long long>(pt.n),
            static_cast<long long>(pt.k), pt.backend.c_str(),
            pt.threads, pt.wallMs, pt.gflops,
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("wrote BENCH_gemm.json (%zu points)\n", points.size());
}

} // namespace

int
main(int argc, char **argv)
{
    // The google-benchmark flags are operands; threads=N is the one
    // key.
    std::vector<std::string> flags;
    const Config args =
        bench::valueOrExit(Config::fromArgs(argc, argv, &flags));
    const long long threads =
        bench::valueOrExit(bench::positiveInt(args, "threads", 0));
    bench::exitIfError(args.checkAllRead());
    if (threads > 0)
        parallel::setThreads(threads);
    std::vector<char *> kept{argv[0]};
    for (std::string &flag : flags)
        kept.push_back(flag.data());
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data()))
        return 2;
    const bench::WallTimer wall;
    benchmark::RunSpecifiedBenchmarks();
    gemmBackendSweep();
    bench::printWallClock("bench_micro_kernels", wall);
    return 0;
}
