#include "tpusim/functional_core.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/trace.h"
#include "im2col/implicit_conv.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::tpusim {

FunctionalTpuCore::FunctionalTpuCore(Index array_rows, Index array_cols,
                                     Index word_elems)
    : arrayRows_(array_rows), arrayCols_(array_cols),
      wordElems_(word_elems)
{
    CFCONV_FATAL_IF(array_rows < 1 || array_cols < 1 || word_elems < 1,
                    "FunctionalTpuCore: bad configuration");
}

FunctionalRunResult
FunctionalTpuCore::runConv(const conv::Algorithm &algorithm,
                           const im2col::PassPlan &plan,
                           const ConvParams &params, const Tensor &input,
                           const Tensor &filter, Index tiles_per_group)
{
    tensor::checkInput(params, input);
    CFCONV_FATAL_IF(tiles_per_group < 1,
                    "FunctionalTpuCore: tiles_per_group must be >= 1");
    CFCONV_FATAL_IF(tiles_per_group > 1 &&
                        (!plan.mergeable ||
                         plan.tapDepth * tiles_per_group > arrayRows_),
                    "FunctionalTpuCore: %lld taps of depth %lld do not "
                    "merge into %lld array rows",
                    static_cast<long long>(tiles_per_group),
                    static_cast<long long>(plan.tapDepth),
                    static_cast<long long>(arrayRows_));
    CFCONV_FATAL_IF(params.outChannels > arrayCols_,
                    "FunctionalTpuCore: C_O exceeds array columns");

    const Index m_dim = params.gemmM();
    const Index w = wordElems_;
    const im2col::TapPointers point =
        algorithm.pointers(params, input, plan);
    const std::vector<tensor::ColCoord> cols =
        algorithm.columns(params, plan);

    FunctionalRunResult result{
        Tensor(params.batch, params.gemmN(), params.outH(), params.outW()),
        false, 0, 0, 0};

    systolic::SystolicArray array(arrayRows_, arrayCols_);

    // One simulated-cycles row for the array passes (serializer feeds)
    // and one for the de-serializer writebacks: the two phases overlap,
    // so they would collide on a single track. Tile-group rounds are
    // laid out back to back.
    TRACE_SCOPE_DYN("tpusim",
                    "functional conv " +
                        std::to_string(params.inChannels) + "->" +
                        std::to_string(params.outChannels));
    trace::SimTrack array_row;
    trace::SimTrack deser_row;
    if (trace::enabled()) {
        array_row = trace::simTrack("functional array");
        deser_row = trace::simTrack("functional de-serializer");
    }
    Cycles round_start = 0;
    double round = 0.0;

    for (const im2col::PlanPass &pass :
         plan.passes(arrayRows_, tiles_per_group)) {
        // The pass's merged operand (its taps' slices side by side,
        // M x k_dim) and weight block.
        const Matrix b =
            im2col::passWeights(params, filter, cols, plan, pass);
        const Index k_dim = pass.depth();
        std::vector<float> a(static_cast<size_t>(m_dim * k_dim));
        im2col::gatherPass(point, plan, pass, 0, m_dim, a.data());

        // One vector memory per active PE row. The IFMap occupies word
        // addresses [0, words_in); the OFMap region starts above it.
        const Index words_in = divCeil(m_dim, w);
        sram::VectorMemoryConfig vm_cfg;
        vm_cfg.wordElems = w;
        vm_cfg.elemBytes = 4;
        vm_cfg.capacityBytes =
            static_cast<Bytes>(2 * words_in * w) * vm_cfg.elemBytes;
        std::vector<sram::VectorMemory> vmems;
        vmems.reserve(static_cast<size_t>(arrayRows_));
        for (Index i = 0; i < arrayRows_; ++i)
            vmems.emplace_back(vm_cfg);

        // Prefill: vector memory k holds column k of the merged operand
        // (its channel/tile lane), in HWCN word order.
        for (Index k = 0; k < k_dim; ++k) {
            for (Index word = 0; word < words_in; ++word) {
                std::vector<float> data(static_cast<size_t>(w), 0.0f);
                for (Index e = 0; e < w; ++e) {
                    const Index m = word * w + e;
                    if (m < m_dim)
                        data[static_cast<size_t>(e)] =
                            a[static_cast<size_t>(m * k_dim + k)];
                }
                vmems[static_cast<size_t>(k)].writeWord(word, data, 0);
            }
        }
        for (auto &vm : vmems)
            vm.resetStats();

        array.loadWeights(b);

        // Serializer state per row, plus the exact cycles each port is
        // busy with a read (for scheduling the interleaved writes).
        std::vector<std::vector<float>> ser_buf(
            static_cast<size_t>(k_dim));
        std::vector<std::set<Cycles>> busy(
            static_cast<size_t>(arrayRows_));

        systolic::ActivationProvider provider =
            [&](Index k, Cycles t) -> float {
            const Index m = static_cast<Index>(t) - k;
            if (k >= k_dim || m < 0 || m >= m_dim)
                return 0.0f;
            auto &buf = ser_buf[static_cast<size_t>(k)];
            if (m % w == 0) {
                buf = vmems[static_cast<size_t>(k)].readWord(m / w, t);
                busy[static_cast<size_t>(k)].insert(t);
            }
            return buf[static_cast<size_t>(m % w)];
        };

        const Matrix out = array.runWithProvider(provider, m_dim);
        const Cycles group_cycles = array.lastRunCycles();
        result.cycles += group_cycles;

        // De-serializer: output column j (of array column j) produces
        // C[m][j] at cycle m + j + k_dim - 1; after w results a word
        // write is due. Schedule each write at the first port-free cycle
        // at or after it becomes ready. Column j's results are stored in
        // vector memory j % arrayRows_ above the IFMap region.
        Cycles deser_last = 0;
        for (Index j = 0; j < b.cols(); ++j) {
            const Index target = j % arrayRows_;
            auto &busy_set = busy[static_cast<size_t>(target)];
            for (Index word = 0; word < words_in; ++word) {
                const Index m_last =
                    std::min(word * w + w - 1, m_dim - 1);
                Cycles ready = static_cast<Cycles>(
                    m_last + j + k_dim - 1) + 1;
                while (busy_set.count(ready))
                    ++ready;
                busy_set.insert(ready);
                deser_last = std::max(deser_last, ready);

                std::vector<float> data(static_cast<size_t>(w), 0.0f);
                for (Index e = 0; e < w; ++e) {
                    const Index m = word * w + e;
                    if (m < m_dim)
                        data[static_cast<size_t>(e)] = out.at(m, j);
                }
                const Index dest = words_in + (j / arrayRows_) * words_in
                                   + word;
                vmems[static_cast<size_t>(target)].writeWord(
                    dest % vm_cfg.words(), data, ready);
            }
        }

        bool group_conflict = false;
        for (const auto &vm : vmems) {
            group_conflict |= vm.hadPortConflict();
            result.vecMemReads += vm.readCount();
            result.vecMemWrites += vm.writeCount();
        }
        result.portConflict |= group_conflict;

        if (array_row.active()) {
            trace::simSpan(array_row, "array pass", round_start,
                           group_cycles,
                           {{"round", round},
                            {"k", static_cast<double>(k_dim)}});
            trace::simSpan(deser_row, "de-serialize", round_start,
                           deser_last);
            if (group_conflict)
                trace::simInstant(deser_row, "port conflict",
                                  round_start + deser_last);
        }
        round_start += std::max(group_cycles, deser_last);
        round += 1.0;

        // Partial-sum accumulation across tile groups, straight into
        // the NCHW OFMap: one add per element per pass, in pass order.
        tensor::RowCoord rc = tensor::rowCoord(params, 0);
        for (Index m = 0; m < m_dim; ++m, tensor::nextRow(params, rc))
            for (Index co = 0; co < params.gemmN(); ++co)
                result.output.at(rc.n, co, rc.oh, rc.ow) += out.at(m, co);
    }
    return result;
}

} // namespace cfconv::tpusim
