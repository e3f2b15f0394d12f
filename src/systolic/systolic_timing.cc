#include "systolic/systolic_timing.h"

#include <algorithm>

#include "common/logging.h"

namespace cfconv::systolic {

Cycles
passCycles(const SystolicConfig &config, Index m, Index k, Index n)
{
    CFCONV_FATAL_IF(m < 1 || k < 1 || n < 1,
                    "passCycles: non-positive GEMM dims");
    CFCONV_FATAL_IF(k > config.rows || n > config.cols,
                    "passCycles: tile (%lldx%lld) exceeds array",
                    static_cast<long long>(k),
                    static_cast<long long>(n));
    return static_cast<Cycles>(m + k + n - 1);
}

PassTiming
gemmTiming(const SystolicConfig &config, Index m, Index k, Index n)
{
    CFCONV_FATAL_IF(m < 1 || k < 1 || n < 1,
                    "gemmTiming: non-positive GEMM dims");
    PassTiming t;
    for (Index k0 = 0; k0 < k; k0 += config.rows) {
        const Index kt = std::min(config.rows, k - k0);
        for (Index n0 = 0; n0 < n; n0 += config.cols) {
            const Index nt = std::min(config.cols, n - n0);
            t.cycles += passCycles(config, m, kt, nt);
            t.macs += static_cast<Flops>(m) * static_cast<Flops>(kt) *
                      static_cast<Flops>(nt);
        }
    }
    const double capacity = static_cast<double>(t.cycles) *
                            static_cast<double>(config.rows) *
                            static_cast<double>(config.cols);
    t.utilization =
        capacity > 0.0 ? static_cast<double>(t.macs) / capacity : 0.0;
    return t;
}

} // namespace cfconv::systolic
