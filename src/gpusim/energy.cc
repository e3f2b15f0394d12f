#include "gpusim/energy.h"

#include "sram/energy_model.h"

namespace cfconv::gpusim {

GpuEnergyReport
kernelEnergy(const GpuKernelResult &result)
{
    GpuEnergyReport e;
    e.dramPj = static_cast<double>(result.dramBytes) *
               sram::kDramPjPerByte;

    // The shared-memory fill pipeline drains L2 at kL2GBps * kL2Util for
    // the breakdown's fill time; that product is the bytes the TBs
    // pulled on chip (DRAM misses are already billed above).
    const double l2_bytes = result.breakdown.fill * kL2GBps * 1e9 * kL2Util;
    e.l2Pj = l2_bytes * kL2PjPerByte;

    const double macs = result.tflops * 1e12 * result.seconds / 2.0;
    e.macPj = macs * kGpuMacPj;

    e.totalPj = e.dramPj + e.l2Pj + e.macPj;
    e.pjPerMac = macs > 0.0 ? e.totalPj / macs : 0.0;
    return e;
}

} // namespace cfconv::gpusim
