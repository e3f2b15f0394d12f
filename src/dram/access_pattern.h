/**
 * @file
 * DRAM access-stream builders: translate "fill the on-chip memory for
 * this tile" into the burst sequence the memory controller sees, for each
 * IFMap DRAM layout. Reproduces the CHW-vs-HWC contrast of Fig 7.
 */

#ifndef CFCONV_DRAM_ACCESS_PATTERN_H
#define CFCONV_DRAM_ACCESS_PATTERN_H

#include <vector>

#include "dram/dram_model.h"
#include "im2col/filter_decomp.h"
#include "tensor/conv_params.h"
#include "tensor/layout.h"

namespace cfconv::dram {

using im2col::FilterTile;
using tensor::ConvParams;
using tensor::Layout;

/**
 * Burst stream for loading the channel-first footprint of decomposed
 * tile @p tile from an IFMap stored in @p layout, for batch size
 * params.batch: one request per footprint row (the layout's innermost
 * loop). Positions at most one 32-byte transaction apart coalesce
 * into one burst, merging with the previous row's last request too;
 * a row of positions further apart is one strided run.
 */
std::vector<Request> tileFillStream(const ConvParams &params,
                                    const FilterTile &tile,
                                    Layout layout);

/** Bytes every request of every run in @p stream moves. */
Bytes streamBytes(const std::vector<Request> &stream);

} // namespace cfconv::dram

#endif // CFCONV_DRAM_ACCESS_PATTERN_H
