/** @file The awkward-shape zoo shared by the conv::Algorithm and
 *  host-engine suites: every way a lowering scheme tends to get the
 *  address arithmetic wrong (stride 2/3, dilation 2, asymmetric
 *  padding, rectangular kernels, 1x1 and 7x7 filters), plus the edges
 *  of the host engine's 32-row work units and 8x8 tiles (ragged tiles,
 *  tiles that cross an image) and a 360-deep K, one long chain per
 *  tile. Sizes are small so the full matrix (shapes x algorithms x
 *  thread counts x kernel backends) stays fast. */

#ifndef CFCONV_TESTS_CONV_AWKWARD_SHAPES_H
#define CFCONV_TESTS_CONV_AWKWARD_SHAPES_H

#include <vector>

#include "tensor/conv_params.h"

namespace cfconv::conv {

inline std::vector<tensor::ConvParams>
awkwardShapes()
{
    using tensor::makeConv;
    using tensor::makeConvRect;
    return {
        makeConv(2, 6, 8, 6, 3, 1, 1),  // unit-stride 3x3 (all algos)
        makeConv(2, 5, 9, 4, 3, 2, 1),  // stride 2
        makeConv(1, 3, 11, 2, 3, 3, 1), // stride 3
        makeConv(1, 4, 9, 3, 3, 1, 2, 2), // dilation 2
        // Rectangular 3x5 kernel, stride 1x2, asymmetric pad 2x1.
        makeConvRect(1, 3, 8, 10, 4, 3, 5, 1, 2, 2, 1),
        makeConv(2, 8, 7, 6, 1),        // pointwise 1x1
        makeConv(1, 3, 15, 4, 7, 2, 3), // 7x7, stride 2
        // gemmM 338: ten full work units and a ragged tail, with tiles
        // that cross a batch boundary; C_O 5 is a partial 8-column tile.
        makeConv(2, 3, 13, 5, 3, 1, 1),
        makeConv(1, 3, 33, 7, 3, 2, 1), // gemmM 289 at stride 2
        makeConv(1, 5, 2, 6, 3, 1, 1),  // gemmM 4: under one 8-row tile
        makeConv(1, 40, 6, 13, 3, 1, 1), // gemmK 360
        // One input row, pad 1: taps r = 0 and r = 2 are all halo in
        // every row of every work unit (gemmM 150).
        makeConvRect(1, 3, 1, 150, 4, 3, 3, 1, 1, 1, 1),
    };
}

} // namespace cfconv::conv

#endif // CFCONV_TESTS_CONV_AWKWARD_SHAPES_H
