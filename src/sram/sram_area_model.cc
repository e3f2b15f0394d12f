#include "sram/sram_area_model.h"

#include <algorithm>

#include "common/logging.h"

namespace cfconv::sram {

namespace {

// Relative area at 256 KB: A(w) = base + row/w + col*w, where w is the
// word size in elements. Calibration to the paper's anchors (A(1) = 5
// units, A(1)/A(8) = 3.2 => A(8) = 1.5625):
//   base + row + col       = 5
//   base + row/8 + 8*col   = 1.5625
// with col chosen (0.012) so the minimum falls in the 16-32 element
// range (area flattens out for large words, Fig 16b):
//   row = 4.0246, base = 0.9634.
constexpr double kBase = 0.9634;
constexpr double kRowCoeff = 4.0246;
constexpr double kColCoeff = 0.012;
// Scale: a well-organized (w = 16) 256 KB macro in a 45 nm process is
// on the order of 1.2 mm^2.
constexpr double kMm2PerUnit =
    1.2 / (kBase + kRowCoeff / 16.0 + kColCoeff * 16.0);

} // namespace

double
SramAreaModel::areaMm2(Bytes capacity_bytes, Index word_elems) const
{
    CFCONV_FATAL_IF(word_elems < 1, "SramAreaModel: word size < 1");
    CFCONV_FATAL_IF(capacity_bytes == 0, "SramAreaModel: zero capacity");
    const double w = static_cast<double>(word_elems);
    const double rel = kBase + kRowCoeff / w + kColCoeff * w;
    // Bit-cell area scales linearly in capacity; periphery terms are
    // already expressed relative to the 256 KB calibration point.
    const double capacity_scale =
        static_cast<double>(capacity_bytes) / (256.0 * 1024.0);
    return rel * kMm2PerUnit * capacity_scale;
}

double
SramAreaModel::relativeArea(Bytes capacity_bytes, Index word_elems) const
{
    const Index best = bestWordElems(capacity_bytes);
    return areaMm2(capacity_bytes, word_elems) /
           areaMm2(capacity_bytes, best);
}

Index
SramAreaModel::bestWordElems(Bytes capacity_bytes) const
{
    Index best = 1;
    double best_area = areaMm2(capacity_bytes, 1);
    for (Index w = 2; w <= 64; w *= 2) {
        const double a = areaMm2(capacity_bytes, w);
        if (a < best_area) {
            best_area = a;
            best = w;
        }
    }
    return best;
}

} // namespace cfconv::sram
