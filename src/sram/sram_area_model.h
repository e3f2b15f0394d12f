/**
 * @file
 * Analytical SRAM area model (the CACTI/OpenRAM stand-in) for the word
 * size design-space study of Fig 16b. Calibrated to the paper's anchor
 * points at 256 KB capacity: a 4-byte word costs 3.2x the area of a
 * 32-byte word, and a 1-element word is ~5x the minimum.
 */

#ifndef CFCONV_SRAM_SRAM_AREA_MODEL_H
#define CFCONV_SRAM_SRAM_AREA_MODEL_H

#include "common/types.h"

namespace cfconv::sram {

/** Analytical area model for a single-port SRAM macro. */
class SramAreaModel
{
  public:
    /**
     * Area of a macro of @p capacity_bytes organized with words of
     * @p word_elems elements, in mm^2 (freepdk45-like scale).
     *
     * Components: bit cells (constant for fixed capacity), row periphery
     * (decoder + wordline drivers, ~1/word), and column periphery
     * (sense amps + write drivers + column mux, ~word).
     */
    double areaMm2(Bytes capacity_bytes, Index word_elems) const;

    /** Area relative to the minimum over word sizes in [1, 64]. */
    double relativeArea(Bytes capacity_bytes, Index word_elems) const;

    /** Word size (elements) minimizing area for @p capacity_bytes. */
    Index bestWordElems(Bytes capacity_bytes) const;
};

} // namespace cfconv::sram

#endif // CFCONV_SRAM_SRAM_AREA_MODEL_H
