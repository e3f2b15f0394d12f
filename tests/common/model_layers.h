/** @file The layer set the every-variant suites walk: the distinct
 *  (geometry, groups) pairs of ResNet-50, MobileNet-v1 and AlexNet at
 *  batch 1 -- 3x3, 1x1, 7x7 and 11x11 filters, strides 1, 2 and 4,
 *  and depthwise layers. */

#ifndef CFCONV_TESTS_COMMON_MODEL_LAYERS_H
#define CFCONV_TESTS_COMMON_MODEL_LAYERS_H

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "models/model_zoo.h"

namespace cfconv {

/** The distinct (layer, groups) pairs of ResNet-50, MobileNet-v1 and
 *  AlexNet at batch 1. */
inline std::vector<models::ConvLayerSpec>
distinctModelLayers()
{
    std::vector<models::ConvLayerSpec> layers;
    std::set<std::pair<std::string, Index>> seen;
    for (const models::ModelSpec &model :
         {models::resnet50(1), models::mobilenetv1(1),
          models::alexnet(1)}) {
        for (const models::ConvLayerSpec &layer : model.layers)
            if (seen.insert({layer.params.toString(), layer.groups})
                    .second)
                layers.push_back(layer);
    }
    return layers;
}

} // namespace cfconv

#endif // CFCONV_TESTS_COMMON_MODEL_LAYERS_H
