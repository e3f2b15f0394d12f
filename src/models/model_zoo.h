/**
 * @file
 * Convolution-layer shape zoo for the seven CNNs the paper benchmarks
 * (Sec. VI): AlexNet, DenseNet-121, GoogleNet, ResNet-50, VGG16, YOLOv2,
 * and ZFNet, at ImageNet-scale input resolutions. The experiments consume
 * layer shapes only; no pixel data is involved.
 */

#ifndef CFCONV_MODELS_MODEL_ZOO_H
#define CFCONV_MODELS_MODEL_ZOO_H

#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/conv_params.h"

namespace cfconv::models {

using tensor::ConvParams;

/** One (possibly repeated) convolution layer of a CNN. */
struct ConvLayerSpec
{
    std::string name;  ///< layer name, e.g. "conv2_x.3x3"
    ConvParams params; ///< layer geometry (full C_I/C_O of all groups)
    Index count = 1;   ///< how many times the shape occurs in the model
    Index groups = 1;  ///< grouped convolution factor (C_I for depthwise)

    /** MAC FLOPs of one instance, accounting for grouping
     *  (tensor::groupedFlops()). */
    Flops flops() const;
};

/** A named collection of convolution layers. */
struct ModelSpec
{
    std::string name;
    std::vector<ConvLayerSpec> layers;

    /** Total conv FLOPs (counting repetitions). */
    Flops totalFlops() const;
    /** Total IFMap bytes across layers (counting repetitions). */
    Bytes totalInputBytes() const;
    /** Total explicit-im2col lowered-matrix bytes across layers. */
    Bytes totalLoweredBytes() const;
    /** Number of layer instances (counting repetitions). */
    Index layerInstances() const;
};

ModelSpec alexnet(Index batch);
ModelSpec mobilenetv1(Index batch);
ModelSpec zfnet(Index batch);
ModelSpec vgg16(Index batch);
ModelSpec resnet50(Index batch);
ModelSpec googlenet(Index batch);
ModelSpec densenet121(Index batch);
ModelSpec yolov2(Index batch);

/** All seven models at @p batch, in the paper's presentation order. */
std::vector<ModelSpec> allModels(Index batch);

using ModelFactory = ModelSpec (*)(Index batch);

/** A zoo model under its factory's name, e.g. "resnet50". */
struct NamedModel
{
    const char *name;
    ModelFactory factory;
};

/** allModels()'s seven in its order, then MobileNetV1. */
inline constexpr NamedModel kModels[] = {
    {"alexnet", &alexnet},   {"densenet121", &densenet121},
    {"googlenet", &googlenet}, {"resnet50", &resnet50},
    {"vgg16", &vgg16},       {"yolov2", &yolov2},
    {"zfnet", &zfnet},       {"mobilenetv1", &mobilenetv1},
};

/**
 * The factory of the zoo model @p name names: its factory name
 * ("resnet50") or, in any case, its ModelSpec::name ("ResNet",
 * "resnet"). NOT_FOUND listing the factory names otherwise.
 */
StatusOr<ModelFactory> findModel(const std::string &name);

/**
 * The "representative ResNet layers (W_I, C_I, C_O, W_F)" of Fig 4 /
 * Fig 18, with the stride left at 1 for the caller to vary.
 */
std::vector<ConvLayerSpec> resnetRepresentativeLayers(Index batch);

/**
 * All strided (stride > 1) conv layers across the zoo, for the Fig 18a
 * strided-convolution study.
 */
std::vector<ConvLayerSpec> stridedLayers(Index batch);

} // namespace cfconv::models

#endif // CFCONV_MODELS_MODEL_ZOO_H
