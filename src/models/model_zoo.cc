#include "models/model_zoo.h"

#include <strings.h>

#include "common/logging.h"

namespace cfconv::models {

namespace {

/** Shorthand for appending one (count-repeated) square conv layer. */
void
add(ModelSpec &m, const std::string &name, Index batch, Index ci,
    Index hw, Index co, Index k, Index s = 1, Index p = 0,
    Index count = 1)
{
    ConvLayerSpec layer;
    layer.name = name;
    layer.params = tensor::makeConv(batch, ci, hw, co, k, s, p);
    layer.count = count;
    m.layers.push_back(std::move(layer));
}

} // namespace

Flops
ConvLayerSpec::flops() const
{
    return tensor::groupedFlops(params, groups);
}

Flops
ModelSpec::totalFlops() const
{
    Flops total = 0;
    for (const auto &l : layers)
        total += l.flops() * static_cast<Flops>(l.count);
    return total;
}

Bytes
ModelSpec::totalInputBytes() const
{
    Bytes total = 0;
    for (const auto &l : layers)
        total += l.params.inputBytes() * static_cast<Bytes>(l.count);
    return total;
}

Bytes
ModelSpec::totalLoweredBytes() const
{
    Bytes total = 0;
    for (const auto &l : layers)
        total += l.params.loweredBytes() * static_cast<Bytes>(l.count);
    return total;
}

Index
ModelSpec::layerInstances() const
{
    Index total = 0;
    for (const auto &l : layers)
        total += l.count;
    return total;
}

ModelSpec
alexnet(Index batch)
{
    ModelSpec m{"AlexNet", {}};
    add(m, "conv1", batch, 3, 227, 96, 11, 4, 0);
    add(m, "conv2", batch, 96, 27, 256, 5, 1, 2);
    add(m, "conv3", batch, 256, 13, 384, 3, 1, 1);
    add(m, "conv4", batch, 384, 13, 384, 3, 1, 1);
    add(m, "conv5", batch, 384, 13, 256, 3, 1, 1);
    return m;
}

ModelSpec
mobilenetv1(Index batch)
{
    // MobileNetV1 (1.0x, 224): alternating depthwise 3x3 and
    // pointwise 1x1 blocks. Depthwise layers carry groups = C_I.
    ModelSpec m{"MobileNet", {}};
    add(m, "conv1", batch, 3, 224, 32, 3, 2, 1);
    struct Block { Index ci, hw, co, stride, count; };
    const Block blocks[] = {
        {32, 112, 64, 1, 1},   {64, 112, 128, 2, 1},
        {128, 56, 128, 1, 1},  {128, 56, 256, 2, 1},
        {256, 28, 256, 1, 1},  {256, 28, 512, 2, 1},
        {512, 14, 512, 1, 5},  {512, 14, 1024, 2, 1},
        {1024, 7, 1024, 1, 1},
    };
    int idx = 0;
    for (const Block &b : blocks) {
        const std::string base = "dw" + std::to_string(++idx);
        ConvLayerSpec dw;
        dw.name = base + ".3x3dw";
        dw.params = tensor::makeConv(batch, b.ci, b.hw, b.ci, 3,
                                     b.stride, 1);
        dw.groups = b.ci;
        dw.count = b.count;
        m.layers.push_back(std::move(dw));
        const Index hw_out = b.stride == 1 ? b.hw : b.hw / b.stride;
        add(m, base + ".1x1", batch, b.ci, hw_out, b.co, 1, 1, 0,
            b.count);
    }
    return m;
}

ModelSpec
zfnet(Index batch)
{
    ModelSpec m{"ZFNet", {}};
    add(m, "conv1", batch, 3, 224, 96, 7, 2, 1);
    add(m, "conv2", batch, 96, 55, 256, 5, 2, 0);
    add(m, "conv3", batch, 256, 13, 384, 3, 1, 1);
    add(m, "conv4", batch, 384, 13, 384, 3, 1, 1);
    add(m, "conv5", batch, 384, 13, 256, 3, 1, 1);
    return m;
}

ModelSpec
vgg16(Index batch)
{
    ModelSpec m{"VGG16", {}};
    add(m, "conv1_1", batch, 3, 224, 64, 3, 1, 1);
    add(m, "conv1_2", batch, 64, 224, 64, 3, 1, 1);
    add(m, "conv2_1", batch, 64, 112, 128, 3, 1, 1);
    add(m, "conv2_2", batch, 128, 112, 128, 3, 1, 1);
    add(m, "conv3_1", batch, 128, 56, 256, 3, 1, 1);
    add(m, "conv3_2", batch, 256, 56, 256, 3, 1, 1, 2);
    add(m, "conv4_1", batch, 256, 28, 512, 3, 1, 1);
    add(m, "conv4_2", batch, 512, 28, 512, 3, 1, 1, 2);
    add(m, "conv5_x", batch, 512, 14, 512, 3, 1, 1, 3);
    return m;
}

ModelSpec
resnet50(Index batch)
{
    ModelSpec m{"ResNet", {}};
    add(m, "conv1", batch, 3, 224, 64, 7, 2, 3);

    // Bottleneck stages: (in, mid, out, spatial, blocks). The first
    // block of stages 3-5 downsamples with a strided 3x3 and a strided
    // 1x1 projection.
    struct Stage { Index in, mid, out, hw, blocks, stride; };
    const Stage stages[] = {
        {64, 64, 256, 56, 3, 1},
        {256, 128, 512, 56, 4, 2},
        {512, 256, 1024, 28, 6, 2},
        {1024, 512, 2048, 14, 3, 2},
    };
    int idx = 2;
    for (const Stage &st : stages) {
        const std::string base = "conv" + std::to_string(idx) + "_";
        const Index hw_out = st.stride == 1 ? st.hw : st.hw / st.stride;
        // First block (with projection).
        add(m, base + "b1.1x1a", batch, st.in, st.hw, st.mid, 1, 1, 0);
        add(m, base + "b1.3x3", batch, st.mid, st.hw, st.mid, 3,
            st.stride, 1);
        add(m, base + "b1.1x1b", batch, st.mid, hw_out, st.out, 1, 1, 0);
        add(m, base + "b1.proj", batch, st.in, st.hw, st.out, 1,
            st.stride, 0);
        // Remaining blocks.
        if (st.blocks > 1) {
            add(m, base + "bN.1x1a", batch, st.out, hw_out, st.mid, 1, 1,
                0, st.blocks - 1);
            add(m, base + "bN.3x3", batch, st.mid, hw_out, st.mid, 3, 1,
                1, st.blocks - 1);
            add(m, base + "bN.1x1b", batch, st.mid, hw_out, st.out, 1, 1,
                0, st.blocks - 1);
        }
        ++idx;
    }
    return m;
}

ModelSpec
googlenet(Index batch)
{
    ModelSpec m{"GoogleNet", {}};
    add(m, "conv1", batch, 3, 224, 64, 7, 2, 3);
    add(m, "conv2.red", batch, 64, 56, 64, 1, 1, 0);
    add(m, "conv2", batch, 64, 56, 192, 3, 1, 1);

    struct Inception
    {
        const char *name;
        Index in, hw, b1, b3r, b3, b5r, b5, pp;
    };
    const Inception blocks[] = {
        {"3a", 192, 28, 64, 96, 128, 16, 32, 32},
        {"3b", 256, 28, 128, 128, 192, 32, 96, 64},
        {"4a", 480, 14, 192, 96, 208, 16, 48, 64},
        {"4b", 512, 14, 160, 112, 224, 24, 64, 64},
        {"4c", 512, 14, 128, 128, 256, 24, 64, 64},
        {"4d", 512, 14, 112, 144, 288, 32, 64, 64},
        {"4e", 528, 14, 256, 160, 320, 32, 128, 128},
        {"5a", 832, 7, 256, 160, 320, 32, 128, 128},
        {"5b", 832, 7, 384, 192, 384, 48, 128, 128},
    };
    for (const auto &b : blocks) {
        const std::string base = std::string("inc") + b.name + ".";
        add(m, base + "1x1", batch, b.in, b.hw, b.b1, 1, 1, 0);
        add(m, base + "3x3r", batch, b.in, b.hw, b.b3r, 1, 1, 0);
        add(m, base + "3x3", batch, b.b3r, b.hw, b.b3, 3, 1, 1);
        add(m, base + "5x5r", batch, b.in, b.hw, b.b5r, 1, 1, 0);
        add(m, base + "5x5", batch, b.b5r, b.hw, b.b5, 5, 1, 2);
        add(m, base + "pool", batch, b.in, b.hw, b.pp, 1, 1, 0);
    }
    return m;
}

ModelSpec
densenet121(Index batch)
{
    ModelSpec m{"DenseNet", {}};
    add(m, "conv1", batch, 3, 224, 64, 7, 2, 3);

    const Index growth = 32;
    const Index block_layers[] = {6, 12, 24, 16};
    const Index spatial[] = {56, 28, 14, 7};
    Index channels = 64;
    for (int b = 0; b < 4; ++b) {
        const Index hw = spatial[b];
        for (Index j = 0; j < block_layers[b]; ++j) {
            const std::string base = "dense" + std::to_string(b + 1) +
                                     "." + std::to_string(j + 1);
            add(m, base + ".1x1", batch, channels, hw, 4 * growth, 1, 1,
                0);
            add(m, base + ".3x3", batch, 4 * growth, hw, growth, 3, 1, 1);
            channels += growth;
        }
        if (b < 3) {
            // Transition: 1x1 halving channels (followed by 2x2 pool).
            add(m, "trans" + std::to_string(b + 1), batch, channels, hw,
                channels / 2, 1, 1, 0);
            channels /= 2;
        }
    }
    return m;
}

ModelSpec
yolov2(Index batch)
{
    ModelSpec m{"YOLO", {}};
    add(m, "conv1", batch, 3, 416, 32, 3, 1, 1);
    add(m, "conv2", batch, 32, 208, 64, 3, 1, 1);
    add(m, "conv3", batch, 64, 104, 128, 3, 1, 1);
    add(m, "conv4", batch, 128, 104, 64, 1, 1, 0);
    add(m, "conv5", batch, 64, 104, 128, 3, 1, 1);
    add(m, "conv6", batch, 128, 52, 256, 3, 1, 1);
    add(m, "conv7", batch, 256, 52, 128, 1, 1, 0);
    add(m, "conv8", batch, 128, 52, 256, 3, 1, 1);
    add(m, "conv9", batch, 256, 26, 512, 3, 1, 1);
    add(m, "conv10", batch, 512, 26, 256, 1, 1, 0);
    add(m, "conv11", batch, 256, 26, 512, 3, 1, 1);
    add(m, "conv12", batch, 512, 26, 256, 1, 1, 0);
    add(m, "conv13", batch, 256, 26, 512, 3, 1, 1);
    add(m, "conv14", batch, 512, 13, 1024, 3, 1, 1);
    add(m, "conv15", batch, 1024, 13, 512, 1, 1, 0);
    add(m, "conv16", batch, 512, 13, 1024, 3, 1, 1);
    add(m, "conv17", batch, 1024, 13, 512, 1, 1, 0);
    add(m, "conv18", batch, 512, 13, 1024, 3, 1, 1);
    add(m, "conv19", batch, 1024, 13, 1024, 3, 1, 1);
    add(m, "conv20", batch, 1024, 13, 1024, 3, 1, 1);
    add(m, "conv21.pass", batch, 512, 26, 64, 1, 1, 0);
    add(m, "conv22", batch, 1280, 13, 1024, 3, 1, 1);
    add(m, "conv23", batch, 1024, 13, 425, 1, 1, 0);
    return m;
}

std::vector<ModelSpec>
allModels(Index batch)
{
    return {alexnet(batch),  densenet121(batch), googlenet(batch),
            resnet50(batch), vgg16(batch),       yolov2(batch),
            zfnet(batch)};
}

StatusOr<ModelFactory>
findModel(const std::string &name)
{
    std::string valid;
    for (const NamedModel &model : kModels) {
        if (name == model.name ||
            strcasecmp(name.c_str(), model.factory(1).name.c_str()) == 0)
            return model.factory;
        valid += (valid.empty() ? "" : ", ") + std::string(model.name);
    }
    return notFoundError("unknown model '%s' (valid: %s)", name.c_str(),
                         valid.c_str());
}

std::vector<ConvLayerSpec>
resnetRepresentativeLayers(Index batch)
{
    // Named by the paper's (W_I, C_I, C_O, W_F) convention.
    std::vector<ConvLayerSpec> layers;
    auto mk = [&](Index hw, Index ci, Index co, Index k) {
        ConvLayerSpec l;
        l.name = std::to_string(hw) + "," + std::to_string(ci) + "," +
                 std::to_string(co) + "," + std::to_string(k);
        l.params = tensor::makeConv(batch, ci, hw, co, k, 1, k / 2);
        layers.push_back(std::move(l));
    };
    mk(56, 64, 64, 3);
    mk(56, 128, 128, 3);
    mk(28, 128, 128, 3);
    mk(28, 256, 256, 3);
    mk(14, 256, 256, 3);
    mk(14, 512, 512, 3);
    return layers;
}

std::vector<ConvLayerSpec>
stridedLayers(Index batch)
{
    std::vector<ConvLayerSpec> out;
    for (const auto &model : allModels(batch)) {
        for (const auto &layer : model.layers) {
            if (layer.params.strideH > 1) {
                ConvLayerSpec l = layer;
                l.name = model.name + "." + layer.name;
                l.count = 1;
                out.push_back(std::move(l));
            }
        }
    }
    return out;
}

} // namespace cfconv::models
