#include "hw/deployment.hpp"

#include <cstdint>
#include <fstream>

#include "core/fake_quant.hpp"
#include "core/uniform_quant.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"

namespace mrq {

namespace {

constexpr std::uint32_t kMagic = 0x4d52'5144; // "MRQD"

/** Budget ladder of a (possibly partial) group. */
std::vector<std::size_t>
groupLadder(const std::vector<std::size_t>& ladder, std::size_t g,
            std::size_t len)
{
    std::vector<std::size_t> scaled;
    scaled.reserve(ladder.size());
    for (std::size_t alpha : ladder)
        scaled.push_back(scaledGroupBudget(alpha, g, len));
    return scaled;
}

/** Pack one weight matrix into row-major groups. */
LayerImage
packLayer(const std::string& name, const Tensor& w, float clip, int bits,
          std::size_t g, const std::vector<std::size_t>& ladder,
          const PackedTermFormat& fmt)
{
    require(w.rank() >= 2, "DeploymentImage: rank-2+ weights required");
    LayerImage layer;
    layer.name = name;
    layer.rows = w.dim(0);
    layer.rowLen = w.size() / w.dim(0);

    UniformQuantizer uq;
    uq.bits = bits;
    uq.clip = clip;
    uq.isSigned = true;
    layer.scale = uq.scale();

    std::vector<std::int64_t> vals;
    for (std::size_t row = 0; row < layer.rows; ++row) {
        for (std::size_t base = 0; base < layer.rowLen; base += g) {
            const std::size_t len = std::min(g, layer.rowLen - base);
            vals.clear();
            for (std::size_t i = 0; i < len; ++i)
                vals.push_back(
                    uq.quantize(w[row * layer.rowLen + base + i]));
            const auto rungs = groupLadder(ladder, g, len);
            MultiResGroup group(vals, rungs.back());
            layer.groups.emplace_back(group, rungs, fmt);
        }
    }
    return layer;
}

void
writeU32(std::ofstream& out, std::uint32_t v)
{
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/** Read @p n raw bytes; a short read (truncated image) is fatal. */
void
readRaw(std::ifstream& in, void* dst, std::size_t n)
{
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    require(in.good(), "DeploymentImage::load: truncated image");
}

std::uint32_t
readU32(std::ifstream& in)
{
    std::uint32_t v = 0;
    readRaw(in, &v, sizeof(v));
    return v;
}

void
writeBytes(std::ofstream& out, const std::vector<std::uint8_t>& bytes)
{
    writeU32(out, static_cast<std::uint32_t>(bytes.size()));
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A length-prefixed byte field; the length may not run past the
 *  @p end of the file, so a corrupt one cannot drive the allocation. */
std::vector<std::uint8_t>
readBytes(std::ifstream& in, std::streamoff end)
{
    const std::uint32_t len = readU32(in);
    require(len <= end - static_cast<std::streamoff>(in.tellg()),
            "DeploymentImage::load: corrupt byte length");
    std::vector<std::uint8_t> bytes(len);
    readRaw(in, bytes.data(), len);
    return bytes;
}

} // namespace

DeploymentImage
DeploymentImage::build(Sequential& model, int bits, std::size_t group_size,
                       std::vector<std::size_t> ladder,
                       const PackedTermFormat& fmt)
{
    require(!ladder.empty(), "DeploymentImage: empty budget ladder");
    DeploymentImage image;
    image.bits_ = bits;
    image.groupSize_ = group_size;
    image.ladder_ = std::move(ladder);
    image.fmt_ = fmt;

    for (std::size_t i = 0; i < model.size(); ++i) {
        Module* child = model.child(i);
        if (auto* conv = dynamic_cast<Conv2d*>(child)) {
            image.layers_.push_back(packLayer(
                "conv@" + std::to_string(i), conv->weight().value,
                conv->quantizer().clip(), bits, group_size,
                image.ladder_, fmt));
        } else if (auto* lin = dynamic_cast<Linear*>(child)) {
            image.layers_.push_back(packLayer(
                "linear@" + std::to_string(i), lin->weight().value,
                lin->quantizer().clip(), bits, group_size,
                image.ladder_, fmt));
        }
    }
    require(!image.layers_.empty(),
            "DeploymentImage: model has no packable layers");
    return image;
}

std::vector<std::int64_t>
DeploymentImage::layerWeights(std::size_t layer, std::size_t alpha) const
{
    require(layer < layers_.size(), "DeploymentImage: layer ", layer,
            " out of range");
    const LayerImage& img = layers_[layer];
    std::vector<std::int64_t> out(img.rows * img.rowLen, 0);

    const std::size_t groups_per_row =
        (img.rowLen + groupSize_ - 1) / groupSize_;
    for (std::size_t row = 0; row < img.rows; ++row) {
        for (std::size_t q = 0; q < groups_per_row; ++q) {
            const std::size_t base = q * groupSize_;
            const std::size_t len =
                std::min(groupSize_, img.rowLen - base);
            const std::size_t budget =
                scaledGroupBudget(alpha, groupSize_, len);
            const auto vals =
                img.groups[row * groups_per_row + q].decode(budget);
            for (std::size_t i = 0; i < len; ++i)
                out[row * img.rowLen + base + i] = vals[i];
        }
    }
    return out;
}

std::size_t
DeploymentImage::storageBits() const
{
    std::size_t bits = 0;
    for (const LayerImage& layer : layers_)
        for (const PackedGroup& group : layer.groups)
            bits += group.storageBits();
    return bits;
}

std::size_t
DeploymentImage::memoryEntriesFor(std::size_t alpha) const
{
    std::size_t entries = 0;
    for (const LayerImage& layer : layers_) {
        const std::size_t groups_per_row =
            (layer.rowLen + groupSize_ - 1) / groupSize_;
        for (std::size_t row = 0; row < layer.rows; ++row) {
            for (std::size_t q = 0; q < groups_per_row; ++q) {
                const std::size_t base = q * groupSize_;
                const std::size_t len =
                    std::min(groupSize_, layer.rowLen - base);
                const std::size_t budget =
                    scaledGroupBudget(alpha, groupSize_, len);
                const PackedGroup& group =
                    layer.groups[row * groups_per_row + q];
                entries += group.termEntriesFor(budget) +
                           group.indexEntriesFor(budget);
            }
        }
    }
    return entries;
}

void
DeploymentImage::save(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    require(out.good(), "DeploymentImage::save: cannot open '", path,
            "'");
    writeU32(out, kMagic);
    writeU32(out, static_cast<std::uint32_t>(bits_));
    writeU32(out, static_cast<std::uint32_t>(groupSize_));
    writeU32(out, static_cast<std::uint32_t>(ladder_.size()));
    for (std::size_t rung : ladder_)
        writeU32(out, static_cast<std::uint32_t>(rung));
    writeU32(out, static_cast<std::uint32_t>(layers_.size()));
    for (const LayerImage& layer : layers_) {
        writeU32(out, static_cast<std::uint32_t>(layer.name.size()));
        out.write(layer.name.data(),
                  static_cast<std::streamsize>(layer.name.size()));
        writeU32(out, static_cast<std::uint32_t>(layer.rows));
        writeU32(out, static_cast<std::uint32_t>(layer.rowLen));
        out.write(reinterpret_cast<const char*>(&layer.scale),
                  sizeof(layer.scale));
        writeU32(out, static_cast<std::uint32_t>(layer.groups.size()));
        for (const PackedGroup& group : layer.groups) {
            writeU32(out, static_cast<std::uint32_t>(group.groupSize()));
            writeBytes(out, group.packedTerms());
            writeBytes(out, group.packedIndexes());
        }
    }
    require(out.good(), "DeploymentImage::save: write failed");
}

DeploymentImage
DeploymentImage::load(const std::string& path, const PackedTermFormat& fmt)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    require(in.good(), "DeploymentImage::load: cannot open '", path, "'");
    const std::streamoff end = in.tellg();
    in.seekg(0);
    require(readU32(in) == kMagic,
            "DeploymentImage::load: '", path, "' is not an image file");

    DeploymentImage image;
    image.fmt_ = fmt;
    image.bits_ = static_cast<int>(readU32(in));
    image.groupSize_ = readU32(in);
    require(image.groupSize_ >= 1 &&
                image.groupSize_ <= (std::size_t{1} << fmt.indexBits),
            "DeploymentImage::load: group size ", image.groupSize_,
            " outside [1, 2^", fmt.indexBits, "]");
    const std::uint32_t rungs = readU32(in);
    require(rungs > 0 && rungs < 64, "DeploymentImage::load: bad ladder");
    for (std::uint32_t i = 0; i < rungs; ++i)
        image.ladder_.push_back(readU32(in));

    const std::uint32_t n_layers = readU32(in);
    require(n_layers > 0 && n_layers < (1u << 16),
            "DeploymentImage::load: bad layer count");
    for (std::uint32_t l = 0; l < n_layers; ++l) {
        LayerImage layer;
        const std::uint32_t name_len = readU32(in);
        require(name_len < 1024, "DeploymentImage::load: bad name");
        layer.name.resize(name_len);
        readRaw(in, layer.name.data(), name_len);
        layer.rows = readU32(in);
        layer.rowLen = readU32(in);
        readRaw(in, &layer.scale, sizeof(layer.scale));
        const std::uint32_t n_groups = readU32(in);
        const std::size_t groups_per_row =
            (layer.rowLen + image.groupSize_ - 1) / image.groupSize_;
        require(n_groups == layer.rows * groups_per_row,
                "DeploymentImage::load: group count mismatch");
        for (std::uint32_t q = 0; q < n_groups; ++q) {
            // Each group stores its column's member count: g, or the
            // row's remainder for the tail group.
            const std::size_t col = q % groups_per_row;
            const std::size_t len = std::min(
                image.groupSize_, layer.rowLen - col * image.groupSize_);
            require(readU32(in) == len,
                    "DeploymentImage::load: group size mismatch");
            auto terms = readBytes(in, end);
            auto indexes = readBytes(in, end);
            for (std::uint8_t field : terms)
                require((field >> 1) < (1u << fmt.exponentBits),
                        "DeploymentImage::load: term exponent out of "
                        "range");
            // Tail groups carry proportionally scaled rungs.
            std::vector<std::size_t> rung_ladder;
            for (std::size_t rung : image.ladder_)
                rung_ladder.push_back(
                    scaledGroupBudget(rung, image.groupSize_, len));
            layer.groups.emplace_back(len, rung_ladder, fmt,
                                      std::move(terms),
                                      std::move(indexes));
        }
        image.layers_.push_back(std::move(layer));
    }
    return image;
}

} // namespace mrq
