/**
 * @file
 * Multi-resolution deployment images (Sec. 5.4 end to end).
 *
 * A DeploymentImage is what actually ships to an mMAC device: every
 * conv/linear layer's weights, packed once at the highest resolution
 * as increment-ordered term and index memories (Figs. 16-17), plus
 * the per-layer dequantization scale and the supported budget ladder.
 * Any sub-model's lattice weights reconstruct from a prefix of the
 * packed terms — no retraining, no repacking, no second copy.
 *
 * The image round-trips through a binary file, and reconstruction is
 * bit-identical to the training-side fake-quantizer's lattice
 * projection (asserted in tests/hw/test_deployment.cpp).
 */

#ifndef MRQ_HW_DEPLOYMENT_HPP
#define MRQ_HW_DEPLOYMENT_HPP

#include <string>
#include <vector>

#include "core/packed_storage.hpp"
#include "core/quant_config.hpp"
#include "nn/sequential.hpp"

namespace mrq {

/** One layer's packed weight memories. */
struct LayerImage
{
    std::string name;
    std::size_t rows = 0;    ///< Output rows (M).
    std::size_t rowLen = 0;  ///< Dot-product length (K).
    float scale = 0.0f;      ///< Lattice step (clip / qmax).

    /** Packed groups, row-major: rows x ceil(rowLen / g). */
    std::vector<PackedGroup> groups;
};

/** A packed, ladder-aware weight image of a whole model. */
class DeploymentImage
{
  public:
    /**
     * Pack a trained plain-Sequential model.
     *
     * @param model  Model whose Conv2d/Linear layers are packed.
     * @param bits   Lattice magnitude bitwidth b.
     * @param group_size Group size g.
     * @param ladder Ascending weight term budgets to support (full
     *               groups; tail groups get proportionally scaled
     *               rungs).
     * @param fmt    Packed field widths.
     */
    static DeploymentImage build(Sequential& model, int bits,
                                 std::size_t group_size,
                                 std::vector<std::size_t> ladder,
                                 const PackedTermFormat& fmt = {});

    const std::vector<LayerImage>& layers() const { return layers_; }
    const std::vector<std::size_t>& ladder() const { return ladder_; }
    std::size_t groupSize() const { return groupSize_; }
    int bits() const { return bits_; }

    /**
     * Reconstruct a layer's lattice weights (row-major [rows, rowLen])
     * at weight budget @p alpha.
     */
    std::vector<std::int64_t> layerWeights(std::size_t layer,
                                           std::size_t alpha) const;

    /** Total packed storage in bits (terms + indexes, all layers). */
    std::size_t storageBits() const;

    /** Term+index memory entries read to deploy at budget @p alpha. */
    std::size_t memoryEntriesFor(std::size_t alpha) const;

    /**
     * Serialize to / from a binary image file.  load() throws
     * FatalError on a truncated or corrupt file: every field must be
     * present, byte lengths must fit the file, the group size must lie
     * in [1, 2^indexBits], each group must store its column's member
     * count, and every term exponent and weight index must fit its
     * field — so an image it returns decodes at every rung.
     */
    void save(const std::string& path) const;
    static DeploymentImage load(const std::string& path,
                                const PackedTermFormat& fmt = {});

  private:
    int bits_ = 5;
    std::size_t groupSize_ = 16;
    std::vector<std::size_t> ladder_;
    PackedTermFormat fmt_;
    std::vector<LayerImage> layers_;
};

} // namespace mrq

#endif // MRQ_HW_DEPLOYMENT_HPP
