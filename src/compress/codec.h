#ifndef JUST_COMPRESS_CODEC_H_
#define JUST_COMPRESS_CODEC_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace just::compress {

/// Field-compression codec (Section IV-D): JUST compresses big-bytes fields
/// (e.g. a trajectory's gpsList) to cut both storage and scan I/O. Codecs are
/// deliberately framed per-cell, which makes tiny fields *grow* when
/// compressed — the effect Figure 10a demonstrates on the Order dataset.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string name() const = 0;

  /// Compresses `raw`; always succeeds (worst case stores near-raw).
  virtual std::string Compress(std::string_view raw) const = 0;

  virtual Result<std::string> Decompress(std::string_view compressed,
                                         size_t raw_size) const = 0;
};

/// Codec ids stored in cell framing.
enum class CodecId : uint8_t {
  kNone = 0,
  kLz77 = 1,  ///< fills the paper's "gzip"/"zip" role
};

/// Looks up a codec by name: "none", "gzip", "zip", "lz77"
/// (gzip/zip both map to the LZ77 codec, as the paper treats them
/// interchangeably).
Result<const Codec*> GetCodec(const std::string& name);
const Codec* NoneCodec();
const Codec* Lz77Codec();

/// Frames one table cell: [codec id: 1B][raw size: varint][payload]. The
/// framing overhead is what makes compressing few-byte fields
/// counter-productive (Fig. 10a).
std::string EncodeCell(const Codec& codec, std::string_view raw);

/// Decodes a framed cell produced by EncodeCell.
Result<std::string> DecodeCell(std::string_view cell);

/// DecodeCell without a copy for identity-coded cells: `*raw` views the
/// payload inside `cell` itself, or `*scratch` (overwritten) when the cell
/// had to be decompressed. The scan path's decoder, which runs per cell.
Status DecodeCellView(std::string_view cell, std::string* scratch,
                      std::string_view* raw);

}  // namespace just::compress

#endif  // JUST_COMPRESS_CODEC_H_
