#include "compress/codec.h"

#include <cctype>

#include "common/bytes.h"
#include "compress/lz77.h"

namespace just::compress {

namespace {

class NoneCodecImpl : public Codec {
 public:
  std::string name() const override { return "none"; }

  std::string Compress(std::string_view raw) const override {
    return std::string(raw);
  }

  Result<std::string> Decompress(std::string_view compressed,
                                 size_t raw_size) const override {
    if (compressed.size() != raw_size) {
      return Status::Corruption("none codec size mismatch");
    }
    return std::string(compressed);
  }
};

class Lz77CodecImpl : public Codec {
 public:
  std::string name() const override { return "lz77"; }

  std::string Compress(std::string_view raw) const override {
    return Lz77Compress(raw);
  }

  Result<std::string> Decompress(std::string_view compressed,
                                 size_t raw_size) const override {
    return Lz77Decompress(compressed, raw_size);
  }
};

}  // namespace

const Codec* NoneCodec() {
  static const NoneCodecImpl* codec = new NoneCodecImpl();
  return codec;
}

const Codec* Lz77Codec() {
  static const Lz77CodecImpl* codec = new Lz77CodecImpl();
  return codec;
}

Result<const Codec*> GetCodec(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(c));
  if (lower.empty() || lower == "none") return NoneCodec();
  if (lower == "gzip" || lower == "zip" || lower == "lz77") {
    return Lz77Codec();
  }
  return Status::InvalidArgument("unknown codec: " + name);
}

std::string EncodeCell(const Codec& codec, std::string_view raw) {
  std::string out;
  if (codec.name() == "none") {
    out.push_back(static_cast<char>(CodecId::kNone));
    PutVarint64(&out, raw.size());
    out.append(raw.data(), raw.size());
    return out;
  }
  std::string compressed = codec.Compress(raw);
  out.push_back(static_cast<char>(CodecId::kLz77));
  PutVarint64(&out, raw.size());
  out += compressed;
  return out;
}

Status DecodeCellView(std::string_view cell, std::string* scratch,
                      std::string_view* raw) {
  if (cell.empty()) return Status::Corruption("empty cell");
  auto id = static_cast<CodecId>(cell[0]);
  const char* p = cell.data() + 1;
  const char* limit = cell.data() + cell.size();
  uint64_t raw_size;
  if (!GetVarint64(&p, limit, &raw_size)) {
    return Status::Corruption("bad cell header");
  }
  std::string_view payload(p, static_cast<size_t>(limit - p));
  switch (id) {
    case CodecId::kNone:
      if (payload.size() != raw_size) {
        return Status::Corruption("none codec size mismatch");
      }
      *raw = payload;
      return Status::OK();
    case CodecId::kLz77: {
      JUST_ASSIGN_OR_RETURN(*scratch, Lz77Codec()->Decompress(payload,
                                                              raw_size));
      *raw = *scratch;
      return Status::OK();
    }
  }
  return Status::Corruption("unknown codec id");
}

Result<std::string> DecodeCell(std::string_view cell) {
  std::string scratch;
  std::string_view raw;
  JUST_RETURN_NOT_OK(DecodeCellView(cell, &scratch, &raw));
  if (raw.data() == scratch.data()) return scratch;
  return std::string(raw);
}

}  // namespace just::compress
