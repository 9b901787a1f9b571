#include "common/key_codec.h"

#include <cstring>

namespace svr {

namespace {

void AppendBigEndian32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeKeyU32(buf, v);
  dst->append(buf, 4);
}

void AppendBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>(v >> (56 - 8 * i));
  }
  dst->append(buf, 8);
}

uint32_t ReadBigEndian32(const char* p) {
  auto b = [p](int i) { return static_cast<uint32_t>(static_cast<unsigned char>(p[i])); };
  return (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
}

uint64_t ReadBigEndian64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

// Maps a double onto uint64 such that unsigned order == numeric order.
uint64_t DoubleToOrderedBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if (bits & (1ULL << 63)) {
    return ~bits;  // negative: flip all bits
  }
  return bits | (1ULL << 63);  // non-negative: flip sign bit
}

double OrderedBitsToDouble(uint64_t bits) {
  if (bits & (1ULL << 63)) {
    bits &= ~(1ULL << 63);
  } else {
    bits = ~bits;
  }
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

}  // namespace

void EncodeKeyU32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v >> 24);
  dst[1] = static_cast<char>(v >> 16);
  dst[2] = static_cast<char>(v >> 8);
  dst[3] = static_cast<char>(v);
}

void PutKeyU32(std::string* dst, uint32_t v) { AppendBigEndian32(dst, v); }
void PutKeyU64(std::string* dst, uint64_t v) { AppendBigEndian64(dst, v); }
void PutKeyU32Desc(std::string* dst, uint32_t v) { AppendBigEndian32(dst, ~v); }
void PutKeyU64Desc(std::string* dst, uint64_t v) { AppendBigEndian64(dst, ~v); }

void PutKeyDouble(std::string* dst, double v) {
  AppendBigEndian64(dst, DoubleToOrderedBits(v));
}

void PutKeyDoubleDesc(std::string* dst, double v) {
  AppendBigEndian64(dst, ~DoubleToOrderedBits(v));
}

bool GetKeyU32(Slice* in, uint32_t* v) {
  if (in->size() < 4) return false;
  *v = ReadBigEndian32(in->data());
  in->remove_prefix(4);
  return true;
}

bool GetKeyU64(Slice* in, uint64_t* v) {
  if (in->size() < 8) return false;
  *v = ReadBigEndian64(in->data());
  in->remove_prefix(8);
  return true;
}

bool GetKeyU32Desc(Slice* in, uint32_t* v) {
  if (!GetKeyU32(in, v)) return false;
  *v = ~*v;
  return true;
}

bool GetKeyU64Desc(Slice* in, uint64_t* v) {
  if (!GetKeyU64(in, v)) return false;
  *v = ~*v;
  return true;
}

bool GetKeyDouble(Slice* in, double* v) {
  uint64_t bits;
  if (!GetKeyU64(in, &bits)) return false;
  *v = OrderedBitsToDouble(bits);
  return true;
}

bool GetKeyDoubleDesc(Slice* in, double* v) {
  uint64_t bits;
  if (!GetKeyU64(in, &bits)) return false;
  *v = OrderedBitsToDouble(~bits);
  return true;
}

}  // namespace svr
