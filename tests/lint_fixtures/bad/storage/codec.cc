// Fixture: raw pointer arithmetic in the shared binary codec. The path
// suffix (storage/codec.cc) is what opts this file into the rule.
// Expected findings: wire-pointer-arith x2.
#include <cstdint>
#include <cstring>
#include <string_view>

struct ByteReader {
  std::string_view data_;
  size_t pos_ = 0;

  uint32_t ReadU32() {
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);  // finding: unchecked
    pos_ += 4;
    return v;
  }

  const char* Cursor(const char* ptr) {
    return ptr += pos_;  // finding
  }

  const char* CheckedCursor() {
    // lint:allow wire-pointer-arith: fixture stand-in for a bounds-
    // checked primitive.
    return data_.data() + pos_;  // suppressed
  }
};
