// Fixed-size float storage that starts on a cache-line boundary.
//
// A std::vector<float> of 128 KiB or more is served by mmap in glibc and
// starts 16 bytes past a page boundary, so when its rows are a multiple
// of 64 bytes long every 16-lane vector load or store of a row straddles
// two cache lines.  The kernel workspaces live here instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

namespace rt3 {

/// A zero-filled array of `size` floats whose first element starts a
/// 64-byte cache line.
class AlignedFloats {
 public:
  static constexpr std::size_t kAlign = 64;

  AlignedFloats() = default;
  explicit AlignedFloats(std::size_t size)
      : data_(static_cast<float*>(::operator new(
            size * sizeof(float), std::align_val_t{kAlign}))),
        size_(size) {
    std::fill_n(data_.get(), size_, 0.0F);
  }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  float* begin() { return data(); }
  float* end() { return data() + size_; }

 private:
  struct Free {
    void operator()(float* p) const {
      ::operator delete(p, std::align_val_t{kAlign});
    }
  };
  std::unique_ptr<float, Free> data_;
  std::size_t size_ = 0;
};

}  // namespace rt3
