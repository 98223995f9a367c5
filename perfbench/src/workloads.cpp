#include "workloads.hpp"

#include <fstream>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void write_trace(const SpanRecorder& spans, const std::string& path,
                 Result& result) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  out << spans.to_chrome_json();
  out.close();
  result.op(static_cast<bool>(out), "could not write the trace to " + path);
  result.line("trace: " + std::to_string(spans.kept()) + " spans written to " +
              path);
}

}  // namespace perfbench
