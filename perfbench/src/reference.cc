#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {
namespace {

double Ms(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Dense() {
  constexpr size_t n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (size_t i = 0; i < n * n; ++i) {
    a[i] = 1e-3 * static_cast<double>(i % 97);
    b[i] = 1e-3 * static_cast<double>(i % 89);
  }
  for (int rep = 0; rep < 8; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (size_t j = 0; j < n; ++j) {
          c[i * n + j] += aik * b[k * n + j];
        }
      }
    }
  }
  return c[n + 1];
}

double Stream() {
  // Allocated once and kept, so the buffer is a constant part of the
  // process's resident set rather than a 4 MiB spike between repetitions.
  static std::vector<double> buffer(1 << 19);  // 4 MiB
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<double>(i & 1023);
  }
  double sum = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < buffer.size(); ++i) {
      sum += buffer[i];
      buffer[i] = sum * 1e-9;
    }
  }
  return sum;
}

double Text() {
  double sum = 0.0;
  char buf[32];
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", 1.0 / (i + 3));
    lines.emplace_back(buf);
  }
  for (const std::string& line : lines) {
    sum += std::strtod(line.c_str(), nullptr);
  }
  return sum;
}

}  // namespace

double ReferenceMs() {
  volatile double sink = 0.0;  // keeps every part's result observable
  const auto start = std::chrono::steady_clock::now();
  sink = sink + Dense();
  sink = sink + Stream();
  sink = sink + Text();
  return Ms(start, std::chrono::steady_clock::now());
}

double MedianReferenceMs(int runs) {
  std::vector<double> totals;
  for (int i = 0; i < std::max(runs, 1); ++i) {
    totals.push_back(ReferenceMs());
  }
  std::sort(totals.begin(), totals.end());
  return totals[totals.size() / 2];
}

}  // namespace perfbench
