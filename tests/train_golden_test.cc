// Golden bit-identity of the training step.
//
// Each case fits a small MLP or DeepAR model, runs three warm-start
// IncrementalUpdate() fine-tunes, and hashes the saved checkpoint bytes.
// The expected hashes were recorded with the unfused training step: the
// per-parameter scalar Adam loop and the Gaussian / Student-t NLLs composed
// from elementwise tape nodes. Any change to the optimizer, the likelihood
// nodes, the tape, or a kernel they call that moves a single bit of the
// trained weights fails here.
//
// Hashes are per SIMD level: the AVX2 level computes tanh/sigmoid with
// polynomial kernels and its GEMMs use FMA, so it trains different (equally
// valid) weights than the scalar reference. SSE2 is bit-identical to scalar
// by contract. The values assume a glibc libm (std::exp/log/tanh are inputs
// to every hash).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "tensor/kernels.h"

namespace rpas {
namespace {

using tensor::kernels::LevelName;
using tensor::kernels::LevelSupported;
using tensor::kernels::ScopedSimdLevel;
using tensor::kernels::SimdLevel;

constexpr size_t kDay = 48;

ts::TimeSeries NoisyDaily(size_t num_steps, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 30.0;
  Rng rng(seed);
  for (size_t i = 0; i < num_steps; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % kDay) /
                         static_cast<double>(kDay);
    s.values.push_back(20.0 + 6.0 * std::sin(phase) + 1.5 * rng.Normal());
  }
  return s;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Fit on the first 4 days, then fold in three chunks of 8 new points, and
/// hash the resulting checkpoint file.
uint64_t TrainAndHash(forecast::Forecaster* model, const std::string& tag) {
  const ts::TimeSeries series = NoisyDaily(4 * kDay + 24, 11);
  EXPECT_TRUE(model->Fit(series.Slice(0, 4 * kDay)).ok());
  for (size_t end = 4 * kDay + 8; end <= series.size(); end += 8) {
    auto report = model->IncrementalUpdate(series.Slice(0, end), 8);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }
  const std::string path = StrFormat("/tmp/rpas_train_golden_%ld_%s.ckpt",
                                     static_cast<long>(getpid()), tag.c_str());
  EXPECT_TRUE(model->SaveCheckpoint(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return Fnv1a64(bytes);
}

uint64_t MlpHash() {
  forecast::MlpForecaster::Options options;
  options.context_length = 24;
  options.horizon = 12;
  options.hidden_dim = 16;
  options.batch_size = 16;
  options.train.steps = 40;
  options.fine_tune_steps = 6;
  forecast::MlpForecaster model(options);
  return TrainAndHash(&model, "mlp");
}

uint64_t DeepArHash(forecast::DeepArForecaster::Head head) {
  forecast::DeepArForecaster::Options options;
  options.context_length = 16;
  options.horizon = 8;
  options.hidden_dim = 8;
  options.batch_size = 8;
  options.num_samples = 20;
  options.train.steps = 15;
  options.fine_tune_steps = 4;
  options.head = head;
  forecast::DeepArForecaster model(options);
  return TrainAndHash(&model, "deepar");
}

struct Golden {
  SimdLevel level;
  uint64_t mlp;
  uint64_t deepar_student_t;
  uint64_t deepar_gaussian;
};

// Recorded with the unfused training step (see the file comment).
constexpr Golden kGolden[] = {
    {SimdLevel::kScalar, 0xd3a029dc2c2f675cull, 0x40481b27f06c8f25ull,
     0xd0e208fc69ebe1dfull},
    {SimdLevel::kSse2, 0xd3a029dc2c2f675cull, 0x40481b27f06c8f25ull,
     0xd0e208fc69ebe1dfull},
    {SimdLevel::kAvx2, 0xe580f78dc280cd4cull, 0xf6bbebea08bbba5full,
     0x47122963ddd2dafbull},
};

TEST(TrainGoldenTest, TrainedWeightsMatchRecordedHashesAtEveryLevel) {
  for (const Golden& golden : kGolden) {
    if (!LevelSupported(golden.level)) {
      continue;
    }
    ScopedSimdLevel scoped(golden.level);
    const char* level = LevelName(golden.level);
    const uint64_t mlp = MlpHash();
    const uint64_t student_t =
        DeepArHash(forecast::DeepArForecaster::Head::kStudentT);
    const uint64_t gaussian =
        DeepArHash(forecast::DeepArForecaster::Head::kGaussian);
    EXPECT_EQ(mlp, golden.mlp)
        << "MLP weights moved at " << level << ": 0x" << std::hex << mlp;
    EXPECT_EQ(student_t, golden.deepar_student_t)
        << "DeepAR Student-t weights moved at " << level << ": 0x"
        << std::hex << student_t;
    EXPECT_EQ(gaussian, golden.deepar_gaussian)
        << "DeepAR Gaussian weights moved at " << level << ": 0x" << std::hex
        << gaussian;
  }
}

}  // namespace
}  // namespace rpas
