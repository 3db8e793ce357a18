// Golden bit-identity of the training step and of batched serving.
//
// Training: each case fits a small MLP or DeepAR model, runs three
// warm-start IncrementalUpdate() fine-tunes, and hashes the saved
// checkpoint bytes. The expected hashes were recorded with the unfused
// training step: the per-parameter scalar Adam loop and the Gaussian /
// Student-t NLLs composed from elementwise tape nodes. Any change to the
// optimizer, the likelihood nodes, the tape, or a kernel they call that
// moves a single bit of the trained weights fails here.
//
// Serving: one DeepAR per head (Student-t, Gaussian), an MLP, a TFT and a
// QB5000 are trained once at the scalar level, then served at every level;
// DeepAR also from f32, f16 and q8 rpasq conversions of its checkpoint. The
// hashes cover the bits of every PredictBatch() quantile and were recorded
// before the allocation-free LSTM runner, the fused gate combine, the
// four-row skinny GEMM and the single-row first sample step.
//
// Hashes are per SIMD level: the AVX2 level computes tanh/sigmoid with
// polynomial kernels and its GEMMs use FMA, so it trains and serves
// different (equally valid) values than the scalar reference. SSE2 is
// bit-identical to scalar by contract. The values assume a glibc libm
// (std::exp/log/tanh are inputs to every hash).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "forecast/qb5000.h"
#include "forecast/tft.h"
#include "nn/qcheckpoint.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace rpas {
namespace {

using forecast::DeepArForecaster;
using forecast::ForecastInput;
using forecast::MlpForecaster;
using forecast::Qb5000Forecaster;
using forecast::TftForecaster;
using tensor::DType;
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

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Fnv1a64(const std::string& bytes, uint64_t h = kFnvOffset) {
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

// -------------------------------------------------------------- serving ---

DeepArForecaster::Options ServingDeepArOptions(DeepArForecaster::Head head) {
  DeepArForecaster::Options options;
  options.context_length = 16;
  options.horizon = 8;
  options.hidden_dim = 6;  // 4H = 24; H % 4 != 0 takes the masked tails
  options.batch_size = 8;
  options.num_samples = 20;
  options.train.steps = 15;
  options.head = head;
  return options;
}

MlpForecaster::Options ServingMlpOptions() {
  MlpForecaster::Options options;
  options.context_length = 16;
  options.horizon = 8;
  options.hidden_dim = 16;
  options.batch_size = 16;
  options.train.steps = 40;
  return options;
}

TftForecaster::Options ServingTftOptions() {
  TftForecaster::Options options;
  options.context_length = 16;
  options.horizon = 8;
  options.d_model = 8;
  options.num_heads = 2;
  options.train.steps = 10;
  return options;
}

Qb5000Forecaster::Options ServingQb5000Options() {
  Qb5000Forecaster::Options options;
  options.context_length = 16;
  options.horizon = 8;
  options.lstm_hidden = 6;
  options.train.steps = 10;
  options.max_kernel_windows = 64;
  return options;
}

/// Eight requests from different points of one series.
std::vector<ForecastInput> ServingSlate() {
  const ts::TimeSeries series = NoisyDaily(3 * kDay, 29);
  std::vector<ForecastInput> inputs;
  for (size_t i = 0; i < 8; ++i) {
    const size_t start = 2 * kDay - 16 + 5 * i;
    ForecastInput input;
    input.context.assign(series.values.begin() + start,
                         series.values.begin() + start + 16);
    input.start_index = start;
    input.step_minutes = series.step_minutes;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

std::vector<uint64_t> ServingSeeds(size_t n) {
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < n; ++i) {
    seeds.push_back(900 + 7 * i);
  }
  return seeds;
}

/// FNV-1a over the bits of every quantile of every forecast, in order.
uint64_t HashForecasts(const std::vector<ts::QuantileForecast>& forecasts) {
  uint64_t h = kFnvOffset;
  for (const ts::QuantileForecast& f : forecasts) {
    for (size_t step = 0; step < f.Horizon(); ++step) {
      for (size_t q = 0; q < f.Levels().size(); ++q) {
        const double v = f.ValueAtIndex(step, q);
        h = Fnv1a64(std::string(reinterpret_cast<const char*>(&v), sizeof(v)),
                    h);
      }
    }
  }
  return h;
}

/// Checkpoints of one trained model: the text fp64 file plus its rpasq
/// conversions, shared by every test in this process.
struct ServingCheckpoints {
  std::string text;
  std::string f32, f16, q8;
};

void FitAtScalarLevel(forecast::Forecaster* model) {
  ScopedSimdLevel scalar(SimdLevel::kScalar);
  EXPECT_TRUE(model->Fit(NoisyDaily(4 * kDay, 11)).ok());
}

ServingCheckpoints TrainServingModel(forecast::Forecaster* model,
                                     const std::string& tag) {
  FitAtScalarLevel(model);
  const std::string stem = StrFormat("/tmp/rpas_serve_golden_%ld_%s",
                                     static_cast<long>(getpid()), tag.c_str());
  ServingCheckpoints paths{stem + ".ckpt", stem + "_f32.rpasq",
                           stem + "_f16.rpasq", stem + "_q8.rpasq"};
  EXPECT_TRUE(model->SaveCheckpoint(paths.text).ok());
  EXPECT_TRUE(
      nn::QuantizeCheckpointFile(paths.text, paths.f32, DType::kF32).ok());
  EXPECT_TRUE(
      nn::QuantizeCheckpointFile(paths.text, paths.f16, DType::kF16).ok());
  EXPECT_TRUE(
      nn::QuantizeCheckpointFile(paths.text, paths.q8, DType::kQ8).ok());
  return paths;
}

void RemoveCheckpoints(const ServingCheckpoints& paths) {
  for (const std::string* p : {&paths.text, &paths.f32, &paths.f16,
                               &paths.q8}) {
    std::remove(p->c_str());
  }
}

/// A DeepAR served from `path`: the text checkpoint or an rpasq file.
std::unique_ptr<DeepArForecaster> LoadDeepAr(DeepArForecaster::Head head,
                                             const std::string& path,
                                             bool quantized) {
  auto model =
      std::make_unique<DeepArForecaster>(ServingDeepArOptions(head));
  if (quantized) {
    auto ckpt = nn::QuantizedCheckpoint::Map(path);
    EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    EXPECT_TRUE(model->LoadQuantizedCheckpoint(*ckpt).ok());
  } else {
    EXPECT_TRUE(model->LoadCheckpoint(path).ok());
  }
  return model;
}

uint64_t PredictBatchHash(const forecast::Forecaster& model) {
  const std::vector<ForecastInput> inputs = ServingSlate();
  auto forecasts = model.PredictBatch(inputs, ServingSeeds(inputs.size()));
  EXPECT_TRUE(forecasts.ok()) << forecasts.status().ToString();
  return forecasts.ok() ? HashForecasts(*forecasts) : 0;
}

/// DeepAR PredictBatch hashes per checkpoint dtype.
struct DeepArServingGolden {
  uint64_t f64, f32, f16, q8;
};

struct ServingGolden {
  SimdLevel level;
  uint64_t mlp;
  uint64_t tft;
  uint64_t qb5000;
  DeepArServingGolden student_t;
  DeepArServingGolden gaussian;
};

// Recorded before the serving-step rewrite (see the file comment).
constexpr ServingGolden kServingGolden[] = {
    {SimdLevel::kScalar,
     0xd5f055699fb914abull,
     0x3b2e429f2d8308f9ull,
     0x1a54579df9598e29ull,
     {0x6c455e828f4f781cull, 0x1d4dee480268c99bull, 0x0db408f823499c3eull,
      0xde67901db1cbf6f9ull},
     {0x04ad2f7cbfa4792cull, 0x41aa52a88c82c9f8ull, 0xfe6b1c95c9244582ull,
      0x97344ac3813f57c1ull}},
    {SimdLevel::kSse2,
     0xd5f055699fb914abull,
     0x3b2e429f2d8308f9ull,
     0x1a54579df9598e29ull,
     {0x6c455e828f4f781cull, 0x1d4dee480268c99bull, 0x0db408f823499c3eull,
      0xde67901db1cbf6f9ull},
     {0x04ad2f7cbfa4792cull, 0x41aa52a88c82c9f8ull, 0xfe6b1c95c9244582ull,
      0x97344ac3813f57c1ull}},
    {SimdLevel::kAvx2,
     0xa2e237ad8b32ab04ull,
     0x7445c00b5a2e2466ull,
     0xbecccef677eb58dbull,
     {0x232d99f544464a48ull, 0x33e8a30d47b56d5full, 0x1ca0530e465bd6dcull,
      0x3f11ec12519796aaull},
     {0x51e1330f909c2568ull, 0xcef8722d79c9bb22ull, 0x11e848040b1e963eull,
      0x871b8ec48872ed43ull}},
};

void ExpectHash(uint64_t got, uint64_t want, const char* what,
                SimdLevel level) {
  EXPECT_EQ(got, want) << what << " forecasts moved at " << LevelName(level)
                       << ": 0x" << std::hex << got;
}

void ExpectDeepArServingHashes(DeepArForecaster::Head head,
                               const DeepArServingGolden& golden,
                               const ServingCheckpoints& paths,
                               SimdLevel level, const char* name) {
  const std::string tag(name);
  ExpectHash(PredictBatchHash(*LoadDeepAr(head, paths.text, false)),
             golden.f64, (tag + " fp64").c_str(), level);
  ExpectHash(PredictBatchHash(*LoadDeepAr(head, paths.f32, true)),
             golden.f32, (tag + " f32").c_str(), level);
  ExpectHash(PredictBatchHash(*LoadDeepAr(head, paths.f16, true)),
             golden.f16, (tag + " f16").c_str(), level);
  ExpectHash(PredictBatchHash(*LoadDeepAr(head, paths.q8, true)), golden.q8,
             (tag + " q8").c_str(), level);
}

TEST(ServeGoldenTest, PredictBatchMatchesRecordedHashesAtEveryLevel) {
  MlpForecaster mlp(ServingMlpOptions());
  const ServingCheckpoints mlp_paths = TrainServingModel(&mlp, "mlp");
  DeepArForecaster student_t(
      ServingDeepArOptions(DeepArForecaster::Head::kStudentT));
  const ServingCheckpoints t_paths = TrainServingModel(&student_t, "t");
  DeepArForecaster gaussian(
      ServingDeepArOptions(DeepArForecaster::Head::kGaussian));
  const ServingCheckpoints g_paths = TrainServingModel(&gaussian, "gauss");
  TftForecaster tft(ServingTftOptions());
  FitAtScalarLevel(&tft);
  Qb5000Forecaster qb5000(ServingQb5000Options());
  FitAtScalarLevel(&qb5000);
  for (const ServingGolden& golden : kServingGolden) {
    if (!LevelSupported(golden.level)) {
      continue;
    }
    ScopedSimdLevel scoped(golden.level);
    ExpectHash(PredictBatchHash(mlp), golden.mlp, "MLP", golden.level);
    ExpectHash(PredictBatchHash(tft), golden.tft, "TFT", golden.level);
    ExpectHash(PredictBatchHash(qb5000), golden.qb5000, "QB5000",
               golden.level);
    ExpectDeepArServingHashes(DeepArForecaster::Head::kStudentT,
                              golden.student_t, t_paths, golden.level,
                              "DeepAR Student-t");
    ExpectDeepArServingHashes(DeepArForecaster::Head::kGaussian,
                              golden.gaussian, g_paths, golden.level,
                              "DeepAR Gaussian");
  }
  for (const ServingCheckpoints* paths : {&mlp_paths, &t_paths, &g_paths}) {
    RemoveCheckpoints(*paths);
  }
}

void ExpectForecastBitsEqual(const ts::QuantileForecast& a,
                             const ts::QuantileForecast& b,
                             const std::string& where) {
  ASSERT_EQ(a.Horizon(), b.Horizon()) << where;
  ASSERT_EQ(a.Levels().size(), b.Levels().size()) << where;
  for (size_t step = 0; step < a.Horizon(); ++step) {
    for (size_t q = 0; q < a.Levels().size(); ++q) {
      const double x = a.ValueAtIndex(step, q);
      const double y = b.ValueAtIndex(step, q);
      ASSERT_EQ(0, std::memcmp(&x, &y, sizeof(x)))
          << where << " step " << step << " level " << q;
    }
  }
}

/// Every PredictBatch() element equals PredictSeeded() on the same request
/// alone, bit for bit, for batches of 1, 2, 5 and 8 requests.
void ExpectBatchedMatchesUnbatched(const DeepArForecaster& model,
                                   const std::string& tag) {
  const std::vector<ForecastInput> slate = ServingSlate();
  const std::vector<uint64_t> seeds = ServingSeeds(slate.size());
  for (size_t count : {1u, 2u, 5u, 8u}) {
    const std::vector<ForecastInput> inputs(slate.begin(),
                                            slate.begin() + count);
    const std::vector<uint64_t> batch_seeds(seeds.begin(),
                                            seeds.begin() + count);
    auto batched = model.PredictBatch(inputs, batch_seeds);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched->size(), count);
    for (size_t i = 0; i < count; ++i) {
      auto alone = model.PredictSeeded(inputs[i], batch_seeds[i]);
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      ExpectForecastBitsEqual(
          (*batched)[i], *alone,
          StrFormat("%s batch of %zu, request %zu", tag.c_str(), count, i));
    }
  }
}

TEST(ServeGoldenTest, DeepArBatchedMatchesUnbatchedAtEveryLevel) {
  DeepArForecaster trained(
      ServingDeepArOptions(DeepArForecaster::Head::kStudentT));
  const ServingCheckpoints paths = TrainServingModel(&trained, "diff");
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (!LevelSupported(level)) {
      continue;
    }
    ScopedSimdLevel scoped(level);
    const std::string name = LevelName(level);
    ExpectBatchedMatchesUnbatched(trained, name + " fp64");
    const auto q8 =
        LoadDeepAr(DeepArForecaster::Head::kStudentT, paths.q8, true);
    ExpectBatchedMatchesUnbatched(*q8, name + " q8");
  }
  RemoveCheckpoints(paths);
}

}  // namespace
}  // namespace rpas
