// Engine micro-benchmarks (google-benchmark): the hot kernels behind every
// experiment — dense/sparse matrix products, autograd round trips, the
// counterfactual search, and the KKT λ-solver — plus the observability
// overhead suite (disabled spans, counters, and the fully-instrumented
// guarded training epoch with no sinks attached). Not a paper figure; used
// to track the substrate's performance.
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <string>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "core/counterfactual.h"
#include "core/lambda_solver.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "nn/gnn.h"
#include "nn/guard.h"
#include "nn/optim.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace fairwos {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::RandNormal({n, n}, 1.0f, &rng);
  tensor::Tensor b = tensor::Tensor::RandNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// Thread-scaling variant: Args are (n, threads). The pool is resized per
// run; compare rows to see the parallel speedup of the dense kernels.
void BM_MatMulThreaded(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::SetGlobalThreadCount(static_cast<int>(state.range(1)));
  common::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::RandNormal({n, n}, 1.0f, &rng);
  tensor::Tensor b = tensor::Tensor::RandNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  common::SetGlobalThreadCount(0);  // restore the default
}
BENCHMARK(BM_MatMulThreaded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::Rng rng(2);
  graph::Graph g(n);
  // ~10 average degree random graph.
  for (int64_t e = 0; e < 5 * n; ++e) {
    g.AddEdge(rng.UniformInt(n), rng.UniformInt(n));
  }
  auto adj = g.GcnNormalizedAdjacency();
  tensor::Tensor x = tensor::Tensor::RandNormal({n, 16}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(adj, x));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 16);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(10000);

// Thread-scaling variant of the sparse product: Args are (n, threads).
void BM_SpMMThreaded(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::SetGlobalThreadCount(static_cast<int>(state.range(1)));
  common::Rng rng(2);
  graph::Graph g(n);
  for (int64_t e = 0; e < 5 * n; ++e) {
    g.AddEdge(rng.UniformInt(n), rng.UniformInt(n));
  }
  auto adj = g.GcnNormalizedAdjacency();
  tensor::Tensor x = tensor::Tensor::RandNormal({n, 16}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(adj, x));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 16);
  common::SetGlobalThreadCount(0);  // restore the default
}
BENCHMARK(BM_SpMMThreaded)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4});

void BM_AutogradRoundTrip(benchmark::State& state) {
  // One GCN-classifier forward + backward on a synthetic graph.
  const int64_t n = state.range(0);
  common::Rng rng(3);
  graph::Graph g(n);
  for (int64_t e = 0; e < 5 * n; ++e) {
    g.AddEdge(rng.UniformInt(n), rng.UniformInt(n));
  }
  nn::GnnConfig config;
  config.in_features = 16;
  config.hidden = 16;
  nn::GnnClassifier model(config, g, &rng);
  tensor::Tensor x = tensor::Tensor::RandNormal({n, 16}, 1.0f, &rng);
  std::vector<int> labels(static_cast<size_t>(n));
  std::vector<int64_t> train;
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int>(rng.Bernoulli(0.5));
    if (i % 2 == 0) train.push_back(i);
  }
  for (auto _ : state) {
    model.ZeroGrad();
    tensor::Tensor logits = model.Forward(x, /*training=*/true, &rng);
    tensor::SoftmaxCrossEntropy(logits, labels, train).Backward();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AutogradRoundTrip)->Arg(1000)->Arg(5000);

void BM_CounterfactualSearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::Rng rng(4);
  tensor::Tensor emb = tensor::Tensor::RandNormal({n, 16}, 1.0f, &rng);
  std::vector<std::vector<uint8_t>> bins(
      static_cast<size_t>(n), std::vector<uint8_t>(16));
  std::vector<int> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int>(rng.Bernoulli(0.5));
    for (auto& b : bins[static_cast<size_t>(i)]) {
      b = static_cast<uint8_t>(rng.Bernoulli(0.5));
    }
  }
  core::CounterfactualConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::FindCounterfactuals(emb, bins, labels, config, &rng));
  }
}
BENCHMARK(BM_CounterfactualSearch)->Arg(1000)->Arg(5000);

void BM_LambdaSolver(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::Rng rng(5);
  std::vector<double> d(static_cast<size_t>(n));
  for (auto& v : d) v = rng.Uniform(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveLambda(d, 1.0, false));
  }
}
BENCHMARK(BM_LambdaSolver)->Arg(16)->Arg(768);

void BM_DatasetGeneration(benchmark::State& state) {
  data::DatasetOptions options;
  options.scale = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::MakeDataset("bail", options));
  }
}
BENCHMARK(BM_DatasetGeneration);

// --- Observability overhead (docs/observability.md) ------------------------

// A span when the recorder is disabled: the permanent cost paid by every
// instrumented hot path in a normal (no --trace-out) run.
void BM_ScopedSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Disable();
  for (auto _ : state) {
    FW_TRACE_SPAN("bench/disabled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanDisabled);

// A span when recording: timestamping plus one mutex-guarded append.
void BM_ScopedSpanEnabled(benchmark::State& state) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  for (auto _ : state) {
    FW_TRACE_SPAN("bench/enabled");
    if (recorder.size() > 100000) recorder.Clear();  // bound memory
  }
  recorder.Disable();
  recorder.Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanEnabled);

void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

// One fully-instrumented guarded training epoch with no sinks attached —
// the acceptance gate for the obs layer is that this stays within 2% of
// the pre-instrumentation epoch cost (the instrumentation adds only
// disabled-span checks and one counter increment per optimizer step).
void BM_GuardedTrainEpoch(benchmark::State& state) {
  const int64_t n = state.range(0);
  common::Rng rng(6);
  graph::Graph g(n);
  for (int64_t e = 0; e < 5 * n; ++e) {
    g.AddEdge(rng.UniformInt(n), rng.UniformInt(n));
  }
  nn::GnnConfig config;
  config.in_features = 16;
  config.hidden = 16;
  nn::GnnClassifier model(config, g, &rng);
  tensor::Tensor x = tensor::Tensor::RandNormal({n, 16}, 1.0f, &rng);
  std::vector<int> labels(static_cast<size_t>(n));
  std::vector<int64_t> train;
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int>(rng.Bernoulli(0.5));
    if (i % 2 == 0) train.push_back(i);
  }
  nn::Adam opt(model.parameters(), 1e-3f);
  nn::SelfHealing healer(nn::RecoveryConfig{}, model, &opt, "bench");
  for (auto _ : state) {
    opt.ZeroGrad();
    tensor::Tensor logits = model.Forward(x, /*training=*/true, &rng);
    tensor::Tensor loss = tensor::SoftmaxCrossEntropy(logits, labels, train);
    loss.Backward();
    if (healer.GuardedStep(loss.item())) healer.Commit();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GuardedTrainEpoch)->Arg(1000);

}  // namespace

// ---------------------------------------------------------------------------
// Kernel roofline sweep (--kernels-json FILE): times every KernelBackend
// entry point the AVX2 backend overrides (GemmNN, GemmTN, SpMM) on the
// scalar and (when the host supports it) AVX2 backends. Every other kernel
// runs the same code in both backends, so it is not swept. It reports
// GFLOP/s and effective GB/s, and verifies the determinism contract —
// scalar and AVX2 outputs bytewise equal, and each backend bytewise equal
// at 1 and 8 threads (docs/kernels.md).
// ---------------------------------------------------------------------------
namespace kernels {
namespace {

struct Measurement {
  double millis = 0.0;  // best rep, per call
  double gflops = 0.0;
  double gbs = 0.0;
};

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

/// Best-of-3 reps of `iters` calls each; flops/bytes are per call.
template <typename Fn>
Measurement Time(double flops, double bytes, int iters, Fn&& fn) {
  Measurement m;
  double best = 1e300;
  fn();  // warm-up (touches pages, primes the pool)
  for (int rep = 0; rep < 3; ++rep) {
    common::Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.Seconds() / iters);
  }
  m.millis = best * 1e3;
  m.gflops = flops / best / 1e9;
  m.gbs = bytes / best / 1e9;
  return m;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct KernelCase {
  const char* name;
  double flops;  // per call
  double bytes;  // per call, compulsory traffic estimate for the roofline
  // Runs the kernel on `backend` writing into `out` (sized by the caller).
  std::function<void(const tensor::KernelBackend&, std::vector<float>*)> run;
  size_t out_size;
};

int RunSweep(const char* path) {
  using tensor::GetAvx2BackendOrNull;
  using tensor::GetScalarBackend;
  const tensor::KernelBackend* avx2 = GetAvx2BackendOrNull();

  // Shapes sized so one call is microseconds-to-milliseconds: big enough to
  // dominate ParallelFor overhead, small enough for quick CI runs.
  const int64_t kN = 256, kK = 256, kM = 256;   // dense Gemm family
  const int64_t kRows = 20000, kDeg = 10, kC = 32;  // SpMM

  const auto a = RandomVec(static_cast<size_t>(kN * kK), 11);
  const auto b = RandomVec(static_cast<size_t>(kK * kM), 12);

  // Random ~kDeg-regular CSR adjacency for SpMM.
  std::vector<int64_t> row_ptr(static_cast<size_t>(kRows) + 1, 0);
  std::vector<int64_t> col_idx;
  common::Rng rng(15);
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t d = 0; d < kDeg; ++d) col_idx.push_back(rng.UniformInt(kRows));
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  const auto vals = RandomVec(col_idx.size(), 16);
  const auto x = RandomVec(static_cast<size_t>(kRows * kC), 17);
  const double nnz = static_cast<double>(col_idx.size());

  std::vector<KernelCase> cases;
  cases.push_back(
      {"gemm_nn", 2.0 * kN * kK * kM,
       4.0 * (kN * kK + kK * kM + 2.0 * kN * kM),
       [&](const tensor::KernelBackend& be, std::vector<float>* out) {
         std::fill(out->begin(), out->end(), 0.0f);
         be.GemmNN(a.data(), b.data(), out->data(), kN, kK, kM);
       },
       static_cast<size_t>(kN * kM)});
  cases.push_back(
      {"gemm_tn", 2.0 * kN * kK * kM,
       4.0 * (kN * kK + kK * kM + 2.0 * kN * kM),
       [&](const tensor::KernelBackend& be, std::vector<float>* out) {
         std::fill(out->begin(), out->end(), 0.0f);
         be.GemmTN(a.data(), b.data(), out->data(), kN, kK, kM);
       },
       static_cast<size_t>(kK * kM)});
  cases.push_back(
      {"spmm", 2.0 * nnz * kC,
       nnz * (8 + 8 + 4.0 * kC) + 4.0 * kRows * kC,
       [&](const tensor::KernelBackend& be, std::vector<float>* out) {
         be.Spmm(row_ptr.data(), col_idx.data(), vals.data(), kRows, x.data(),
                 kC, out->data());
       },
       static_cast<size_t>(kRows * kC)});

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  const tensor::BackendInfo info = tensor::ActiveBackendInfo();
  std::fprintf(f,
               "{\n  \"cpu_features\": \"%s\",\n  \"default_backend\": "
               "\"%s\",\n  \"kernels\": [\n",
               info.cpu_features.c_str(), info.active.c_str());

  bool all_identical = true;
  double gemm_nn_speedup = 0.0;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const KernelCase& kc = cases[ci];
    const int iters = kc.flops > 1e7 ? 4 : 16;
    std::vector<float> out_scalar(kc.out_size), out_avx2(kc.out_size);
    std::vector<float> out_threads(kc.out_size);

    common::SetGlobalThreadCount(1);
    const Measurement scalar_m = Time(kc.flops, kc.bytes, iters, [&] {
      kc.run(GetScalarBackend(), &out_scalar);
    });
    Measurement avx2_m;
    if (avx2 != nullptr) {
      avx2_m = Time(kc.flops, kc.bytes, iters,
                    [&] { kc.run(*avx2, &out_avx2); });
    }

    // Determinism contract: scalar vs AVX2 and each backend
    // at 1 vs 8 threads must agree bytewise.
    bool identical = true;
    if (avx2 != nullptr) identical = BitEqual(out_scalar, out_avx2);
    common::SetGlobalThreadCount(8);
    kc.run(GetScalarBackend(), &out_threads);
    identical = identical && BitEqual(out_scalar, out_threads);
    if (avx2 != nullptr) {
      kc.run(*avx2, &out_threads);
      identical = identical && BitEqual(out_avx2, out_threads);
    }
    common::SetGlobalThreadCount(1);
    all_identical = all_identical && identical;

    const double speedup =
        avx2 != nullptr && avx2_m.millis > 0.0 ? scalar_m.millis / avx2_m.millis
                                               : 1.0;
    if (std::string(kc.name) == "gemm_nn") gemm_nn_speedup = speedup;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"flops\": %.0f, \"bytes\": %.0f,\n"
        "     \"scalar\": {\"ms\": %.4f, \"gflops\": %.2f, \"gbs\": %.2f},\n"
        "     \"avx2\": {\"ms\": %.4f, \"gflops\": %.2f, \"gbs\": %.2f},\n"
        "     \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
        kc.name, kc.flops, kc.bytes, scalar_m.millis, scalar_m.gflops,
        scalar_m.gbs, avx2_m.millis, avx2_m.gflops, avx2_m.gbs, speedup,
        identical ? "true" : "false", ci + 1 < cases.size() ? "," : "");
    std::printf("%-10s scalar %8.2f GFLOP/s %8.2f GB/s | avx2 %8.2f GFLOP/s "
                "%8.2f GB/s | x%.2f %s\n",
                kc.name, scalar_m.gflops, scalar_m.gbs, avx2_m.gflops,
                avx2_m.gbs, speedup, identical ? "bit-identical" : "DIVERGED");
  }
  common::SetGlobalThreadCount(0);
  std::fprintf(f,
               "  ],\n  \"gemm_nn_speedup\": %.2f,\n  \"bit_identical\": "
               "%s\n}\n",
               gemm_nn_speedup, all_identical ? "true" : "false");
  std::fclose(f);
  std::printf("[bench] wrote %s (gemm_nn speedup x%.2f, bit_identical=%s)\n",
              path, gemm_nn_speedup, all_identical ? "true" : "false");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace kernels
}  // namespace fairwos

int main(int argc, char** argv) {
  const char* kernels_json = nullptr;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels-json" && i + 1 < argc) {
      kernels_json = argv[++i];
    } else if (arg == "--simd" && i + 1 < argc) {
      auto mode = fairwos::tensor::ParseSimdMode(argv[++i]);
      if (!mode.ok() ||
          !fairwos::tensor::SelectBackend(mode.value()).ok()) {
        std::fprintf(stderr, "invalid --simd value\n");
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (kernels_json != nullptr) {
    return fairwos::kernels::RunSweep(kernels_json);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
