//===- main.cpp - The repository benchmark ---------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
// perfbench --self-test
//
// Generates the workload's programs from the seed, then drives them through
// eal::runPipeline in a closed loop (one thread, one program in flight) for
// S seconds, checking every result against the benchmark's own reference.
// --trace 0 reports the end-to-end metrics; --trace 1 instead runs each
// program layer by layer (Staged.h), checks that run against runPipeline,
// and reports per-layer metrics from its spans. The last line of stdout is
// one JSON object; the exit code is 0 only when every check passed.
//
//===----------------------------------------------------------------------===//

#include "Staged.h"
#include "Workloads.h"

#include "runtime/ValuePrinter.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace eal;
using namespace perfbench;

namespace {

/// Set-up (generation, references, warm-up) is repeated at least this
/// many times and for at least this long, and reported as the median: one
/// small_paper set-up takes milliseconds, and host noise at that scale
/// moves it by half between processes.
constexpr unsigned SetupRepeats = 5;
constexpr double SetupMinSeconds = 1.0;
/// peak_rss_mb is the mean over this many fresh processes: whether
/// malloc ends up holding one 16384-cell heap slab or two depends on the
/// address-space layout, which moves a single process's peak by ~15%.
constexpr unsigned RssProbes = 8;
/// One compile-only call per this many pipeline calls: enough compile_ms
/// samples while the analysis-bound escape_chain still completes 100+
/// pipeline calls for the p90.
constexpr unsigned CompileEvery = 4;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
  bool SelfTest = false;
  /// Run one set-up pass and print this process's peak RSS (the child
  /// side of peak_rss_mb).
  bool RssProbe = false;
  /// Self-test hook: appends a character to every expected value, so
  /// every output check must fail.
  bool CorruptReference = false;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Counts checked operations and keeps the first few failure reasons.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void record(bool Ok, const std::string &Why) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 5)
      std::cerr << "perfbench: check failed: " << Why << "\n";
  }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The mean over programs of each program's median: the expected cost of
/// one call of the round robin. A median over the mix would sit on the
/// boundary between two programs (small_paper's differ in cost by up to
/// 5x) and jump between them from run to run.
double meanOfMedians(const std::vector<std::vector<double>> &PerProgram) {
  double Sum = 0;
  for (const std::vector<double> &V : PerProgram)
    Sum += median(V);
  return PerProgram.empty() ? 0 : Sum / PerProgram.size();
}

/// The highest percentile with at least ten samples beyond it: the
/// nearest-rank p90 once there are 100 samples, else the sample with ten
/// above it. Returns the value and the percentile it stands for.
std::pair<double, double> tailPercentile(std::vector<double> V) {
  if (V.empty())
    return {0, 0};
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Rank = static_cast<size_t>(std::ceil(0.9 * N)); // 1-based
  if (N - Rank < 10)
    Rank = N > 10 ? N - 10 : 1;
  return {V[Rank - 1], 100.0 * Rank / N};
}

double secondsSince(int64_t StartNs) { return (nowNs() - StartNs) / 1e9; }

/// This process's peak resident set in MiB, or -1 when /proc does not
/// report it. VmHWM rather than getrusage: Linux carries ru_maxrss across
/// execve, so getrusage would report the launching python3's peak
/// whenever it exceeds ours.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  return -1;
}

std::string formatNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.12g", V);
  return Buf;
}

/// Prints every metric by name and unit, then the result line.
void printResult(const Tally &T, const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::cout << "  " << M.Name << " = " << formatNumber(M.Value) << " "
              << M.Unit << "\n";
  std::cout << "  error_rate = "
            << formatNumber(T.Attempted ? double(T.Failed) / T.Attempted : 1)
            << " ratio (" << T.Failed << " of " << T.Attempted
            << " checks failed)\n";
  std::cout << "{\"correct\": " << (T.Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << T.Attempted
            << ", \"failed\": " << T.Failed << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::cout << (I ? ", " : "") << "\"" << Metrics[I].Name
              << "\": {\"value\": " << formatNumber(Metrics[I].Value)
              << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  std::cout << "}}" << std::endl;
}

/// Checks one full pipeline result against the program's reference.
bool checkValue(const PipelineResult &R, const Program &P, std::string &Why) {
  if (!R.Success || !R.Value) {
    Why = P.Name + ": pipeline failed: " + R.diagnostics();
    return false;
  }
  std::string Got = renderValue(*R.Value, SIZE_MAX);
  if (Got != P.Expected) {
    Why = P.Name + ": output differs from the reference (got " +
          Got.substr(0, 80) + ", expected " + P.Expected.substr(0, 80) + ")";
    return false;
  }
  return true;
}

bool sameStats(const RuntimeStats &A, const RuntimeStats &B,
               std::string &Field) {
  std::vector<uint64_t> Values;
  A.forEachField(
      [&](const char *, const char *, uint64_t V) { Values.push_back(V); });
  size_t I = 0;
  bool Same = true;
  B.forEachField([&](const char *Key, const char *, uint64_t V) {
    if (Same && Values[I] != V) {
      Same = false;
      Field = Key;
    }
    ++I;
  });
  return Same;
}

uint64_t dconsSites(const OptimizedProgram &O) {
  uint64_t N = 0;
  for (const ReuseVersion &V : O.Reuse.Versions)
    N += V.DconsSites.size();
  return N;
}

PipelineOptions compileOnlyOptions() {
  PipelineOptions Options = productionOptions();
  Options.RunProgram = false;
  Options.CompileBytecode = true;
  return Options;
}

/// What the warm-up learned about one program; later calls must match.
struct Baseline {
  RuntimeStats Stats;
  uint64_t Instructions = 0;
  uint64_t Directives = 0;
};

/// One full call, checked against the reference and (when given) against
/// the warm-up's counters.
void fullCall(const Program &P, const PipelineOptions &Options, Tally &T,
              Baseline *Learn, const Baseline *Expect, double *CallMs) {
  int64_t Start = nowNs();
  PipelineResult R = runPipeline(P.Source, Options);
  if (CallMs)
    *CallMs = (nowNs() - Start) / 1e6;
  std::string Why;
  bool Ok = checkValue(R, P, Why);
  if (Ok && Learn) {
    Learn->Stats = R.Stats;
    Learn->Instructions = R.Code ? R.Code->instructionCount() : 0;
    Learn->Directives = R.Optimized->Plan.Directives.size();
  }
  std::string Field;
  if (Ok && Expect && !sameStats(R.Stats, Expect->Stats, Field)) {
    Ok = false;
    Why = P.Name + ": runtime counter " + Field + " differs between calls";
  }
  T.record(Ok, Why);
}

/// One compile-only call (what `eal optimize`/`disasm` users wait for),
/// checked against the full call's code size and plan.
void compileCall(const Program &P, const Baseline &Expect, Tally &T,
                 double *CallMs) {
  int64_t Start = nowNs();
  PipelineResult C = runPipeline(P.Source, compileOnlyOptions());
  if (CallMs)
    *CallMs = (nowNs() - Start) / 1e6;
  bool Ok = C.Success && C.Code &&
            C.Code->instructionCount() == Expect.Instructions &&
            C.Optimized->Plan.Directives.size() == Expect.Directives;
  T.record(Ok, P.Name + ": compile-only call failed or compiled different "
                        "code: " + C.diagnostics());
}

struct Workload {
  std::vector<Program> Programs;
  std::vector<Baseline> Baselines;
  double SetupSeconds = 0;
};

/// Generation, reference computation and one warm-up pass, repeated;
/// keeps the last set-up's programs and the median duration.
Workload setUp(const Args &A, Tally &T) {
  Workload W;
  std::vector<double> Durations;
  int64_t First = nowNs();
  while (Durations.size() < SetupRepeats ||
         secondsSince(First) < SetupMinSeconds) {
    int64_t Start = nowNs();
    W.Programs = *makeWorkload(A.Workload, A.Seed);
    if (A.CorruptReference)
      for (Program &P : W.Programs)
        P.Expected += "0";
    W.Baselines.assign(W.Programs.size(), Baseline());
    for (size_t I = 0; I != W.Programs.size(); ++I) {
      fullCall(W.Programs[I], productionOptions(), T, &W.Baselines[I],
               nullptr, nullptr);
      compileCall(W.Programs[I], W.Baselines[I], T, nullptr);
    }
    Durations.push_back(secondsSince(Start));
  }
  W.SetupSeconds = median(Durations);
  return W;
}

/// The child side of peak_rss_mb: one pass over the workload's programs,
/// each called once in full and once compile-only, then VmHWM on stdout.
/// A fixed amount of work, unlike the timed loop: the recorder's lite tier
/// keeps one footer counter per RuntimeStats field for every runPipeline
/// call (obs::rec::finalCounter), so RSS after the loop would grow with
/// the number of calls that fit in the time.
int rssProbe(const Args &A) {
  Tally T;
  std::vector<Program> Programs = *makeWorkload(A.Workload, A.Seed);
  for (const Program &P : Programs) {
    Baseline B;
    fullCall(P, productionOptions(), T, &B, nullptr, nullptr);
    compileCall(P, B, T, nullptr);
  }
  double Mb = peakRssMb();
  if (T.Failed || Mb < 0)
    return 1;
  std::cout << formatNumber(Mb) << "\n";
  return 0;
}

/// Mean peak RSS of RssProbes fresh processes running rssProbe; each
/// probe is one more checked operation.
double probePeakRss(const Args &A, Tally &T) {
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof Self - 1);
  if (Len <= 0) {
    T.record(false, "cannot locate the perfbench binary for RSS probes");
    return 0;
  }
  Self[Len] = '\0';
  std::string Cmd = "'" + std::string(Self) + "' --rss-probe --workload " +
                    A.Workload + " --seed " + std::to_string(A.Seed) +
                    " --seconds 1 --trace 0";
  double Sum = 0;
  unsigned Ok = 0;
  for (unsigned I = 0; I != RssProbes; ++I) {
    FILE *Pipe = popen(Cmd.c_str(), "r");
    double Mb = 0;
    bool Read = Pipe && std::fscanf(Pipe, "%lf", &Mb) == 1;
    bool Exited = Pipe && pclose(Pipe) == 0;
    T.record(Read && Exited, "RSS probe failed: " + Cmd);
    if (Read && Exited) {
      Sum += Mb;
      ++Ok;
    }
  }
  return Ok ? Sum / Ok : 0;
}

/// --trace 0: the end-to-end metrics, tracing off.
std::vector<Metric> runEndToEnd(const Args &A, const Workload &W, Tally &T) {
  const PipelineOptions Options = productionOptions();
  const size_t N = W.Programs.size();
  std::vector<std::vector<double>> PipelineMs(N), CompileMs(N);
  size_t CompileCalls = 0;
  double LoopSeconds = 0;
  uint64_t Verified = 0;
  int64_t Start = nowNs();
  for (size_t It = 0; secondsSince(Start) < A.Seconds; ++It) {
    size_t I = It % N;
    uint64_t FailedBefore = T.Failed;
    int64_t IterStart = nowNs();
    double Ms = 0;
    fullCall(W.Programs[I], Options, T, nullptr, &W.Baselines[I], &Ms);
    LoopSeconds += secondsSince(IterStart);
    PipelineMs[I].push_back(Ms);
    if (T.Failed == FailedBefore)
      ++Verified;
    if (It % CompileEvery == 0) {
      // Its own round robin, so every program gets compile samples.
      size_t C = CompileCalls++ % N;
      compileCall(W.Programs[C], W.Baselines[C], T, &Ms);
      CompileMs[C].push_back(Ms);
    }
  }

  double HeapCells = 0;
  for (const Baseline &B : W.Baselines)
    HeapCells += B.Stats.HeapCellsAllocated;
  HeapCells /= W.Baselines.size();

  double Tail = 0;
  for (size_t I = 0; I != N; ++I) {
    auto [P90, Percentile] = tailPercentile(PipelineMs[I]);
    std::cout << "  (" << W.Programs[I].Name << ": " << PipelineMs[I].size()
              << " pipeline calls, tail percentile p"
              << formatNumber(Percentile) << ", " << CompileMs[I].size()
              << " compile-only calls)\n";
    Tail += P90 / N;
  }
  return {
      {"pipeline_ms", meanOfMedians(PipelineMs), "ms"},
      {"pipeline_ms.p90", Tail, "ms"},
      {"programs_per_s", LoopSeconds > 0 ? Verified / LoopSeconds : 0, "1/s"},
      {"compile_ms", meanOfMedians(CompileMs), "ms"},
      {"peak_rss_mb", probePeakRss(A, T), "MB"},
      {"setup_s", W.SetupSeconds, "s"},
      {"heap_cells", HeapCells, "cells/program"},
  };
}

/// The layer spans whose self times the per-layer metrics report, as
/// {span name, metric name}.
const std::vector<std::pair<const char *, const char *>> &layerSpans() {
  static const std::vector<std::pair<const char *, const char *>> Spans = {
      {"lang.parse", "lang.parse_us"},
      {"types.infer", "types.infer_us"},
      {"types.retype", "types.retype_us"},
      {"escape.base", "escape.base_us"},
      {"escape.final", "escape.final_us"},
      {"sharing.reuse", "sharing.reuse_us"},
      {"opt.plan", "opt.plan_us"},
      {"vm.compile", "vm.compile_us"},
      {"vm.run", "vm.run_us"},
      {"runtime.heap_init", "runtime.heap_init_us"},
  };
  return Spans;
}

bool isLayerSpan(const char *Name) {
  for (const auto &[SpanName, MetricName] : layerSpans())
    if (std::strcmp(SpanName, Name) == 0)
      return true;
  return false;
}

/// Compares a staged execution with runPipeline on the same source.
bool checkParity(const StagedResult &S, const PipelineResult &R,
                 std::string &Why) {
  if (!R.Success || !R.Value) {
    Why = "runPipeline failed: " + R.diagnostics();
    return false;
  }
  std::string Field;
  if (S.Value != renderValue(*R.Value, SIZE_MAX))
    Why = "value differs";
  else if (!sameStats(S.Stats, R.Stats, Field))
    Why = "runtime counter " + Field + " differs";
  else if (S.PlanDirectives != R.Optimized->Plan.Directives.size())
    Why = "plan directive count differs";
  else if (S.DconsSites != dconsSites(*R.Optimized))
    Why = "DCONS site count differs";
  else
    return true;
  return false;
}

/// --trace 1: the staged run, its parity with runPipeline, and the
/// per-layer metrics from its spans.
std::vector<Metric> runTraced(const Args &A, const Workload &W, Tally &T) {
  const PipelineOptions Options = productionOptions();
  SpanLog Log;
  const size_t N = W.Programs.size();
  std::vector<StagedResult> FirstPass;
  std::vector<std::vector<double>> UnaccountedUs(N);
  int64_t Start = nowNs();
  for (size_t It = 0; secondsSince(Start) < A.Seconds; ++It) {
    const Program &P = W.Programs[It % N];
    size_t FirstSpan = Log.spans().size();
    StagedResult S = runStaged(P.Source, Log, static_cast<uint32_t>(It));
    double LayerUs = 0;
    for (size_t I = FirstSpan; I != Log.spans().size(); ++I)
      if (isLayerSpan(Log.spans()[I].Name))
        LayerUs += Log.spans()[I].selfNs() / 1e3;
    T.record(S.Success && S.Value == P.Expected,
             P.Name + ": staged run failed or differs from the reference " +
                 S.Diagnostics);
    int64_t CallStart = nowNs();
    PipelineResult R = runPipeline(P.Source, Options);
    // Driver bookkeeping plus tracing overhead: what the untraced call
    // spends outside the layers of the same program's staged run.
    UnaccountedUs[It % N].push_back((nowNs() - CallStart) / 1e3 - LayerUs);
    std::string Why;
    T.record(checkParity(S, R, Why),
             P.Name + ": staged run does not match runPipeline: " + Why);
    if (FirstPass.size() < N)
      FirstPass.push_back(std::move(S));
  }

  // Span self times per name and program (span ids are iteration numbers).
  std::map<std::string, std::vector<std::vector<double>>> SelfUs;
  for (const Span &S : Log.spans()) {
    std::vector<std::vector<double>> &PerProgram = SelfUs[S.Name];
    PerProgram.resize(N);
    PerProgram[S.Program % N].push_back(S.selfNs() / 1e3);
  }

  std::vector<Metric> Out;
  for (const auto &[SpanName, MetricName] : layerSpans())
    Out.push_back({MetricName, meanOfMedians(SelfUs[SpanName]), "us"});

  // Per-program counts: the mean over the workload's distinct programs.
  auto mean = [&](auto Get) {
    double Sum = 0;
    for (const StagedResult &S : FirstPass)
      Sum += static_cast<double>(Get(S));
    return FirstPass.empty() ? 0 : Sum / FirstPass.size();
  };
  auto count = [&](const char *Name, auto Get) {
    Out.push_back({Name, mean(Get), "count"});
  };
  count("lang.ast_nodes", [](const StagedResult &S) { return S.AstNodes; });
  count("escape.fixpoint_rounds",
        [](const StagedResult &S) { return S.FixpointRounds; });
  count("escape.apply_cache_entries",
        [](const StagedResult &S) { return S.ApplyCacheEntries; });
  count("escape.distinct_values",
        [](const StagedResult &S) { return S.DistinctValues; });
  count("sharing.reuse_versions",
        [](const StagedResult &S) { return S.ReuseVersions; });
  count("sharing.dcons_sites",
        [](const StagedResult &S) { return S.DconsSites; });
  count("opt.plan_directives",
        [](const StagedResult &S) { return S.PlanDirectives; });
  count("opt.stack_sites", [](const StagedResult &S) { return S.StackSites; });
  count("opt.region_sites",
        [](const StagedResult &S) { return S.RegionSites; });
  count("vm.instructions",
        [](const StagedResult &S) { return S.Instructions; });
  count("vm.steps", [](const StagedResult &S) { return S.Stats.Steps; });
  count("runtime.gc_runs", [](const StagedResult &S) { return S.Stats.GcRuns; });
  count("runtime.gc_marked_cells",
        [](const StagedResult &S) { return S.Stats.CellsMarked; });
  count("runtime.gc_swept_cells",
        [](const StagedResult &S) { return S.Stats.CellsSwept; });
  count("runtime.sweep_scan_cells",
        [](const StagedResult &S) { return S.Stats.CellsScannedBySweep; });
  count("runtime.heap_growths",
        [](const StagedResult &S) { return S.Stats.HeapGrowths; });
  count("runtime.dcons_reuses",
        [](const StagedResult &S) { return S.Stats.DconsReuses; });
  count("runtime.stack_cells_freed",
        [](const StagedResult &S) { return S.Stats.StackCellsFreed; });
  count("runtime.region_cells_freed",
        [](const StagedResult &S) { return S.Stats.RegionCellsFreed; });
  count("runtime.peak_live_cells",
        [](const StagedResult &S) { return S.Stats.PeakLiveHeapCells; });

  Out.push_back({"driver.unaccounted_us", meanOfMedians(UnaccountedUs), "us"});

  std::cout << "  (" << Log.spans().size() / (layerSpans().size() + 2)
            << " staged + untraced pairs over " << N << " programs, "
            << Log.spans().size() << " spans)\n";
  if (!A.SpansPath.empty() && !Log.writeChromeTrace(A.SpansPath))
    std::cerr << "perfbench: cannot write " << A.SpansPath << "\n";
  return Out;
}

//===--- Self-test of the references ---------------------------------------==//

int selfTest() {
  unsigned Failures = 0;
  auto expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::cerr << "self-test FAILED: " << What << "\n";
      ++Failures;
    }
  };
  using IntList = std::vector<int64_t>;
  // f_i [x] = f_{i-1} [x] ++ [x] ++ f_i [] is i+1 copies of x.
  expect(chainReference(0, {4}) == IntList{4}, "f_0 [x] copies");
  expect(chainReference(3, {4}) == IntList(4, 4), "f_3 [x] = 4 copies");
  // f_1 [a, b] = [a, b] ++ [a] ++ f_1 [b] = [a, b, a, b, b].
  expect(chainReference(1, {1, 2}) == IntList{1, 2, 1, 2, 2}, "f_1 [a, b]");
  // f_23 [a, b]: lengths follow L_i = L_{i-1} + 1 + (i + 1), L_0 = 2.
  expect(chainReference(23, {1, 2}).size() == 324, "f_23 [a, b] length");
  expect(producerList(3, 1, 0) == IntList{579, 386, 193},
         "create_list 3 = [3*193, 2*193, 193] mod 1021");
  expect(producerList(2, 2, 5) == IntList{777, 391}, "scaled producer");
  expect(producerList(6, 1, 0).front() == 1158 % 1021, "producer wraps");
  expect(nestedRender(7, 0) == "7" && nestedRender(7, 2) == "[[7]]",
         "nested render");
  expect(renderIntList({}) == "[]" && renderIntList({1, -2}) == "[1, -2]",
         "list render");
  for (const std::string &Name : workloadNames()) {
    auto Programs = makeWorkload(Name, 7);
    expect(Programs && !Programs->empty(), "every workload generates");
    auto Again = makeWorkload(Name, 7);
    expect(Again && Again->front().Source == Programs->front().Source,
           "same seed, same programs");
  }
  expect(!makeWorkload("no_such_workload", 1), "unknown workload rejected");
  std::cout << (Failures ? "reference self-test failed\n"
                         : "reference self-test passed\n");
  return Failures ? 1 : 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (Flag == "--corrupt-reference") {
      A.CorruptReference = true;
      continue;
    }
    if (Flag == "--rss-probe") {
      A.RssProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
    } else if (Flag == "--trace") {
      A.Trace = std::strcmp(Value, "1") == 0;
      HaveTrace = A.Trace || std::strcmp(Value, "0") == 0;
    } else if (Flag == "--spans") {
      A.SpansPath = Value;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return A.SelfTest || (HaveWorkload && HaveTrace && A.Seconds > 0);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n"
                 "       perfbench --self-test\n";
    return 2;
  }
  if (A.SelfTest)
    return selfTest();
  if (!makeWorkload(A.Workload, A.Seed)) {
    std::cerr << "perfbench: unknown workload '" << A.Workload << "'\n";
    return 2;
  }

  if (A.RssProbe)
    return rssProbe(A);

  std::cout << "perfbench: workload " << A.Workload << ", seed " << A.Seed
            << ", " << formatNumber(A.Seconds) << " s, trace "
            << (A.Trace ? 1 : 0) << "\n";
  Tally T;
  Workload W = setUp(A, T);
  std::vector<Metric> Metrics =
      A.Trace ? runTraced(A, W, T) : runEndToEnd(A, W, T);
  printResult(T, Metrics);
  return T.Failed == 0 ? 0 : 1;
}
