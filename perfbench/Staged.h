//===- Staged.h - The pipeline one layer at a time, with spans -*- C++ -*-===//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of eal::runPipeline: the same public calls in the
/// same order (runPipelineImpl, then optimizeProgram's phases), each
/// wrapped in a span. Spans live in memory and are written once, at the
/// end of the run.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_PERFBENCH_STAGED_H
#define EAL_PERFBENCH_STAGED_H

#include "driver/Pipeline.h"
#include "runtime/RuntimeStats.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One layer boundary crossed while running one program.
struct Span {
  const char *Name = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in SpanLog::spans(), -1 for a root.
  int32_t Parent = -1;
  /// Every span of one program execution carries its id.
  uint32_t Program = 0;
  /// Duration minus the time covered by direct children (filled in by
  /// SpanLog::close as the children close first).
  int64_t ChildNs = 0;

  int64_t selfNs() const { return EndNs - StartNs - ChildNs; }
};

/// An append-only span store with an open-span stack.
class SpanLog {
public:
  /// Opens a span under the innermost open one; returns its index.
  int32_t open(const char *Name, uint32_t Program);
  void close(int32_t Index);

  const std::vector<Span> &spans() const { return Spans; }
  /// Writes every span as Chrome trace_event JSON ("X" events, one
  /// thread per program id). Returns false on I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> OpenStack;
};

/// What a staged execution produced, in the terms the parity check and
/// the per-layer metrics need.
struct StagedResult {
  bool Success = false;
  std::string Diagnostics;
  /// renderValue(V, SIZE_MAX).
  std::string Value;
  eal::RuntimeStats Stats;

  uint64_t AstNodes = 0;
  uint64_t FixpointRounds = 0;
  uint64_t ApplyCacheEntries = 0;
  uint64_t DistinctValues = 0;
  uint64_t ReuseVersions = 0;
  uint64_t DconsSites = 0;
  uint64_t PlanDirectives = 0;
  uint64_t StackSites = 0;
  uint64_t RegionSites = 0;
  uint64_t Instructions = 0;
};

/// The configuration every benchmark call runs in: the bytecode engine,
/// with reuse, stack and region on (OptimizerConfig's defaults) and every
/// other field at its PipelineOptions default, so the heap starts at
/// 16384 cells and the recorder's lite tier stays on as it does for users.
eal::PipelineOptions productionOptions();

/// Runs \p Source through parse, type inference, base escape, sharing +
/// reuse, retype, final escape, plan, bytecode compile, VM construction
/// and VM run under productionOptions(), recording one span per layer
/// into \p Log.
StagedResult runStaged(const std::string &Source, SpanLog &Log,
                       uint32_t ProgramId);

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace perfbench

#endif // EAL_PERFBENCH_STAGED_H
