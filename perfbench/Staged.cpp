//===- Staged.cpp ---------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "Staged.h"

#include "escape/EscapeAnalyzer.h"
#include "lang/Parser.h"
#include "opt/AllocPlanner.h"
#include "opt/ReuseTransform.h"
#include "runtime/ValuePrinter.h"
#include "sharing/SharingAnalysis.h"
#include "types/TypeInference.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"

#include <cstdint>
#include <fstream>
#include <memory>

using namespace eal;
using namespace perfbench;

int32_t SpanLog::open(const char *Name, uint32_t Program) {
  Span S;
  S.Name = Name;
  S.Program = Program;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  Spans.push_back(S);
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  OpenStack.push_back(Index);
  Spans[Index].StartNs = nowNs();
  return Index;
}

void SpanLog::close(int32_t Index) {
  int64_t End = nowNs();
  Span &S = Spans[Index];
  S.EndNs = End;
  OpenStack.pop_back();
  if (S.Parent >= 0)
    Spans[S.Parent].ChildNs += End - S.StartNs;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"traceEvents\": [";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"name\": \"" << S.Name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.Program
        << ", \"ts\": " << (S.StartNs - Origin) / 1e3
        << ", \"dur\": " << (S.EndNs - S.StartNs) / 1e3
        << ", \"args\": {\"id\": " << I << ", \"parent\": " << S.Parent
        << ", \"self_us\": " << S.selfNs() / 1e3 << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

PipelineOptions perfbench::productionOptions() {
  PipelineOptions Options;
  Options.Engine = ExecutionEngine::Bytecode;
  return Options;
}

namespace {

/// Keeps one span open for its lifetime.
class Scope {
public:
  Scope(SpanLog &Log, const char *Name, uint32_t Program)
      : Log(Log), Index(Log.open(Name, Program)) {}
  ~Scope() { Log.close(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  int32_t Index;
};

} // namespace

StagedResult perfbench::runStaged(const std::string &Source, SpanLog &Log,
                                  uint32_t Id) {
  const PipelineOptions Options = productionOptions();
  OptimizerConfig Config = Options.Optimize;
  Config.Mode = Options.Mode;

  // Declared in dependency order: the VM borrows the chunk, the chunk
  // the plan's directives, the planner the final analyzer, and the
  // result value lives in the VM's heap.
  SourceManager SM;
  DiagnosticEngine Diags;
  AstContext Ast;
  TypeContext Types;
  std::optional<TypedProgram> Typed, Final;
  ProgramEscapeReport BaseEscape;
  ReuseTransformResult Reuse;
  std::unique_ptr<EscapeAnalyzer> FinalAnalyzer;
  AllocationPlan Plan;
  std::optional<Chunk> Code;
  std::unique_ptr<Vm> TheVm;
  std::optional<RtValue> Value;
  StagedResult Out;

  SM.setBuffer(Source, Options.SourceName);
  [&] {
    Scope Program(Log, "program", Id);
    const Expr *Parsed = nullptr;
    {
      Scope S(Log, "lang.parse", Id);
      Parser P(SM.buffer(), Ast, Diags);
      Parsed = P.parseProgram();
    }
    Out.AstNodes = Ast.numNodes();
    if (!Parsed)
      return;
    {
      Scope S(Log, "types.infer", Id);
      TypeInference TI(Ast, Types, Diags, Options.Mode);
      Typed = TI.run(Parsed);
    }
    if (!Typed)
      return;

    // optimizeProgram's phases.
    const Expr *FinalRoot = Typed->root();
    {
      Scope Optimize(Log, "optimize", Id);
      {
        Scope S(Log, "escape.base", Id);
        EscapeAnalyzer BaseAnalyzer(Ast, *Typed, Diags, 512, Config.Analysis);
        BaseEscape = BaseAnalyzer.analyzeProgram();
      }
      if (Config.EnableReuse) {
        Scope S(Log, "sharing.reuse", Id);
        SharingAnalysis Sharing(Ast, *Typed, BaseEscape);
        ReuseTransform Transform(Ast, *Typed, BaseEscape, Sharing);
        if (auto Result = Transform.run()) {
          Reuse = std::move(*Result);
          FinalRoot = Reuse.NewRoot;
        }
      }
      {
        Scope S(Log, "types.retype", Id);
        TypeInference TI(Ast, Types, Diags, Config.Mode);
        Final = TI.run(FinalRoot);
      }
      if (!Final)
        return;
      {
        Scope S(Log, "escape.final", Id);
        FinalAnalyzer = std::make_unique<EscapeAnalyzer>(Ast, *Final, Diags,
                                                         512, Config.Analysis);
        FinalAnalyzer->analyzeProgram();
      }
      if (Config.EnableStack || Config.EnableRegion) {
        Scope S(Log, "opt.plan", Id);
        AllocPlannerOptions PO;
        PO.EnableStack = Config.EnableStack;
        PO.EnableRegion = Config.EnableRegion;
        AllocPlanner Planner(Ast, *Final, *FinalAnalyzer, PO);
        Plan = Planner.run();
      }
    }

    {
      Scope S(Log, "vm.compile", Id);
      Code = compileToBytecode(Ast, FinalRoot, &Plan, Diags);
    }
    if (!Code)
      return;
    // The Vm::Options runPipeline derives from PipelineOptions::Run.
    Vm::Options VO;
    VO.HeapCapacity = Options.Run.HeapCapacity;
    VO.AllowHeapGrowth = Options.Run.AllowHeapGrowth;
    VO.MaxSteps = Options.Run.MaxSteps;
    VO.ValidateArenaFrees = Options.Run.ValidateArenaFrees;
    VO.Profiler = Options.Obs.Profile;
    VO.Spec = Options.Run.Spec;
    {
      Scope S(Log, "runtime.heap_init", Id);
      TheVm = std::make_unique<Vm>(*Code, Diags, VO);
    }
    {
      Scope S(Log, "vm.run", Id);
      Value = TheVm->run();
    }
    Out.Stats = TheVm->stats();
  }();

  Out.FixpointRounds = BaseEscape.FixpointRounds;
  Out.ApplyCacheEntries = BaseEscape.ApplyCacheEntries;
  Out.DistinctValues = BaseEscape.DistinctValues;
  Out.ReuseVersions = Reuse.Versions.size();
  for (const ReuseVersion &V : Reuse.Versions)
    Out.DconsSites += V.DconsSites.size();
  Out.PlanDirectives = Plan.Directives.size();
  for (const ArgArenaDirective &D : Plan.Directives)
    for (const auto &[SiteId, Class] : D.Sites)
      (Class == ArenaSiteClass::Stack ? Out.StackSites : Out.RegionSites) += 1;
  if (Code)
    Out.Instructions = Code->instructionCount();
  if (Value) {
    Out.Value = renderValue(*Value, SIZE_MAX);
    Out.Success = !Diags.hasErrors();
  }
  Out.Diagnostics = Diags.render(SM);
  return Out;
}
