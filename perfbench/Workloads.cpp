//===- Workloads.cpp ------------------------------------------------------==//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <numeric>
#include <random>

using namespace perfbench;

namespace {

/// Sizes fixed per workload (see BENCHMARK.json for why each was chosen).
constexpr unsigned ChainFunctions = 24;
constexpr unsigned NestingDepth = 200;
constexpr unsigned SortLength = 4000;
constexpr unsigned SmallLength = 16;
constexpr unsigned SumLength = 400;

/// A seeded value with exactly \p Digits decimal digits. Fixed widths keep
/// the source text, and so every allocation the pipeline makes, the same
/// size for every seed; otherwise malloc's packing, and with it peak RSS,
/// changes from seed to seed.
int64_t seeded(std::mt19937_64 &Rng, unsigned Digits) {
  int64_t Low = 1;
  for (unsigned I = 1; I < Digits; ++I)
    Low *= 10;
  return Low + static_cast<int64_t>(Rng() % (9 * Low));
}

/// The seeded order-preserving map v -> Scale * v + Offset; maps the
/// producers' 0..1020 to four-digit values.
struct ValueMap {
  int64_t Scale = 1;
  int64_t Offset = 0;

  explicit ValueMap(std::mt19937_64 &Rng)
      : Scale(1 + static_cast<int64_t>(Rng() % 4)),
        Offset(1000 + static_cast<int64_t>(Rng() % 1000)) {}

  int64_t operator()(int64_t V) const { return Scale * V + Offset; }
};

/// The Appendix A partition sort (append/split/ps), without a body.
const char *const SortPrelude = R"(letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  split p x l h = if (null x) then cons l (cons h nil)
                  else if (car x) <= p
                       then split p (cdr x) (cons (car x) l) h
                       else split p (cdr x) l (cons (car x) h);
  ps x = if (null x) then nil
         else append (ps (car (split (car x) (cdr x) nil nil)))
                     (cons (car x)
                           (ps (car (cdr (split (car x) (cdr x) nil nil)))))
)";

/// The A.3.3 producer with its elements mapped through \p M.
std::string createListBinding(const ValueMap &M) {
  return "  create_list i = if i = 0 then nil\n"
         "                  else cons ((i * 193 mod 1021) * " +
         std::to_string(M.Scale) + " + " + std::to_string(M.Offset) +
         ") (create_list (i - 1))\n";
}

/// The chain generator of bench_analysis_scalability: f_i calls f_{i-1}
/// and itself, so every function's escape value depends on all earlier
/// ones and the fixpoint has to settle the whole chain.
Program escapeChain(std::mt19937_64 &Rng) {
  std::vector<int64_t> Input = {seeded(Rng, 3), seeded(Rng, 3)};
  std::string Source = "letrec\n"
                       "  append x y = if (null x) then y\n"
                       "               else cons (car x) (append (cdr x) y);\n"
                       "  f0 l = if (null l) then nil\n"
                       "         else cons (car l) (f0 (cdr l));\n";
  for (unsigned I = 1; I != ChainFunctions; ++I) {
    std::string Name = "f" + std::to_string(I);
    std::string Prev = "f" + std::to_string(I - 1);
    Source += "  " + Name + " l = if (null l) then nil\n";
    Source += "     else append (" + Prev + " l) (cons (car l) (" + Name +
              " (cdr l)));\n";
  }
  Source += "  last l = l\n";
  Source += "in f" + std::to_string(ChainFunctions - 1) + " " + renderIntList(Input) +
            "\n";
  return {"escape_chain", Source,
          renderIntList(chainReference(ChainFunctions - 1, Input))};
}

Program nestedTypes(std::mt19937_64 &Rng) {
  int64_t X = seeded(Rng, 5);
  std::string Literal = nestedRender(X, NestingDepth);
  return {"nested_types", "letrec f x = x in f " + Literal + "\n", Literal};
}

Program sortGc(std::mt19937_64 &Rng) {
  ValueMap M(Rng);
  std::string Source = std::string(SortPrelude) + ";\n" + createListBinding(M) +
                       "in ps (create_list " + std::to_string(SortLength) +
                       ")\n";
  std::vector<int64_t> Sorted = producerList(SortLength, M.Scale, M.Offset);
  std::sort(Sorted.begin(), Sorted.end());
  return {"sort_gc", Source, renderIntList(Sorted)};
}

/// The four tiny paper programs of small_paper.
std::vector<Program> smallPaper(std::mt19937_64 &Rng) {
  std::vector<Program> Out;

  // A.3.1: partition sort of a literal (a fixed permutation, mapped).
  ValueMap M(Rng);
  std::vector<int64_t> Literal;
  for (int64_t V = 7; Literal.size() != SmallLength;) {
    V = (V * 197 + 31) % 1021;
    Literal.push_back(M(V));
  }
  std::vector<int64_t> Sorted = Literal;
  std::sort(Sorted.begin(), Sorted.end());
  Out.push_back({"a31_literal_sort",
                 std::string(SortPrelude) + "in ps " + renderIntList(Literal) + "\n",
                 renderIntList(Sorted)});

  // §1: map pair over a producer-built list of rows, folded by lenall;
  // every row [n + K, n + 1] becomes a two-element pair.
  int64_t K = seeded(Rng, 3);
  Out.push_back({"sec1_map_pair",
                 R"(letrec
  pair x = if (null x) then nil
           else cons (car x) (cons (car x) nil);
  map f l = if (null l) then nil
            else cons (f (car l)) (map f (cdr l));
  build n = if n = 0 then nil
            else cons (cons (n + )" +
                     std::to_string(K) + R"() (cons (n + 1) nil)) (build (n - 1));
  len l = if (null l) then 0 else 1 + len (cdr l);
  lenall l = if (null l) then 0 else len (car l) + lenall (cdr l)
in lenall (map pair (build )" +
                     std::to_string(SmallLength) + "))\n",
                 std::to_string(2 * SmallLength)});

  // A.3.2: naive reverse of a literal.
  std::vector<int64_t> RevInput;
  for (unsigned I = 0; I != SmallLength; ++I)
    RevInput.push_back(seeded(Rng, 3));
  std::vector<int64_t> Reversed(RevInput.rbegin(), RevInput.rend());
  Out.push_back({"a32_rev",
                 R"(letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil
          else append (rev (cdr l)) (cons (car l) nil)
in rev )" + renderIntList(RevInput) + "\n",
                 renderIntList(Reversed)});

  // A.3.3: sum over the producer; its spine goes to a region block.
  ValueMap SumMap(Rng);
  std::vector<int64_t> Produced =
      producerList(SumLength, SumMap.Scale, SumMap.Offset);
  Out.push_back(
      {"a33_sum",
       "letrec\n"
       "  sum l = if (null l) then 0 else car l + sum (cdr l);\n" +
           createListBinding(SumMap) + "in sum (create_list " +
           std::to_string(SumLength) + ")\n",
       std::to_string(
           std::accumulate(Produced.begin(), Produced.end(), int64_t(0)))});

  // The seed also picks the round-robin order (Fisher-Yates on the raw
  // engine output, which is the same on every platform).
  for (size_t I = Out.size() - 1; I != 0; --I)
    std::swap(Out[I], Out[Rng() % (I + 1)]);
  return Out;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "escape_chain", "nested_types", "sort_gc", "small_paper"};
  return Names;
}

std::optional<std::vector<Program>>
perfbench::makeWorkload(const std::string &Name, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  if (Name == "escape_chain")
    return std::vector<Program>{escapeChain(Rng)};
  if (Name == "nested_types")
    return std::vector<Program>{nestedTypes(Rng)};
  if (Name == "sort_gc")
    return std::vector<Program>{sortGc(Rng)};
  if (Name == "small_paper")
    return smallPaper(Rng);
  return std::nullopt;
}

std::vector<int64_t> perfbench::chainReference(unsigned Fn,
                                               const std::vector<int64_t> &L) {
  if (Fn == 0 || L.empty())
    return L;
  std::vector<int64_t> Out = chainReference(Fn - 1, L);
  Out.push_back(L.front());
  std::vector<int64_t> Rest =
      chainReference(Fn, std::vector<int64_t>(L.begin() + 1, L.end()));
  Out.insert(Out.end(), Rest.begin(), Rest.end());
  return Out;
}

std::vector<int64_t> perfbench::producerList(unsigned N, int64_t Scale,
                                             int64_t Offset) {
  std::vector<int64_t> Out;
  for (int64_t I = N; I != 0; --I)
    Out.push_back(Scale * (I * 193 % 1021) + Offset);
  return Out;
}

std::string perfbench::nestedRender(int64_t X, unsigned Depth) {
  return std::string(Depth, '[') + std::to_string(X) + std::string(Depth, ']');
}

std::string perfbench::renderIntList(const std::vector<int64_t> &L) {
  std::string Out = "[";
  for (size_t I = 0; I != L.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += std::to_string(L[I]);
  }
  return Out + "]";
}
