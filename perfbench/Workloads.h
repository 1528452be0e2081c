//===- Workloads.h - Seeded benchmark programs and their references -------===//
//
// Part of eal, a reproduction of "Escape Analysis on Lists"
// (Park & Goldberg, PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads. Each one is a fixed program shape whose list
/// values come from the seed, together with the value the program must
/// print, computed here in C++ (never by the pipeline under test).
///
/// The seed changes values only through order-preserving maps, so every
/// seed drives the same evaluation: the partition sort's recursion follows
/// the relative order of its input, and most multipliers of the A.3.3
/// producer `i * A mod 1021` make the first-element pivot quadratic.
///
//===----------------------------------------------------------------------===//

#ifndef EAL_PERFBENCH_WORKLOADS_H
#define EAL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One generated nml program and its expected full rendering, in the
/// format of renderValue(V, SIZE_MAX).
struct Program {
  std::string Name;
  std::string Source;
  std::string Expected;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// The distinct programs of workload \p Name under \p Seed, in the order
/// the closed loop cycles through them; nullopt for an unknown name.
std::optional<std::vector<Program>> makeWorkload(const std::string &Name,
                                                 uint64_t Seed);

//===--- References (exposed for the self-test) ---------------------------==//

/// f_Fn of the escape_chain generator: f_0 copies its list, and
/// f_i l = f_{i-1} l ++ [car l] ++ f_i (cdr l).
std::vector<int64_t> chainReference(unsigned Fn, const std::vector<int64_t> &L);

/// The list `create_list N` builds when element i is Scale * (i * 193 mod
/// 1021) + Offset: the elements for i = N down to 1.
std::vector<int64_t> producerList(unsigned N, int64_t Scale, int64_t Offset);

/// X wrapped in \p Depth singleton lists: "[[X]]" for Depth 2.
std::string nestedRender(int64_t X, unsigned Depth);

/// "[1, 2, 3]".
std::string renderIntList(const std::vector<int64_t> &L);

} // namespace perfbench

#endif // EAL_PERFBENCH_WORKLOADS_H
