#include "common/routines.hpp"

#include <array>

#include "common/error.hpp"

namespace fblas {
namespace {

constexpr std::array<RoutineInfo, kRoutineCount> kRoutines{{
    // kind, name, level, circuit, operands/W, ops/elem, matrix, inputs,
    // min inputs, composable
    {RoutineKind::Rotg, "rotg", 1, CircuitClass::Map, 2, 4, false, 1, 1, false},
    {RoutineKind::Rotmg, "rotmg", 1, CircuitClass::Map, 4, 8, false, 1, 1, false},
    {RoutineKind::Rot, "rot", 1, CircuitClass::Map, 2, 6, false, 2, 2, false},
    {RoutineKind::Rotm, "rotm", 1, CircuitClass::Map, 2, 6, false, 2, 2, false},
    {RoutineKind::Swap, "swap", 1, CircuitClass::Map, 2, 0, false, 2, 2, false},
    {RoutineKind::Scal, "scal", 1, CircuitClass::Map, 1, 1, false, 1, 1, true},
    {RoutineKind::Copy, "copy", 1, CircuitClass::Map, 1, 0, false, 1, 1, false},
    {RoutineKind::Axpy, "axpy", 1, CircuitClass::Map, 2, 2, false, 2, 2, true},
    {RoutineKind::Dot, "dot", 1, CircuitClass::MapReduce, 2, 2, false, 2, 2, true},
    {RoutineKind::Sdsdot, "sdsdot", 1, CircuitClass::MapReduce, 2, 2, false, 2, 2, false},
    {RoutineKind::Nrm2, "nrm2", 1, CircuitClass::MapReduce, 1, 2, false, 1, 1, false},
    {RoutineKind::Asum, "asum", 1, CircuitClass::MapReduce, 1, 1, false, 1, 1, false},
    {RoutineKind::Iamax, "iamax", 1, CircuitClass::MapReduce, 1, 1, false, 1, 1, false},
    {RoutineKind::Gemv, "gemv", 2, CircuitClass::MapReduce, 2, 2, true, 3, 2, true},
    {RoutineKind::Trsv, "trsv", 2, CircuitClass::MapReduce, 1, 2, true, 2, 2, true},
    {RoutineKind::Ger, "ger", 2, CircuitClass::Map, 1, 2, true, 3, 3, true},
    {RoutineKind::Syr, "syr", 2, CircuitClass::Map, 1, 2, true, 3, 3, false},
    {RoutineKind::Syr2, "syr2", 2, CircuitClass::Map, 1, 4, true, 5, 5, false},
    {RoutineKind::Gemm, "gemm", 3, CircuitClass::Systolic, 2, 2, true, 3, 3, false},
    {RoutineKind::Syrk, "syrk", 3, CircuitClass::Systolic, 2, 2, true, 3, 3, false},
    {RoutineKind::Syr2k, "syr2k", 3, CircuitClass::Systolic, 2, 4, true, 5, 5, false},
    {RoutineKind::Trsm, "trsm", 3, CircuitClass::Systolic, 1, 2, true, 2, 2, false},
}};

}  // namespace

const RoutineInfo& routine_info(RoutineKind kind) {
  for (const auto& r : kRoutines) {
    if (r.kind == kind) return r;
  }
  throw ConfigError("unknown routine kind");
}

RoutineKind routine_from_name(std::string_view name) {
  // Accept an optional precision prefix ("sdot" -> "dot"); "sdsdot" is
  // checked first since its 's' is part of the name itself.
  for (const auto& r : kRoutines) {
    if (r.name == name) return r.kind;
  }
  if (name.size() > 1 && (name.front() == 's' || name.front() == 'd')) {
    const std::string_view stripped = name.substr(1);
    for (const auto& r : kRoutines) {
      if (r.name == stripped) return r.kind;
    }
  }
  throw ConfigError("unknown routine name: '" + std::string(name) + "'");
}

const RoutineInfo* all_routines() { return kRoutines.data(); }

}  // namespace fblas
