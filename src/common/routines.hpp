// Metadata for the 22 BLAS routines FBLAS offers (Sec. VI: all Level-1
// plus all generic Level-2/3 routines). Shared by the core library, the
// space/time models, the code generator and the host API.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace fblas {

enum class RoutineKind {
  // Level 1
  Rotg,
  Rotmg,
  Rot,
  Rotm,
  Swap,
  Scal,
  Copy,
  Axpy,
  Dot,
  Sdsdot,
  Nrm2,
  Asum,
  Iamax,
  // Level 2
  Gemv,
  Trsv,
  Ger,
  Syr,
  Syr2,
  // Level 3
  Gemm,
  Syrk,
  Syr2k,
  Trsm,
};

inline constexpr int kRoutineCount = 22;

/// Computational class of the inner circuit (Sec. IV-A): a map (independent
/// per-element work), a map-reduce (accumulation), or the 2-D systolic
/// array used by Level-3 (Sec. III-C).
enum class CircuitClass { Map, MapReduce, Systolic };

struct RoutineInfo {
  RoutineKind kind;
  std::string_view name;  ///< lowercase BLAS name without precision prefix
  int level;              ///< BLAS level (1, 2 or 3)
  CircuitClass circuit;
  /// Input operands consumed per clock cycle per unit of vectorization
  /// width (e.g. DOT pops 2W: x and y), used by the optimal-width model.
  int operands_per_width;
  /// Useful floating-point operations per element pair processed (DOT: 2 —
  /// one multiply + one add; SCAL: 1; GEMV/GEMM: 2 per MAC).
  int ops_per_element;
  bool streams_matrix;  ///< has a tiled 2-D operand
  /// Input ports of the streaming module (host/kinds.hpp).
  int inputs;
  /// Fewest input edges a composition may give it: the rest are
  /// synthesized zeros (GEMV without y0).
  int min_inputs;
  /// Whether mdag::compile lowers it inside a composition.
  bool composable;
};

/// Metadata lookup; every RoutineKind has an entry.
const RoutineInfo& routine_info(RoutineKind kind);

/// Parses a lowercase routine name ("dot", "gemv", ...). Throws ConfigError
/// for unknown names.
RoutineKind routine_from_name(std::string_view name);

/// All 22 routines, in declaration order.
const RoutineInfo* all_routines();

}  // namespace fblas
