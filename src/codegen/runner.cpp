#include "codegen/runner.hpp"

#include <string>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "host/kinds.hpp"
#include "stream/graph.hpp"

namespace fblas::codegen {
namespace {

/// Typed implementation; the design's precision picks T. The design runs
/// as feed -> its kind's module from the per-kind table -> collect.
template <typename T>
Level1Result run_typed(const GeneratedDesign& design, stream::Mode mode,
                       const Level1Inputs& in) {
  const RoutineSpec& spec = design.spec;
  const RoutineInfo& info = routine_info(spec.kind);
  if (info.level != 1) {
    throw ConfigError("run_level1 supports Level-1 routines only; '" +
                      std::string(info.name) + "' is Level " +
                      std::to_string(info.level));
  }
  host::kinds::Call<T> c;
  c.n = static_cast<std::int64_t>(in.x.size());
  c.alpha = static_cast<T>(in.alpha);
  c.c = static_cast<T>(in.c);
  c.s = static_cast<T>(in.s);
  // ROTM runs with H from flag 0: [1 s; -s 1].
  c.param = {T(0), T(0), static_cast<T>(-in.s), static_cast<T>(in.s), T(0)};
  c.width = design.level1_config().width;

  // Input port k streams the first len values of x (operand 0) or y.
  const auto ports = host::kinds::kind_of<T>(spec.kind).ports(c);
  std::vector<std::vector<T>> feeds;
  for (int p = 0; p < info.inputs; ++p) {
    const std::vector<double>& src = ports[p].operand == 0 ? in.x : in.y;
    const auto len = static_cast<std::size_t>(ports[p].len);
    FBLAS_REQUIRE(src.size() >= len, "run_level1: too few input values");
    feeds.emplace_back(src.begin(), src.begin() + static_cast<long>(len));
  }

  stream::Graph g(mode);
  host::kinds::Fed<T> fed;
  host::kinds::build_fed<T>(g, spec.kind, c, spec.user_name, std::move(feeds),
                            fed);
  g.run();

  // An output that updates y in place comes back in out_y, every other
  // vector output in out_x.
  Level1Result result;
  result.cycles = g.cycles();
  for (std::size_t p = static_cast<std::size_t>(info.inputs); p < ports.size();
       ++p) {
    const auto& vals = fed.out[p - static_cast<std::size_t>(info.inputs)];
    if (ports[p].kind == host::kinds::PortKind::Index) {
      result.index = fed.index.at(0);
    } else if (ports[p].kind == host::kinds::PortKind::Scalar) {
      result.scalar = static_cast<double>(vals.at(0));
    } else {
      const bool updates_y =
          ports[p].operand == 1 && info.inputs > 1 && ports[1].operand == 1;
      (updates_y ? result.out_y : result.out_x).assign(vals.begin(),
                                                       vals.end());
    }
  }
  return result;
}

}  // namespace

Level1Result run_level1(const GeneratedDesign& design, stream::Mode mode,
                        const Level1Inputs& inputs) {
  if (design.spec.precision == Precision::Single) {
    return run_typed<float>(design, mode, inputs);
  }
  return run_typed<double>(design, mode, inputs);
}

}  // namespace fblas::codegen
