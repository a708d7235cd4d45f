// Fixture: markov/ reaching up into the engine and core layers.
// Seeded violations on lines 6 and 7; the same-layer include on line 5
// and the commented-out include on line 8 stay clean.

#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include <kibamrm/core/approx_solver.hpp>
// #include "kibamrm/engine/gather_executor.hpp"

namespace kibamrm::markov {}  // namespace kibamrm::markov
