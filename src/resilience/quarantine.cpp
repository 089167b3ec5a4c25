#include "resilience/quarantine.hpp"

namespace ht::resilience {

void QuarantineSweep::operator()(ThreadContext& self, ThreadContext& victim) {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (enumerate_) {
    enumerate_([&](ObjectMeta& m) {
      if (seize_object(self, m, victim.id, land_pessimistic_)) {
        objects_seized_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  if (seal_) seal_(victim.id);
}

}  // namespace ht::resilience
