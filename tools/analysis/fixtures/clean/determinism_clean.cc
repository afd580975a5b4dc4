// Analyzer self-test fixture: idiomatic longlook code that must produce
// ZERO findings. Includes near-misses that a sloppy determinism rule would
// flag:
//  * violations inside comments (the lexer strips comments first);
//  * ordered containers with pointer VALUES (only pointer KEYS iterate in
//    allocation order);
//  * initialized POD members.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

// std::rand() and steady_clock::now() in a comment must not fire.
/* Nor std::unordered_map<int, int> in a block comment. */

struct Timer;

struct CleanPod {
  int initialized_member = 0;
  double also_initialized = 1.5;
  std::uint64_t counter = 0;
};

void clean() {
  // Pointer values are fine; the hazard is pointer keys.
  std::map<std::uint64_t, Timer*> timers_by_id;
  std::map<std::string, int> by_name;
  std::vector<int> ints(4, 0);
  for (const auto& [id, t] : timers_by_id) {
    (void)id;
    (void)t;
  }
  (void)by_name;
}
