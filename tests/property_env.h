// Environment knobs shared by the seeded property harnesses
// (joins_property_test, exec_diff_test, property_test), so the CI property
// job can widen all of them the same way:
//   CITUSX_PROPERTY_SEED    generator seed (property_test: its seed base)
//   CITUSX_PROPERTY_ROUNDS  generated queries (not read by property_test)
// Each harness keeps its own defaults, so a plain run replays its
// committed seed.
#ifndef CITUSX_TESTS_PROPERTY_ENV_H_
#define CITUSX_TESTS_PROPERTY_ENV_H_

#include <cstdint>
#include <cstdlib>

namespace citusx::test {

/// The integer in environment variable `name`, or `fallback` when it is
/// unset or empty.
inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::atoll(v);
}

}  // namespace citusx::test

#endif  // CITUSX_TESTS_PROPERTY_ENV_H_
