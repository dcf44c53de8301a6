// Heap-call counter for nnfv_tests. heap_counter.cpp replaces every
// global operator new/delete variant in the test binary with a
// malloc/free-backed version that bumps one relaxed counter per
// allocation, so a test can assert that a region makes no heap calls:
//
//   const std::uint64_t before = nnfv::test::heap_calls();
//   ... region under test ...
//   EXPECT_EQ(nnfv::test::heap_calls() - before, 0u);
//
// The counter is process-wide: keep other threads quiet while a region
// is measured.
#pragma once

#include <cstdint>

namespace nnfv::test {

/// operator new calls (every variant) made so far by the whole process.
std::uint64_t heap_calls();

}  // namespace nnfv::test
