// A replacement global operator new that counts every heap allocation the
// process makes. Binaries that report or assert heap traffic link the
// `scio_counting_new` object library (bench_micro_engine, engine_alloc_test)
// and read the count around the code under test.

#ifndef BENCH_COUNTING_NEW_H_
#define BENCH_COUNTING_NEW_H_

#include <cstdint>

namespace scio {

// Global operator new / new[] calls so far, all threads.
uint64_t HeapAllocCount();

}  // namespace scio

#endif  // BENCH_COUNTING_NEW_H_
