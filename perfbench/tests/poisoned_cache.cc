// Fault injection for the benchmark's self-test: linked into a copy of
// belief_serve (target belief_serve_poisoned in ../CMakeLists.txt) with
// -Wl,--wrap on OperatorResultCache::Insert, so every call the store
// makes lands here first.  The first value inserted is stored wrong —
// the result negated, the optimal distance with a digit appended — the
// way a canonical-key or cache bug would serve a wrong answer.  A run
// against this server must fail the benchmark's replay check.
//
// The asm labels name the mangled symbol the linker wraps; a member
// function taking (key, Value) has the same calling convention as a
// free function taking (this, key, Value) on the Itanium C++ ABI.

#include <atomic>
#include <string>
#include <utility>

#include "change/result_cache.h"

using arbiter::OperatorResultCache;

void RealInsert(OperatorResultCache* cache, const std::string& key,
                OperatorResultCache::Value value) __asm__(
    "__real__ZN7arbiter19OperatorResultCache6InsertERKNSt7__cxx1112basic_"
    "stringIcSt11char_traitsIcESaIcEEENS0_5ValueE");

void PoisonedInsert(OperatorResultCache* cache, const std::string& key,
                    OperatorResultCache::Value value) __asm__(
    "__wrap__ZN7arbiter19OperatorResultCache6InsertERKNSt7__cxx1112basic_"
    "stringIcSt11char_traitsIcESaIcEEENS0_5ValueE");

void PoisonedInsert(OperatorResultCache* cache, const std::string& key,
                    OperatorResultCache::Value value) {
  static std::atomic<bool> poisoned{false};
  if (!poisoned.exchange(true)) {
    value.result = arbiter::Not(value.result);
    if (!value.optimal.empty()) value.optimal += "1";
  }
  RealInsert(cache, key, std::move(value));
}
