// Layer-boundary tracing for the benchmark harness. The traced binary links
// trace_wrap.cc, whose wrappers ld substitutes for the library's exported
// entry points (-Wl,--wrap=<mangled symbol>); the plain binary links
// trace_off.cc, whose stubs record nothing. The library itself is built from
// src/ unchanged either way.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>

namespace perfbench {

// True in the traced binary.
bool TraceAvailable();

// Clears every boundary's totals and starts recording.
void TraceStart();

// Stops recording; totals stay readable.
void TraceStop();

// {"<boundary>": {"calls": n, "bytes": n, "self_ns": n}, ...}; "{}" when
// tracing is unavailable.
std::string TraceJson();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
