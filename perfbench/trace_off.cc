// Untraced build: no wrappers are linked, so nothing can be recorded.

#include "trace.h"

namespace perfbench {

bool TraceAvailable() { return false; }
void TraceStart() {}
void TraceStop() {}
std::string TraceJson() { return "{}"; }

}  // namespace perfbench
