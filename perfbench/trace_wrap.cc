// Link-time wrappers around the library's layer entry points.
//
// perfbench/CMakeLists.txt passes -Wl,--wrap=<symbol> for every symbol named
// in a PB_WRAP(...) label below, so each call that crosses object files into
// that symbol lands in the matching wrapper, which times it and forwards to
// the original via __real_<symbol>. Calls made inside the defining object
// file (e.g. RdmaEngine::PostSend -> PostWr) and inline header code
// (Simulator::Schedule) cannot be wrapped; their time stays in the self time
// of the innermost wrapped caller, ultimately Simulator::RunUntil, which is
// reported as sim.residual_self_ms.
//
// The __real_ references are weak: if a later change renames or re-types an
// entry point, the traced build still links and that boundary reports zero
// calls instead of breaking the benchmark.
//
// Self time of a boundary = its span minus the spans of wrapped boundaries
// it (transitively) called. Spans are kept as a stack of child-time
// accumulators; the simulator drains serially, so one stack suffices. Spans
// are timed with the x86 time-stamp counter (a few ns per read, against
// ~20 ns for steady_clock), converted to nanoseconds with the tick rate
// measured against steady_clock over the traced phase.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/dne/network_engine.h"
#include "src/dpu/comch.h"
#include "src/ingress/gateway.h"
#include "src/mem/buffer.h"
#include "src/rdma/control_plane.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rdma_engine.h"
#include "src/runtime/message_header.h"
#include "src/sim/link.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/transport/http.h"
#include "trace.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#define PB_REAL(sym) __asm__("__real_" #sym) __attribute__((weak))
#define PB_WRAP(sym) __asm__("__wrap_" #sym)

namespace perfbench {
namespace {

enum Boundary : int {
  kRunUntil,
  kChecksum,
  kWriteMessage,
  kReadMessage,
  kRewriteHeader,
  kFifoSubmit,
  kLinkTransfer,
  kFabricSend,
  kPostSend,
  kComchSendToDpu,
  kComchSendToHost,
  kSendFromFunction,
  kConnAcquire,
  kParseRequest,
  kSubmitRequest,
  kBoundaryCount,
};

constexpr const char* kBoundaryNames[kBoundaryCount] = {
    "Simulator::RunUntil",        "Checksum",
    "WriteMessage",               "ReadMessage",
    "RewriteHeader",              "FifoResource::Submit",
    "Link::Transfer",             "Fabric::Send",
    "RdmaEngine::PostSend",       "ComchServer::SendToDpu",
    "ComchServer::SendToHost",    "NetworkEngine::SendFromFunction",
    "ConnectionService::Acquire", "HttpCodec::ParseRequest",
    "IngressGateway::SubmitRequest",
};

struct Totals {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  int64_t self_ticks = 0;
};

constexpr int kMaxDepth = 256;

bool g_recording = false;
Totals g_totals[kBoundaryCount];
// g_child_ticks[d] accumulates the time of spans nested directly inside the
// span at depth d; depth 0 is the (untimed) harness itself.
int64_t g_child_ticks[kMaxDepth + 1];
int g_depth = 0;
// Tick and clock readings at TraceStart and TraceStop, for the tick rate.
int64_t g_ticks[2];
int64_t g_ns[2];

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Ticks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

[[noreturn]] void MissingReal(const char* name) {
  std::fprintf(stderr, "perfbench: wrapped entry point %s was called but not linked\n", name);
  std::abort();
}

// RAII span around one wrapped call; inert while recording is off.
class Span {
 public:
  explicit Span(Boundary boundary, uint64_t bytes = 0) : boundary_(boundary) {
    if (!g_recording) {
      return;
    }
    if (g_depth == kMaxDepth) {
      std::fprintf(stderr, "perfbench: span stack overflow\n");
      std::abort();
    }
    active_ = true;
    g_child_ticks[++g_depth] = 0;
    Totals& t = g_totals[boundary_];
    ++t.calls;
    t.bytes += bytes;
    start_ = Ticks();
  }
  ~Span() {
    if (!active_) {
      return;
    }
    const int64_t duration = Ticks() - start_;
    g_totals[boundary_].self_ticks += duration - g_child_ticks[g_depth];
    --g_depth;
    g_child_ticks[g_depth] += duration;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Boundary boundary_;
  bool active_ = false;
  int64_t start_ = 0;
};

#ifdef PERFBENCH_SPIN_NS_PER_KIB
// Sensitivity self-test only: a known host delay proportional to the bytes
// hashed, standing in for a slower Checksum. It spins on the tick counter,
// whose rate is measured once against steady_clock, so short delays are not
// swamped by clock reads.
void Spin(uint64_t bytes) {
  static const double ticks_per_ns = [] {
    const int64_t ticks = Ticks();
    const int64_t ns = NowNs();
    while (NowNs() - ns < 2'000'000) {
    }
    return static_cast<double>(Ticks() - ticks) / static_cast<double>(NowNs() - ns);
  }();
  const int64_t until =
      Ticks() + static_cast<int64_t>(static_cast<double>(bytes * PERFBENCH_SPIN_NS_PER_KIB) /
                                     1024.0 * ticks_per_ns);
  while (Ticks() < until) {
  }
}
#else
void Spin(uint64_t) {}
#endif

}  // namespace

bool TraceAvailable() { return true; }

void TraceStart() {
  for (Totals& t : g_totals) {
    t = Totals{};
  }
  g_depth = 0;
  g_child_ticks[0] = 0;
  g_ns[0] = NowNs();
  g_ticks[0] = Ticks();
  g_recording = true;
}

void TraceStop() {
  if (g_recording) {
    g_ticks[1] = Ticks();
    g_ns[1] = NowNs();
  }
  g_recording = false;
}

std::string TraceJson() {
  const double ns_per_tick = g_ticks[1] > g_ticks[0]
                                 ? static_cast<double>(g_ns[1] - g_ns[0]) /
                                       static_cast<double>(g_ticks[1] - g_ticks[0])
                                 : 0.0;
  std::string out = "{";
  for (int b = 0; b < kBoundaryCount; ++b) {
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"calls\": %llu, \"bytes\": %llu, \"self_ns\": %lld}",
                  b == 0 ? "" : ", ", kBoundaryNames[b],
                  static_cast<unsigned long long>(g_totals[b].calls),
                  static_cast<unsigned long long>(g_totals[b].bytes),
                  static_cast<long long>(g_totals[b].self_ticks * ns_per_tick));
    out += entry;
  }
  return out + "}";
}

}  // namespace perfbench

// --- Wrappers ----------------------------------------------------------------
// Member functions are declared as free functions taking `self` first, which
// is how the Itanium C++ ABI passes `this`.

using perfbench::Span;
namespace pb = perfbench;
namespace nd = nadino;

void RealRunUntil(nd::Simulator*, nd::SimTime) PB_REAL(_ZN6nadino9Simulator8RunUntilEl);
void WrapRunUntil(nd::Simulator* self, nd::SimTime deadline)
    PB_WRAP(_ZN6nadino9Simulator8RunUntilEl);
void WrapRunUntil(nd::Simulator* self, nd::SimTime deadline) {
  if (RealRunUntil == nullptr) pb::MissingReal("Simulator::RunUntil");
  Span span(pb::kRunUntil);
  RealRunUntil(self, deadline);
}

uint64_t RealChecksum(std::span<const std::byte>)
    PB_REAL(_ZN6nadino8ChecksumESt4spanIKSt4byteLm18446744073709551615EE);
uint64_t WrapChecksum(std::span<const std::byte> bytes)
    PB_WRAP(_ZN6nadino8ChecksumESt4spanIKSt4byteLm18446744073709551615EE);
uint64_t WrapChecksum(std::span<const std::byte> bytes) {
  if (RealChecksum == nullptr) pb::MissingReal("Checksum");
  Span span(pb::kChecksum, bytes.size());
  pb::Spin(bytes.size());
  return RealChecksum(bytes);
}

bool RealWriteMessage(nd::Buffer*, nd::MessageHeader)
    PB_REAL(_ZN6nadino12WriteMessageEPNS_6BufferENS_13MessageHeaderE);
bool WrapWriteMessage(nd::Buffer* buffer, nd::MessageHeader header)
    PB_WRAP(_ZN6nadino12WriteMessageEPNS_6BufferENS_13MessageHeaderE);
bool WrapWriteMessage(nd::Buffer* buffer, nd::MessageHeader header) {
  if (RealWriteMessage == nullptr) pb::MissingReal("WriteMessage");
  Span span(pb::kWriteMessage, header.payload_length);
  return RealWriteMessage(buffer, header);
}

std::optional<nd::MessageHeader> RealReadMessage(const nd::Buffer&)
    PB_REAL(_ZN6nadino11ReadMessageERKNS_6BufferE);
std::optional<nd::MessageHeader> WrapReadMessage(const nd::Buffer& buffer)
    PB_WRAP(_ZN6nadino11ReadMessageERKNS_6BufferE);
std::optional<nd::MessageHeader> WrapReadMessage(const nd::Buffer& buffer) {
  if (RealReadMessage == nullptr) pb::MissingReal("ReadMessage");
  Span span(pb::kReadMessage, buffer.length);
  return RealReadMessage(buffer);
}

bool RealRewriteHeader(nd::Buffer*, nd::MessageHeader)
    PB_REAL(_ZN6nadino13RewriteHeaderEPNS_6BufferENS_13MessageHeaderE);
bool WrapRewriteHeader(nd::Buffer* buffer, nd::MessageHeader header)
    PB_WRAP(_ZN6nadino13RewriteHeaderEPNS_6BufferENS_13MessageHeaderE);
bool WrapRewriteHeader(nd::Buffer* buffer, nd::MessageHeader header) {
  if (RealRewriteHeader == nullptr) pb::MissingReal("RewriteHeader");
  Span span(pb::kRewriteHeader, header.payload_length);
  return RealRewriteHeader(buffer, header);
}

void RealFifoSubmit(nd::FifoResource*, nd::SimDuration, std::function<void()>)
    PB_REAL(_ZN6nadino12FifoResource6SubmitElSt8functionIFvvEE);
void WrapFifoSubmit(nd::FifoResource* self, nd::SimDuration service, std::function<void()> done)
    PB_WRAP(_ZN6nadino12FifoResource6SubmitElSt8functionIFvvEE);
void WrapFifoSubmit(nd::FifoResource* self, nd::SimDuration service, std::function<void()> done) {
  if (RealFifoSubmit == nullptr) pb::MissingReal("FifoResource::Submit");
  Span span(pb::kFifoSubmit);
  RealFifoSubmit(self, service, std::move(done));
}

void RealLinkTransfer(nd::Link*, uint64_t, std::function<void()>, nd::TenantId)
    PB_REAL(_ZN6nadino4Link8TransferEmSt8functionIFvvEEj);
void WrapLinkTransfer(nd::Link* self, uint64_t bytes, std::function<void()> delivered,
                      nd::TenantId tenant) PB_WRAP(_ZN6nadino4Link8TransferEmSt8functionIFvvEEj);
void WrapLinkTransfer(nd::Link* self, uint64_t bytes, std::function<void()> delivered,
                      nd::TenantId tenant) {
  if (RealLinkTransfer == nullptr) pb::MissingReal("Link::Transfer");
  Span span(pb::kLinkTransfer, bytes);
  RealLinkTransfer(self, bytes, std::move(delivered), tenant);
}

void RealFabricSend(nd::Fabric*, nd::NodeId, nd::NodeId, uint64_t, std::function<void()>,
                    nd::TenantId) PB_REAL(_ZN6nadino6Fabric4SendEjjmSt8functionIFvvEEj);
void WrapFabricSend(nd::Fabric* self, nd::NodeId src, nd::NodeId dst, uint64_t bytes,
                    std::function<void()> delivered, nd::TenantId tenant)
    PB_WRAP(_ZN6nadino6Fabric4SendEjjmSt8functionIFvvEEj);
void WrapFabricSend(nd::Fabric* self, nd::NodeId src, nd::NodeId dst, uint64_t bytes,
                    std::function<void()> delivered, nd::TenantId tenant) {
  if (RealFabricSend == nullptr) pb::MissingReal("Fabric::Send");
  Span span(pb::kFabricSend, bytes);
  RealFabricSend(self, src, dst, bytes, std::move(delivered), tenant);
}

bool RealPostSend(nd::RdmaEngine*, nd::QpNum, const nd::Buffer&, uint64_t, uint32_t)
    PB_REAL(_ZN6nadino10RdmaEngine8PostSendEjRKNS_6BufferEmj);
bool WrapPostSend(nd::RdmaEngine* self, nd::QpNum qp, const nd::Buffer& src, uint64_t wr_id,
                  uint32_t imm) PB_WRAP(_ZN6nadino10RdmaEngine8PostSendEjRKNS_6BufferEmj);
bool WrapPostSend(nd::RdmaEngine* self, nd::QpNum qp, const nd::Buffer& src, uint64_t wr_id,
                  uint32_t imm) {
  if (RealPostSend == nullptr) pb::MissingReal("RdmaEngine::PostSend");
  Span span(pb::kPostSend, src.length);
  return RealPostSend(self, qp, src, wr_id, imm);
}

bool RealSendToDpu(nd::ComchServer*, nd::FunctionId, const nd::BufferDescriptor&)
    PB_REAL(_ZN6nadino11ComchServer9SendToDpuEjRKNS_16BufferDescriptorE);
bool WrapSendToDpu(nd::ComchServer* self, nd::FunctionId fn, const nd::BufferDescriptor& desc)
    PB_WRAP(_ZN6nadino11ComchServer9SendToDpuEjRKNS_16BufferDescriptorE);
bool WrapSendToDpu(nd::ComchServer* self, nd::FunctionId fn, const nd::BufferDescriptor& desc) {
  if (RealSendToDpu == nullptr) pb::MissingReal("ComchServer::SendToDpu");
  Span span(pb::kComchSendToDpu);
  return RealSendToDpu(self, fn, desc);
}

bool RealSendToHost(nd::ComchServer*, nd::FunctionId, const nd::BufferDescriptor&)
    PB_REAL(_ZN6nadino11ComchServer10SendToHostEjRKNS_16BufferDescriptorE);
bool WrapSendToHost(nd::ComchServer* self, nd::FunctionId fn, const nd::BufferDescriptor& desc)
    PB_WRAP(_ZN6nadino11ComchServer10SendToHostEjRKNS_16BufferDescriptorE);
bool WrapSendToHost(nd::ComchServer* self, nd::FunctionId fn, const nd::BufferDescriptor& desc) {
  if (RealSendToHost == nullptr) pb::MissingReal("ComchServer::SendToHost");
  Span span(pb::kComchSendToHost);
  return RealSendToHost(self, fn, desc);
}

bool RealSendFromFunction(nd::NetworkEngine*, nd::FunctionRuntime*, const nd::BufferDescriptor&)
    PB_REAL(_ZN6nadino13NetworkEngine16SendFromFunctionEPNS_15FunctionRuntimeERKNS_16BufferDescriptorE);
bool WrapSendFromFunction(nd::NetworkEngine* self, nd::FunctionRuntime* src,
                          const nd::BufferDescriptor& desc)
    PB_WRAP(_ZN6nadino13NetworkEngine16SendFromFunctionEPNS_15FunctionRuntimeERKNS_16BufferDescriptorE);
bool WrapSendFromFunction(nd::NetworkEngine* self, nd::FunctionRuntime* src,
                          const nd::BufferDescriptor& desc) {
  if (RealSendFromFunction == nullptr) pb::MissingReal("NetworkEngine::SendFromFunction");
  Span span(pb::kSendFromFunction);
  return RealSendFromFunction(self, src, desc);
}

nd::ConnectionService::Acquired RealAcquire(nd::ConnectionService*, nd::NodeId, nd::TenantId,
                                            uint64_t)
    PB_REAL(_ZN6nadino17ConnectionService7AcquireEjjm);
nd::ConnectionService::Acquired WrapAcquire(nd::ConnectionService* self, nd::NodeId peer,
                                            nd::TenantId tenant, uint64_t stream)
    PB_WRAP(_ZN6nadino17ConnectionService7AcquireEjjm);
nd::ConnectionService::Acquired WrapAcquire(nd::ConnectionService* self, nd::NodeId peer,
                                            nd::TenantId tenant, uint64_t stream) {
  if (RealAcquire == nullptr) pb::MissingReal("ConnectionService::Acquire");
  Span span(pb::kConnAcquire);
  return RealAcquire(self, peer, tenant, stream);
}

nd::HttpParseResult RealParseRequest(std::string_view, nd::HttpRequest*, size_t*)
    PB_REAL(_ZN6nadino9HttpCodec12ParseRequestESt17basic_string_viewIcSt11char_traitsIcEEPNS_11HttpRequestEPm);
nd::HttpParseResult WrapParseRequest(std::string_view input, nd::HttpRequest* out,
                                     size_t* consumed)
    PB_WRAP(_ZN6nadino9HttpCodec12ParseRequestESt17basic_string_viewIcSt11char_traitsIcEEPNS_11HttpRequestEPm);
nd::HttpParseResult WrapParseRequest(std::string_view input, nd::HttpRequest* out,
                                     size_t* consumed) {
  if (RealParseRequest == nullptr) pb::MissingReal("HttpCodec::ParseRequest");
  Span span(pb::kParseRequest, input.size());
  return RealParseRequest(input, out, consumed);
}

void RealSubmitRequest(nd::IngressGateway*, uint32_t, const std::string&, uint32_t,
                       std::function<void()>)
    PB_REAL(_ZN6nadino14IngressGateway13SubmitRequestEjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjSt8functionIFvvEE);
void WrapSubmitRequest(nd::IngressGateway* self, uint32_t client, const std::string& path,
                       uint32_t payload, std::function<void()> done)
    PB_WRAP(_ZN6nadino14IngressGateway13SubmitRequestEjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjSt8functionIFvvEE);
void WrapSubmitRequest(nd::IngressGateway* self, uint32_t client, const std::string& path,
                       uint32_t payload, std::function<void()> done) {
  if (RealSubmitRequest == nullptr) pb::MissingReal("IngressGateway::SubmitRequest");
  Span span(pb::kSubmitRequest, payload);
  RealSubmitRequest(self, client, path, payload, std::move(done));
}
