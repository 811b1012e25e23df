// The client half of every request/response load (DESIGN.md §3g): a client
// function sends a request through a DataPlane and waits for the response,
// matched on request id. The windowed echo (TenantEchoLoad), the open-loop
// echo (RunOpenLoopScale) and the scheduled chain clients (RunNodeScale,
// RunChainOffload, bench/payload_scaling) decide WHEN to issue; this class is
// the one place that issues, matches and completes.
//
// Accounting contract (the FaultPlane makes every case reachable):
//  - A refused issue (pool empty, message too large, send refused) recycles
//    the buffer, returns false and leaves nothing pending.
//  - A response matching a pending id recycles the buffer, erases the id and
//    hands its issue instant to the owner's completion callback — exactly
//    once per issued request.
//  - Anything else reaching the client (an unparseable header, a non-response,
//    a FaultPlane duplicate, a response outliving its expired request) is
//    recycled and counted in unmatched_responses(); it never completes.

#ifndef SRC_RUNTIME_REQUEST_CLIENT_H_
#define SRC_RUNTIME_REQUEST_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/core/env.h"
#include "src/runtime/dataplane.h"
#include "src/runtime/function.h"

namespace nadino {

class RequestClient {
 public:
  // Where every request of this client goes: chain 0 addresses a plain
  // function (the echo server), a chain id addresses that chain's entry.
  struct Route {
    ChainId chain = 0;
    FunctionId dst = kInvalidFunction;
    uint32_t payload_bytes = 0;
  };

  // Receives the issue instant of each matched request.
  using CompleteFn = std::function<void(SimTime issued_at)>;
  // Draws the next request id; called once per issue, after the buffer is in
  // hand. Chain clients pass ChainExecutor::NextRequestId so ids stay unique
  // across a chain's hops; empty means a per-client counter from 1.
  using NextIdFn = std::function<uint64_t()>;

  // Takes over `client`'s handler.
  RequestClient(Env& env, DataPlane* dataplane, FunctionRuntime* client, const Route& route,
                CompleteFn on_complete, NextIdFn next_id = {});

  RequestClient(const RequestClient&) = delete;
  RequestClient& operator=(const RequestClient&) = delete;

  // Sends one request along the route, issued now.
  bool Issue();

  // Forgets every pending request issued at or before `cutoff` (a response
  // that still arrives counts as unmatched). Returns how many were forgotten.
  uint64_t ExpireIssuedBy(SimTime cutoff);

  FunctionRuntime* function() const { return client_; }
  size_t pending() const { return pending_.size(); }
  uint64_t unmatched_responses() const { return unmatched_responses_; }

 private:
  void OnMessage(Buffer* buffer);

  Env* env_;
  DataPlane* dataplane_;
  FunctionRuntime* client_;
  Route route_;
  CompleteFn on_complete_;
  NextIdFn next_id_;
  uint64_t next_request_ = 1;
  uint64_t unmatched_responses_ = 0;
  // request id -> issue instant. Ids rise with issue order, so map order is
  // issue-time order and ExpireIssuedBy pops from begin().
  std::map<uint64_t, SimTime> pending_;
};

// Installs the echo server on `server`: each parseable request is re-addressed
// in place to its sender, flagged as a response and sent back through
// `dataplane`; anything it cannot answer is recycled.
void ServeEcho(DataPlane* dataplane, FunctionRuntime* server);

}  // namespace nadino

#endif  // SRC_RUNTIME_REQUEST_CLIENT_H_
