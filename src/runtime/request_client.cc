#include "src/runtime/request_client.h"

#include "src/runtime/message_header.h"

namespace nadino {

RequestClient::RequestClient(Env& env, DataPlane* dataplane, FunctionRuntime* client,
                             const Route& route, CompleteFn on_complete, NextIdFn next_id)
    : env_(&env), dataplane_(dataplane), client_(client), route_(route),
      on_complete_(std::move(on_complete)), next_id_(std::move(next_id)) {
  client_->SetHandler([this](FunctionRuntime& /*fn*/, Buffer* buffer) { OnMessage(buffer); });
}

bool RequestClient::Issue() {
  Buffer* buffer = client_->pool()->Get(client_->owner_id());
  if (buffer == nullptr) {
    return false;
  }
  MessageHeader header;
  header.chain = route_.chain;
  header.src = client_->id();
  header.dst = route_.dst;
  header.payload_length = route_.payload_bytes;
  header.request_id = next_id_ ? next_id_() : next_request_++;
  if (!WriteMessage(buffer, header) || !dataplane_->Send(client_, buffer)) {
    client_->pool()->Put(buffer, client_->owner_id());
    return false;
  }
  pending_[header.request_id] = env_->now();
  return true;
}

uint64_t RequestClient::ExpireIssuedBy(SimTime cutoff) {
  uint64_t expired = 0;
  while (!pending_.empty() && pending_.begin()->second <= cutoff) {
    pending_.erase(pending_.begin());
    ++expired;
  }
  return expired;
}

void RequestClient::OnMessage(Buffer* buffer) {
  const std::optional<MessageHeader> header = ReadMessage(*buffer);
  const auto it = header.has_value() && header->is_response()
                      ? pending_.find(header->request_id)
                      : pending_.end();
  client_->pool()->Put(buffer, client_->owner_id());
  if (it == pending_.end()) {
    ++unmatched_responses_;
    return;
  }
  const SimTime issued_at = it->second;
  pending_.erase(it);
  on_complete_(issued_at);
}

void ServeEcho(DataPlane* dataplane, FunctionRuntime* server) {
  server->SetHandler([dataplane](FunctionRuntime& fn, Buffer* buffer) {
    const std::optional<MessageHeader> header = ReadMessage(*buffer);
    if (header.has_value()) {
      MessageHeader reply = *header;
      reply.src = fn.id();
      reply.dst = header->src;
      reply.flags = MessageHeader::kFlagResponse;
      if (RewriteHeader(buffer, reply) && dataplane->Send(&fn, buffer)) {
        return;
      }
    }
    fn.pool()->Put(buffer, fn.owner_id());
  });
}

}  // namespace nadino
