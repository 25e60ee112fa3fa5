#include "server/recognition_service.h"

#include <chrono>
#include <utility>

namespace aims::server {

RecognitionService::RecognitionService(
    const recognition::Vocabulary* vocabulary,
    recognition::StreamRecognizerConfig config, obs::MetricsRegistry* metrics)
    : vocabulary_(vocabulary), measure_(/*rank=*/0), config_(config) {
  if (metrics != nullptr) {
    streams_opened_ = metrics->GetCounter("recognition.streams_opened");
    frames_ = metrics->GetCounter("recognition.frames");
    events_ = metrics->GetCounter("recognition.events");
    open_streams_ = metrics->GetGauge("recognition.open_streams");
    frame_latency_ms_ =
        metrics->GetHistogram("recognition.frame_latency_ms",
                              obs::MetricsRegistry::DefaultLatencyBoundsMs());
  }
}

Status RecognitionService::OpenStream(ClientId client) {
  if (vocabulary_ == nullptr || vocabulary_->size() == 0) {
    return Status::FailedPrecondition(
        "RecognitionService: register a vocabulary first");
  }
  std::unique_lock<std::shared_mutex> lock(streams_mutex_);
  auto& slot = streams_[client];
  if (slot) {
    return Status::AlreadyExists("RecognitionService: stream already open");
  }
  slot = std::make_shared<ClientStream>(vocabulary_, &measure_, config_);
  if (streams_opened_ != nullptr) streams_opened_->Increment();
  if (open_streams_ != nullptr) open_streams_->AddTracked(1);
  return Status::OK();
}

Result<std::optional<recognition::RecognitionEvent>>
RecognitionService::PushFrame(ClientId client, const streams::Frame& frame,
                              obs::Trace* trace) {
  std::shared_ptr<ClientStream> stream;
  {
    std::shared_lock<std::shared_mutex> lock(streams_mutex_);
    auto it = streams_.find(client);
    if (it == streams_.end()) {
      return Status::NotFound("RecognitionService: no open stream");
    }
    stream = it->second;
  }
  auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(stream->mutex);
  size_t update_span = 0;
  if (trace != nullptr) update_span = trace->BeginSpan("recognizer_update");
  auto result = stream->recognizer.Push(frame);
  if (trace != nullptr) {
    trace->EndSpan(update_span);
    if (result.ok() && result->has_value()) {
      trace->AddMarker("classification_event");
    }
  }
  if (frames_ != nullptr) frames_->Increment();
  if (frame_latency_ms_ != nullptr) {
    frame_latency_ms_->Record(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  }
  if (result.ok() && result->has_value()) {
    if (events_ != nullptr) events_->Increment();
    stream->history.Push(**result);
  }
  return result;
}

Result<std::optional<recognition::RecognitionEvent>>
RecognitionService::CloseStream(ClientId client) {
  std::shared_ptr<ClientStream> stream;
  {
    std::unique_lock<std::shared_mutex> lock(streams_mutex_);
    auto it = streams_.find(client);
    if (it == streams_.end()) {
      return Status::NotFound("RecognitionService: no open stream");
    }
    stream = std::move(it->second);
    streams_.erase(it);
  }
  if (open_streams_ != nullptr) open_streams_->AddTracked(-1);
  // A PushFrame that resolved the stream before the erase may still be
  // running; it holds its own shared_ptr, so the flush below serializes
  // with it on the per-stream mutex and the object outlives both.
  std::lock_guard<std::mutex> lock(stream->mutex);
  auto result = stream->recognizer.Finish();
  if (result.ok() && result->has_value() && events_ != nullptr) {
    events_->Increment();
  }
  return result;
}

std::vector<recognition::RecognitionEvent> RecognitionService::RecentEvents(
    ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  auto it = streams_.find(client);
  if (it == streams_.end()) return {};
  std::lock_guard<std::mutex> stream_lock(it->second->mutex);
  return it->second->history.Snapshot();
}

size_t RecognitionService::open_streams() const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  return streams_.size();
}

}  // namespace aims::server
