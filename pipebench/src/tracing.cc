#include "tracing.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "util.h"

namespace pipebench {

using bistro::BundleItem;
using bistro::FileInfo;
using bistro::Message;
using bistro::MessageType;
using bistro::Result;
using bistro::SendCallback;
using bistro::Status;

namespace {

thread_local std::vector<int64_t> t_stack;

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}

/// Span tag of a message: its FileId + 1 for file data, 0 otherwise.
uint64_t MessageTag(const Message& msg) {
  return msg.type == MessageType::kFileData ? msg.file_id + 1 : 0;
}

}  // namespace

int64_t SpanRecorder::Begin(const char* name, uint64_t file) {
  Span span;
  span.name = name;
  span.parent = t_stack.empty() ? -1 : t_stack.back();
  span.thread = ThreadTag();
  span.start_ns = SteadyNs();
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A child inherits its parent's file (vfs calls inside a deposit).
    span.file = file != 0 || span.parent < 0
                    ? file
                    : spans_[static_cast<size_t>(span.parent)].file;
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
  }
  t_stack.push_back(index);
  return index;
}

void SpanRecorder::End(int64_t index) {
  int64_t now = SteadyNs();
  if (!t_stack.empty() && t_stack.back() == index) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void SpanRecorder::AddAsync(const char* name, int64_t start_ns,
                            int64_t end_ns, uint64_t file) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.file = file;
  span.thread = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<int64_t> SpanRecorder::Durations(const char* name,
                                             bool file_only) const {
  std::vector<int64_t> out;
  std::string_view want = name;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.end_ns == 0 || want != s.name) continue;
    if (file_only && s.file == 0) continue;
    out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

std::map<std::string, int64_t> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns != 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    self[s.name] += s.end_ns - s.start_ns - child_ns[i];
  }
  return self;
}

bool SpanRecorder::Dump(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tfile\tthread\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\t%u\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.file), s.thread);
  }
  return std::fclose(f) == 0;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// ------------------------------------------------------------- FileSystem

Status TracingFileSystem::WriteFile(const std::string& path,
                                    std::string_view data) {
  ScopedSpan span(rec_, "vfs.write");
  return inner_->WriteFile(path, data);
}

Status TracingFileSystem::AppendFile(const std::string& path,
                                     std::string_view data) {
  ScopedSpan span(rec_, "vfs.append");
  return inner_->AppendFile(path, data);
}

Result<std::string> TracingFileSystem::ReadFile(const std::string& path) {
  ScopedSpan span(rec_, "vfs.read");
  return inner_->ReadFile(path);
}

Result<FileInfo> TracingFileSystem::Stat(const std::string& path) {
  ScopedSpan span(rec_, "vfs.stat");
  return inner_->Stat(path);
}

Result<std::vector<FileInfo>> TracingFileSystem::ListDir(
    const std::string& path) {
  ScopedSpan span(rec_, "vfs.list");
  return inner_->ListDir(path);
}

Status TracingFileSystem::Rename(const std::string& from,
                                 const std::string& to) {
  ScopedSpan span(rec_, "vfs.rename");
  return inner_->Rename(from, to);
}

Status TracingFileSystem::Delete(const std::string& path) {
  ScopedSpan span(rec_, "vfs.delete");
  return inner_->Delete(path);
}

Status TracingFileSystem::Sync(const std::string& path) {
  ScopedSpan span(rec_, "vfs.sync");
  return inner_->Sync(path);
}

Status TracingFileSystem::MkDirs(const std::string& path) {
  ScopedSpan span(rec_, "vfs.mkdirs");
  return inner_->MkDirs(path);
}

bool TracingFileSystem::Exists(const std::string& path) {
  ScopedSpan span(rec_, "vfs.exists");
  return inner_->Exists(path);
}

// -------------------------------------------------------------- Transport

SendCallback TracingTransport::Wrap(const Message& msg, SendCallback done) {
  return [rec = rec_, start = SteadyNs(), tag = MessageTag(msg),
          done = std::move(done)](const Status& s) {
    rec->AddAsync("net.send", start, SteadyNs(), tag);
    done(s);
  };
}

void TracingTransport::Send(const std::string& endpoint, const Message& msg,
                            SendCallback done) {
  inner_->Send(endpoint, msg, Wrap(msg, std::move(done)));
}

void TracingTransport::SendBundle(const std::string& endpoint,
                                  std::vector<BundleItem> items) {
  for (BundleItem& item : items) {
    item.done = Wrap(item.msg, std::move(item.done));
  }
  inner_->SendBundle(endpoint, std::move(items));
}

// --------------------------------------------------------------- Endpoint

Status TracingEndpoint::HandleMessage(const Message& msg) {
  ScopedSpan span(rec_, name_, MessageTag(msg));
  return inner_->HandleMessage(msg);
}

}  // namespace pipebench
