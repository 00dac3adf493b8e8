#include "e2ebench/harness.h"

#include <dirent.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>

#include "src/base/bytes.h"
#include "src/base/strings.h"
#include "src/kernel/scheduler.h"
#include "src/sfs/shared_fs.h"

namespace e2ebench {

using hemlock::StrFormat;

SpanLog::Scope::Scope(SpanLog* log, const char* name)
    : log_(log->enabled_ ? log : nullptr) {
  if (log_ == nullptr) {
    return;
  }
  Span span;
  span.id = static_cast<int64_t>(log_->spans_.size());
  span.parent = log_->open_.empty() ? -1 : log_->spans_[log_->open_.back()].id;
  span.op = log_->op_;
  span.name = name;
  span.start_ns = log_->NowNs();
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) {
    return;
  }
  Span& span = log_->spans_[index_];
  span.dur_ns = log_->NowNs() - span.start_ns;
  log_->open_.pop_back();
}

std::string SpanLog::ChromeTraceJson() const {
  // Complete ("X") events in microseconds; the op id and the parent id ride in
  // args so the tree can be rebuilt offline (Perfetto shows nesting by time).
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += StrFormat(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
        "\"op\": %lld}}%s\n",
        s.name.c_str(), s.op < 0 ? "setup" : "op", static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3, static_cast<long long>(s.id),
        static_cast<long long>(s.parent), static_cast<long long>(s.op),
        i + 1 < spans_.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return hemlock::IoError("cannot open " + path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  if (std::fclose(f) != 0 || written != contents.size()) {
    return hemlock::IoError("cannot write " + path);
  }
  return hemlock::OkStatus();
}

MetricsSnapshot Delta(const MetricsSnapshot& after, const MetricsSnapshot& before) {
  MetricsSnapshot out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

Status Compile(hemlock::HemlockWorld& world, const std::string& source,
               const std::string& path, const hemlock::CompileOptions& options,
               SpanLog& spans) {
  SpanLog::Scope span(&spans, "lang.compile");
  return world.CompileTo(source, path, options);
}

Result<hemlock::LoadImage> Link(hemlock::HemlockWorld& world,
                                const hemlock::LdsOptions& options, SpanLog& spans) {
  SpanLog::Scope span(&spans, "lds.link");
  return world.Link(options);
}

Result<std::vector<uint8_t>> Snapshot(hemlock::HemlockWorld& world) {
  hemlock::ByteWriter w;
  RETURN_IF_ERROR(world.sfs().Serialize(&w));
  return w.buffer();
}

Status Reboot(hemlock::HemlockWorld& world, const std::vector<uint8_t>& disk,
              SpanLog& spans) {
  SpanLog::Scope span(&spans, "sfs.boot");
  hemlock::ByteReader r(disk);
  ASSIGN_OR_RETURN(std::unique_ptr<hemlock::SharedFs> fs, hemlock::SharedFs::Deserialize(&r));
  world.machine().ReplaceSfs(std::move(fs));
  return hemlock::OkStatus();
}

Result<hemlock::ExecResult> Exec(hemlock::HemlockWorld& world,
                                 const hemlock::LoadImage& image, SpanLog& spans) {
  SpanLog::Scope span(&spans, "loader.exec");
  return world.Exec(image);
}

Status Run(hemlock::Machine& machine, int num_cores, SpanLog& spans) {
  SpanLog::Scope span(&spans, "vm.run");
  hemlock::SchedParams params;  // production defaults: rr, quantum 4096
  params.num_cores = num_cores;
  hemlock::SchedStatus status = machine.RunScheduled(params, 4'000'000'000ull);
  if (status != hemlock::SchedStatus::kExited) {
    return hemlock::Internal(
        StrFormat("RunScheduled ended with status %d, not kExited", static_cast<int>(status)));
  }
  return hemlock::OkStatus();
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

Status CpuRotation::Next() {
  if (cpus_.empty()) {
    return hemlock::Internal("no CPU to run on");
  }
  return PinEveryThread({cpus_[next_++ % cpus_.size()]});
}

Status CpuRotation::Release() { return PinEveryThread(cpus_); }

Status CpuRotation::PinEveryThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    return hemlock::IoError("cannot list /proc/self/task");
  }
  bool ok = true;
  while (struct dirent* entry = readdir(tasks)) {
    int tid = std::atoi(entry->d_name);
    if (tid > 0 && sched_setaffinity(tid, sizeof(set), &set) != 0) {
      ok = false;
    }
  }
  closedir(tasks);
  return ok ? hemlock::OkStatus() : hemlock::Internal("cannot pin a thread");
}

Result<int> ExitCodeOf(hemlock::Machine& machine, int pid) {
  hemlock::Process* proc = machine.FindProcess(pid);
  if (proc == nullptr || proc->state() != hemlock::ProcState::kZombie) {
    return hemlock::Internal(StrFormat("pid %d did not exit", pid));
  }
  return proc->exit_status();
}

}  // namespace e2ebench
