#include "src/link/loader.h"

#include "src/base/layout.h"

namespace hemlock {

Result<ExecResult> ExecuteImage(Machine& machine, const LoadImage& image,
                                const ExecOptions& options) {
  // Deserialize validates files, but images can also arrive straight from lds or a
  // test harness: re-check geometry before any page is mapped so a bad image can
  // never leave a half-built process behind.
  RETURN_IF_ERROR(ValidateLoadImage(image));
  Process& proc = machine.CreateProcess();
  proc.env() = options.env;
  proc.set_cwd(options.cwd);

  // Map the image segments into private memory: the pages holding file bytes
  // get a copy of them, and the pages wholly past them (bss) are demand-zero.
  uint32_t data_end = kDataBase;
  for (const ImageSegment& seg : image.segments) {
    uint32_t len = PageCeil(seg.mem_size);
    uint32_t file_len = PageCeil(static_cast<uint32_t>(seg.bytes.size()));
    Prot prot = seg.executable ? Prot::kReadExec : Prot::kReadWrite;
    if (file_len > 0) {
      auto backing = std::make_shared<std::vector<uint8_t>>(file_len, 0);
      std::copy(seg.bytes.begin(), seg.bytes.end(), backing->begin());
      RETURN_IF_ERROR(proc.space().MapPrivate(seg.vaddr, file_len, prot, backing, 0));
    }
    if (len > file_len) {
      RETURN_IF_ERROR(
          proc.space().MapPrivate(seg.vaddr + file_len, len - file_len, prot, nullptr, 0));
    }
    if (!seg.executable) {
      data_end = std::max(data_end, seg.vaddr + len);
    }
  }
  // Heap break starts after the data segment.
  proc.set_brk(data_end);

  // Stack: top of the private region, growing down, demand-zero — a process
  // pays for the stack pages it touches.
  uint32_t stack_len = PageCeil(options.stack_bytes);
  uint32_t stack_base = kStackLimit - stack_len;
  RETURN_IF_ERROR(proc.space().MapPrivate(stack_base, stack_len, Prot::kReadWrite, nullptr, 0));
  proc.cpu().regs[kRegSp] = kStackLimit - 16;
  proc.cpu().regs[kRegFp] = kStackLimit - 16;

  // The dynamic linker: startup duties, then the fault handler.
  auto ldl = std::make_shared<Ldl>(&machine, image, options.ldl);
  RETURN_IF_ERROR(ldl->Startup(proc));
  proc.PushFaultHandler([ldl](Machine& m, Process& p, const Fault& fault) {
    return ldl->HandleFault(m, p, fault);
  });

  proc.cpu().pc = image.entry;
  ExecResult result;
  result.pid = proc.pid();
  result.ldl = std::move(ldl);
  return result;
}

Result<ExecResult> ExecuteFile(Machine& machine, const std::string& image_path,
                               const ExecOptions& options) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, machine.vfs().ReadFile(image_path));
  ASSIGN_OR_RETURN(LoadImage image, LoadImage::Deserialize(bytes));
  return ExecuteImage(machine, image, options);
}

void InstallSpawnHandler(Machine& machine, const ExecOptions& options) {
  machine.SetSpawnHandler([options](Machine& m, const std::string& path) -> Result<int> {
    ASSIGN_OR_RETURN(ExecResult exec, ExecuteFile(m, path, options));
    return exec.pid;
  });
}

}  // namespace hemlock
