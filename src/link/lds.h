// lds — the Hemlock static linker (paper §2-§3).
//
// lds assigns each input template one of the four sharing classes of Table 1 and:
//   * copies a new instance of every *static private* module into the load image;
//   * creates any *static public* module that does not yet exist — as a file on the
//     shared partition, next to its template, named by dropping the final ".o",
//     internally relocated to its unique globally agreed address — and leaves it in
//     that separate file (never copied into the image);
//   * resolves references to symbols in static modules (including the absolute-address
//     resolution the stock ld refuses to perform);
//   * does NOT resolve references into dynamic modules — it does not even require that
//     they exist yet (missing dynamic modules produce a warning; missing static modules
//     abort the link). It saves the module names and the search-path description in the
//     image, and links in the replacement crt0 whose job is to start ldl;
//   * retains relocation information for everything unresolved (the stock ld refuses;
//     lds keeps it in the HXE's explicit pending-relocation table);
//   * rewrites over-long J/JAL jumps (the R3000 28-bit limit) to target nearby
//     trampolines that load the full address into a register and jump indirectly.
#ifndef SRC_LINK_LDS_H_
#define SRC_LINK_LDS_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/link/image.h"
#include "src/obj/object_file.h"
#include "src/sfs/vfs.h"

namespace hemlock {

// What to do when two modules export the same global symbol (paper §3: "the linker
// either picks one (e.g., the first) and resolves all references to it, or reports an
// error" — scoped linking exists to make neither necessary across applications).
//
// kScoped implements the paper's stated future work ("scoped linking is currently
// available in Hemlock only for dynamic modules. We plan to correct this deficiency
// in a new, fully-functional static linker"): a static module's references resolve
// first against the exports of the modules on its own embedded module list, then
// against the flat table (first definition wins there).
enum class DuplicatePolicy : uint8_t { kError, kFirstWins, kScoped };

struct LdsInput {
  std::string name;  // template path (absolute or search-path relative)
  ShareClass cls = ShareClass::kStaticPrivate;
};

struct LdsOptions {
  std::vector<LdsInput> inputs;
  std::vector<std::string> lib_dirs;   // the -L command-line directories
  std::string env_ld_library_path;     // LD_LIBRARY_PATH at static link time
  std::string cwd = "/home/user";
  DuplicatePolicy duplicate_policy = DuplicatePolicy::kError;
  // When set, the serialized image is also written to this VFS path.
  std::string output_path;
};

struct LdsReport {
  std::vector<std::string> warnings;
  uint32_t trampolines = 0;        // far-jump fragments emitted
  uint32_t modules_linked = 0;     // static modules placed in the image
  uint32_t publics_created = 0;    // static public modules created from templates
  uint32_t publics_reused = 0;     // ... that already existed
  uint32_t pending_relocs = 0;     // references left for ldl
};

// Links one template at a fixed base address, producing a linked module:
// internal references finalized, external JUMP26 sites redirected through reserved
// trampoline slots, all other external references left pending. Shared by lds (static
// publics) and ldl (run-time creation of dynamic modules). |tpl_bytes| is the file
// |tpl| was parsed from; its LinkedTemplateHash is stamped into the module.
Result<LinkedModule> LinkModuleAtBase(const ObjectFile& tpl,
                                      const std::vector<uint8_t>& tpl_bytes, uint32_t base,
                                      const std::string& name, uint32_t* trampolines_out);

// The content identity LinkModuleAtBase stamps into the linked module's trailer:
// a word-at-a-time digest of the template *file bytes*, keyed by the link base (the
// same template linked at two addresses is two different artifacts). Deterministic,
// so a warm start can verify a recorded resolution against the template *without*
// relinking or even parsing it (stable linking's cheap re-check; see
// src/link/manifest.h). Never returns 0 — 0 is reserved for "pre-hash HML file,
// unverifiable".
uint64_t LinkedTemplateHash(const std::vector<uint8_t>& tpl_bytes, uint32_t base);

// The replacement crt0 (paper: "links C programs with a special start-up file" that
// gives ldl a chance to run; here the loader runs ldl natively before transferring
// control, and crt0 just calls main and exits with its result).
ObjectFile SynthesizeCrt0();

class StaticLinker {
 public:
  explicit StaticLinker(Vfs* vfs) : vfs_(vfs) {}

  // Runs the full static link. |report| may be null.
  Result<LoadImage> Link(const LdsOptions& options, LdsReport* report);

 private:
  Vfs* vfs_;
};

}  // namespace hemlock

#endif  // SRC_LINK_LDS_H_
