#include "soleil/code_emitter.hpp"

#include <algorithm>
#include <sstream>

#include "adl/loader.hpp"
#include "validate/pattern_catalog.hpp"
#include "validate/validator.hpp"

namespace rtcf::soleil {

using model::ActivationKind;
using model::ActiveComponent;
using model::Architecture;
using model::AreaType;
using model::Binding;
using model::Component;
using model::DomainType;
using model::MemoryAreaComponent;
using model::PassiveComponent;
using model::Protocol;
using model::ThreadDomain;

std::size_t GeneratedFile::line_count() const {
  return static_cast<std::size_t>(
      std::count(contents.begin(), contents.end(), '\n'));
}

const GeneratedFile* GeneratedCode::find(const std::string& path) const {
  for (const auto& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

std::size_t GeneratedCode::total_lines() const {
  std::size_t n = 0;
  for (const auto& f : files) n += f.line_count();
  return n;
}

std::size_t GeneratedCode::total_bytes() const {
  std::size_t n = 0;
  for (const auto& f : files) n += f.contents.size();
  return n;
}

namespace {

std::string header_comment(const std::string& what, Mode mode) {
  std::ostringstream os;
  os << "// GENERATED CODE - do not edit.\n"
     << "// " << what << " (generation mode: " << to_string(mode) << ").\n"
     << "// Generated by the Soleil infrastructure generator from the\n"
     << "// validated RT system architecture; hand-written content classes\n"
     << "// are referenced, never duplicated.\n\n";
  return os.str();
}

std::string content_class_of(const Component& c) {
  if (const auto* a = dynamic_cast<const ActiveComponent*>(&c)) {
    return a->content_class();
  }
  if (const auto* p = dynamic_cast<const PassiveComponent*>(&c)) {
    return p->content_class();
  }
  return {};
}

/// Client-side interceptor chain for one binding, SOLEIL flavour.
void emit_binding_chain(std::ostringstream& os, const Architecture& arch,
                        const validate::ExecutionDomains& exec,
                        const Binding& b, int index) {
  const std::string pattern =
      validate::resolve_binding_pattern(arch, exec, b);
  os << "    // binding " << index << ": " << b.client.component << "."
     << b.client.interface << " -> " << b.server.component << "."
     << b.server.interface << " [" << model::to_string(b.desc.protocol);
  if (b.desc.protocol == Protocol::Asynchronous) {
    os << ", buffer=" << b.desc.buffer_size;
  }
  os << ", pattern=" << pattern << "]\n";
  if (b.desc.protocol == Protocol::Asynchronous) {
    os << "    auto& buf" << index << " = bootstrap.make_buffer(\""
       << b.server.component << "\", " << b.desc.buffer_size << ");\n"
       << "    auto& skel" << index
       << " = membrane.add_interceptor<rtcf::membrane::AsyncSkeleton>(&buf"
       << index << ", notify, notify_arg);\n"
       << "    auto& mem" << index
       << " = membrane.add_interceptor<rtcf::membrane::MemoryInterceptor>(\n"
       << "        bootstrap.make_pattern(\"" << pattern << "\", \""
       << b.server.component << "\"));\n"
       << "    mem" << index << ".set_next(&skel" << index << ", nullptr);\n"
       << "    content.port(\"" << b.client.interface
       << "\").bind_sink(&mem" << index << ");\n";
  } else {
    os << "    auto& mem" << index
       << " = membrane.add_interceptor<rtcf::membrane::MemoryInterceptor>(\n"
       << "        bootstrap.make_pattern(\"" << pattern << "\", \""
       << b.server.component << "\"));\n"
       << "    mem" << index << ".set_next(nullptr, bootstrap.server_entry(\""
       << b.server.component << "\"));\n"
       << "    content.port(\"" << b.client.interface
       << "\").bind_invocable(&mem" << index << ");\n";
  }
}

GeneratedFile emit_soleil_membrane(const Architecture& arch,
                                   const validate::ExecutionDomains& exec,
                                   const Component& c) {
  std::ostringstream os;
  os << header_comment("Membrane of component '" + c.name() + "'",
                       Mode::Soleil);
  os << "#pragma once\n"
     << "#include \"membrane/membrane.hpp\"\n"
     << "#include \"soleil/bootstrap_api.hpp\"\n\n"
     << "namespace gen {\n\n"
     << "/// Reified membrane: controllers + interceptors of '" << c.name()
     << "'.\n"
     << "class " << c.name() << "Membrane {\n"
     << " public:\n"
     << "  explicit " << c.name()
     << "Membrane(rtcf::soleil::BootstrapContext& bootstrap)\n"
     << "      : membrane_(\"" << c.name() << "\", bootstrap.content(\""
     << c.name() << "\")) {\n"
     << "    auto& membrane = membrane_;\n"
     << "    auto& content = *bootstrap.content(\"" << c.name() << "\");\n"
     << "    auto notify = &rtcf::soleil::ActivationManager::notify_trampoline;\n"
     << "    void* notify_arg = bootstrap.notify_arg(\"" << c.name()
     << "\");\n"
     << "    (void)membrane; (void)content; (void)notify; (void)notify_arg;\n";
  const auto* active = dynamic_cast<const ActiveComponent*>(&c);
  if (active != nullptr) {
    os << "    // execution model: run-to-completion "
       << model::to_string(active->activation()) << " activation\n"
       << "    membrane.add_interceptor<rtcf::membrane::ActiveInterceptor>(\n"
       << "        &membrane.lifecycle(), &content);\n";
  } else {
    os << "    membrane.add_interceptor<rtcf::membrane::SyncSkeleton>(\n"
       << "        &membrane.lifecycle(), &content);\n";
  }
  int index = 0;
  for (const Binding& b : arch.bindings()) {
    if (b.client.component == c.name()) {
      emit_binding_chain(os, arch, exec, b, index);
    }
    ++index;
  }
  os << "  }\n\n"
     << "  rtcf::membrane::Membrane& membrane() { return membrane_; }\n\n"
     << " private:\n"
     << "  rtcf::membrane::Membrane membrane_;\n"
     << "};\n\n"
     << "}  // namespace gen\n";
  return GeneratedFile{"gen/" + c.name() + "Membrane.hpp", os.str()};
}

GeneratedFile emit_soleil_nf_runtime(const Component& c) {
  std::ostringstream os;
  os << header_comment(
      "Runtime of non-functional component '" + c.name() + "'",
      Mode::Soleil);
  os << "#pragma once\n"
     << "#include \"membrane/membrane.hpp\"\n\n"
     << "namespace gen {\n\n";
  if (const auto* domain = dynamic_cast<const ThreadDomain*>(&c)) {
    os << "/// ThreadDomain controller: " << model::to_string(domain->type())
       << " priority " << domain->priority() << ".\n"
       << "class " << c.name() << "Runtime {\n"
       << " public:\n"
       << "  static constexpr int kPriority = " << domain->priority()
       << ";\n"
       << "  static constexpr const char* kThreadType = \""
       << model::to_string(domain->type()) << "\";\n";
  } else {
    const auto* area = dynamic_cast<const MemoryAreaComponent*>(&c);
    os << "/// MemoryArea controller: " << model::to_string(area->type());
    if (area->size_bytes() != 0) {
      os << " of " << adl::format_size(area->size_bytes());
    }
    os << ".\n"
       << "class " << c.name() << "Runtime {\n"
       << " public:\n"
       << "  static constexpr const char* kAreaType = \""
       << model::to_string(area->type()) << "\";\n"
       << "  static constexpr std::size_t kSizeBytes = "
       << area->size_bytes() << ";\n";
  }
  os << "  // encapsulated sub-components:\n";
  for (const Component* sub : c.subs()) {
    os << "  //   - " << sub->name() << "\n";
  }
  os << "};\n\n"
     << "}  // namespace gen\n";
  return GeneratedFile{"gen/" + c.name() + "Runtime.hpp", os.str()};
}

void emit_bootstrap_body(std::ostringstream& os, const Architecture& arch) {
  os << "  // 1. Memory areas: immortal first, then scopes (pinned by\n"
     << "  //    wedge threads), heap last.\n";
  for (const auto* area : arch.all_of<MemoryAreaComponent>()) {
    switch (area->type()) {
      case AreaType::Immortal:
        os << "  bootstrap.use_immortal(\"" << area->name() << "\");\n";
        break;
      case AreaType::Scoped:
        os << "  bootstrap.create_scope(\"" << area->area_name() << "\", "
           << area->size_bytes() << ");\n";
        break;
      case AreaType::Heap:
        os << "  bootstrap.use_heap(\"" << area->name() << "\");\n";
        break;
    }
  }
  os << "  // 2. Thread domains and their logical threads.\n";
  for (const auto* domain : arch.all_of<ThreadDomain>()) {
    os << "  bootstrap.create_domain(\"" << domain->name() << "\", \""
       << model::to_string(domain->type()) << "\", " << domain->priority()
       << ");\n";
  }
  for (const auto* active : arch.all_of<ActiveComponent>()) {
    const auto* domain = arch.thread_domain_of(*active);
    os << "  bootstrap.create_thread(\"" << active->name() << "\", \""
       << (domain ? domain->name() : "?") << "\", ";
    if (active->activation() == ActivationKind::Periodic) {
      os << "/*periodic*/ " << active->period().nanos() << "ns";
    } else {
      os << "/*sporadic*/ " << active->period().nanos() << "ns";
    }
    os << ");\n";
  }
  os << "  // 3. Contents, constructed inside their memory areas.\n";
  for (const auto& owned : arch.components()) {
    if (!owned->is_functional()) continue;
    const auto* area = arch.memory_area_of(*owned);
    os << "  bootstrap.create_content(\"" << owned->name() << "\", \""
       << content_class_of(*owned) << "\", \""
       << (area ? area->name() : "heap") << "\");\n";
  }
}

GeneratedFile emit_bootstrap(const Architecture& arch, Mode mode) {
  std::ostringstream os;
  os << header_comment("Bootstrap sequence", mode);
  os << "#include \"soleil/bootstrap_api.hpp\"\n\n"
     << "namespace gen {\n\n"
     << "void bootstrap_application(rtcf::soleil::BootstrapContext& "
        "bootstrap) {\n";
  emit_bootstrap_body(os, arch);
  if (mode == Mode::Soleil) {
    os << "  // 4. Membranes (one per component, reified).\n";
    for (const auto& owned : arch.components()) {
      if (owned->is_functional()) {
        os << "  bootstrap.install_membrane<gen::" << owned->name()
           << "Membrane>();\n";
      } else {
        os << "  bootstrap.install_runtime<gen::" << owned->name()
           << "Runtime>();\n";
      }
    }
    os << "  // 5. Start order: servers before clients.\n"
       << "  bootstrap.start_all_via_lifecycle_controllers();\n";
  } else {
    os << "  // 4. Start all merged shells.\n"
       << "  bootstrap.start_all();\n";
  }
  os << "}\n\n"
     << "}  // namespace gen\n";
  return GeneratedFile{"gen/Bootstrap.cpp", os.str()};
}

GeneratedFile emit_merged_class(const Architecture& arch,
                                const validate::ExecutionDomains& exec,
                                const Component& c) {
  std::ostringstream os;
  os << header_comment(
      "Merged membrane + dispatch of component '" + c.name() + "'",
      Mode::MergeAll);
  os << "#pragma once\n"
     << "#include \"comm/content.hpp\"\n"
     << "#include \"membrane/patterns.hpp\"\n\n"
     << "namespace gen {\n\n"
     << "/// One class per functional component: lifecycle gate and\n"
     << "/// endpoint dispatch inlined, no reified membrane structure.\n"
     << "class " << c.name() << "Merged {\n"
     << " public:\n"
     << "  void start() { started_ = true; content_->on_start(); }\n"
     << "  void stop() { started_ = false; content_->on_stop(); }\n";
  const auto* active = dynamic_cast<const ActiveComponent*>(&c);
  if (active != nullptr) {
    if (active->activation() == ActivationKind::Periodic) {
      os << "  void release() { if (started_) content_->on_release(); }\n";
    } else {
      os << "  void deliver(const rtcf::comm::Message& m) {\n"
         << "    if (started_) content_->on_message(m);\n"
         << "  }\n";
    }
  } else {
    os << "  rtcf::comm::Message invoke(const rtcf::comm::Message& m) {\n"
       << "    return started_ ? content_->on_invoke(m)\n"
       << "                    : rtcf::comm::Message{};\n"
       << "  }\n";
  }
  int index = 0;
  for (const Binding& b : arch.bindings()) {
    if (b.client.component == c.name()) {
      const std::string pattern =
          validate::resolve_binding_pattern(arch, exec, b);
      os << "  // out endpoint " << index << ": " << b.client.interface
         << " -> " << b.server.component << " (pattern: " << pattern
         << ")\n";
      ++index;
    }
  }
  os << "\n private:\n"
     << "  rtcf::comm::Content* content_ = nullptr;  // "
     << content_class_of(c) << "\n"
     << "  bool started_ = false;\n"
     << "};\n\n"
     << "}  // namespace gen\n";
  return GeneratedFile{"gen/" + c.name() + "Merged.hpp", os.str()};
}

GeneratedFile emit_ultra(const Architecture& arch,
                         const validate::ExecutionDomains& exec) {
  std::ostringstream os;
  os << header_comment("Static application (whole system in one class)",
                       Mode::UltraMerge);
  os << "#include \"comm/content.hpp\"\n"
     << "#include \"membrane/patterns.hpp\"\n\n"
     << "namespace gen {\n\n"
     << "/// ULTRA_MERGE: the complete infrastructure fits in this single\n"
     << "/// class; purely static, no reconfiguration capabilities.\n"
     << "class StaticApplication {\n"
     << " public:\n";
  for (const auto* active : arch.all_of<ActiveComponent>()) {
    os << "  void release_" << active->name() << "();  // "
       << model::to_string(active->activation()) << ", thread: "
       << (arch.thread_domain_of(*active)
               ? arch.thread_domain_of(*active)->name()
               : std::string("?"))
       << "\n";
  }
  os << "\n private:\n";
  for (const auto& owned : arch.components()) {
    if (!owned->is_functional()) continue;
    os << "  rtcf::comm::Content* " << owned->name() << "_;  // "
       << content_class_of(*owned) << "\n";
  }
  int index = 0;
  for (const Binding& b : arch.bindings()) {
    const std::string pattern =
        validate::resolve_binding_pattern(arch, exec, b);
    if (b.desc.protocol == Protocol::Asynchronous) {
      os << "  rtcf::comm::MessageBuffer* buffer" << index << "_;  // "
         << b.client.component << " -> " << b.server.component
         << " (capacity " << b.desc.buffer_size << ", pattern " << pattern
         << ")\n";
    } else {
      os << "  // sync binding: " << b.client.component << " -> "
         << b.server.component << " (pattern " << pattern << ")\n";
    }
    ++index;
  }
  os << "};\n\n"
     << "void bootstrap_application(rtcf::soleil::BootstrapContext& "
        "bootstrap);\n\n"
     << "}  // namespace gen\n";
  return GeneratedFile{"gen/StaticApplication.cpp", os.str()};
}

}  // namespace

GeneratedCode emit_infrastructure(const Architecture& arch, Mode mode) {
  const validate::ExecutionDomains exec(arch);
  GeneratedCode out;
  out.mode = mode;
  switch (mode) {
    case Mode::Soleil:
      for (const auto& owned : arch.components()) {
        if (owned->is_functional()) {
          out.files.push_back(emit_soleil_membrane(arch, exec, *owned));
        } else {
          out.files.push_back(emit_soleil_nf_runtime(*owned));
        }
      }
      out.files.push_back(emit_bootstrap(arch, mode));
      break;
    case Mode::MergeAll:
      for (const auto& owned : arch.components()) {
        if (owned->is_functional()) {
          out.files.push_back(emit_merged_class(arch, exec, *owned));
        }
      }
      out.files.push_back(emit_bootstrap(arch, mode));
      break;
    case Mode::UltraMerge:
      out.files.push_back(emit_ultra(arch, exec));
      break;
  }
  return out;
}

}  // namespace rtcf::soleil
