/**
 * @file
 * String-keyed registry of TranslationTable implementations.
 *
 * Mirrors vm::ProviderFactory on the translation side: a table is chosen
 * by name ("radix", "hashed", ...) in PlatformConfig / ScenarioConfig, so
 * the ablation suite can sweep table structures the same way it sweeps
 * allocation policies. Adding a table: implement TranslationTable with a
 * Cursor (see translation_table.hpp), register a constructor under a
 * name (see the registrations in table_factory.cpp, and DESIGN.md
 * "Factories & registries"), and add one dispatch arm for it in
 * mmu::NestedWalker, whose walk loops are compiled per table type.
 *
 * Unknown names fail fast with a SimError that lists every registered
 * name, so a typo in a config or sweep axis dies before any simulation
 * work happens.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "pt/page_table.hpp"
#include "pt/translation_table.hpp"

namespace ptm::pt {

/// Constructor signature for registered tables. @p params carries
/// table-specific knobs (e.g. "initial_frames" for the hashed table);
/// unknown keys are ignored so policy and table params can share one bag.
using TableCtor = std::function<std::unique_ptr<TranslationTable>(
    FrameSource, const PolicyParams &)>;

/// Register @p ctor under @p name; replaces an existing registration of
/// the same name (ptm_fatal would be hostile to tests re-registering).
void register_table(const std::string &name, TableCtor ctor);

/// True iff @p name has a registered constructor.
bool table_registered(const std::string &name);

/// Registered names, sorted (for error messages and sweep enumeration).
std::vector<std::string> registered_tables();

/**
 * Construct the table registered under @p name.
 * @throws SimError listing registered names if @p name is unknown.
 */
std::unique_ptr<TranslationTable> make_table(const std::string &name,
                                             FrameSource frames,
                                             const PolicyParams &params);

}  // namespace ptm::pt
