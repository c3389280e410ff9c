#include "dataloaders/dataloader.h"

#include <charconv>
#include <stdexcept>

#include "dataloaders/adastra.h"
#include "dataloaders/frontier.h"
#include "dataloaders/fugaku.h"
#include "dataloaders/lassen.h"
#include "dataloaders/marconi.h"
#include "dataloaders/mini.h"

namespace sraps {

DataloaderRegistry& DataloaderRegistry::Instance() {
  static DataloaderRegistry registry;
  return registry;
}

void DataloaderRegistry::Register(std::unique_ptr<Dataloader> loader) {
  const std::string name = loader->system_name();
  loaders_.Register(name, std::move(loader));
}

const Dataloader& DataloaderRegistry::Get(const std::string& system) const {
  return *loaders_.Get(system);
}

bool DataloaderRegistry::Has(const std::string& system) const {
  return loaders_.Has(system);
}

std::vector<std::string> DataloaderRegistry::Names() const {
  return loaders_.Names();
}

void RegisterBuiltinDataloaders() {
  auto& reg = DataloaderRegistry::Instance();
  reg.Register(std::make_unique<FrontierLoader>());
  reg.Register(std::make_unique<MarconiLoader>());
  reg.Register(std::make_unique<FugakuLoader>());
  reg.Register(std::make_unique<LassenLoader>());
  reg.Register(std::make_unique<AdastraLoader>());
  reg.Register(std::make_unique<MiniLoader>());
}

namespace loader_detail {

std::vector<int> ParseNodeList(const std::string& cell) {
  std::vector<int> nodes;
  std::size_t begin = 0;
  while (begin <= cell.size()) {
    std::size_t end = cell.find('|', begin);
    if (end == std::string::npos) end = cell.size();
    if (end > begin) {  // empty tokens ("3||4", a trailing '|') are skipped
      int id = 0;
      const char* const last = cell.data() + end;
      const auto [ptr, ec] = std::from_chars(cell.data() + begin, last, id);
      if (ec != std::errc() || ptr != last) {
        throw std::invalid_argument("node list '" + cell + "': '" +
                                    cell.substr(begin, end - begin) +
                                    "' is not a node id");
      }
      nodes.push_back(id);
    }
    begin = end + 1;
  }
  return nodes;
}

std::string FormatNodeList(const std::vector<int>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) out += '|';
    out += std::to_string(nodes[i]);
  }
  return out;
}

}  // namespace loader_detail
}  // namespace sraps
