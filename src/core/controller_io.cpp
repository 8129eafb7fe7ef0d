#include "core/controller_io.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/report.hpp"
#include "util/durable.hpp"

namespace solsched::core {

namespace {
constexpr const char* kMagic = "solsched-controller-v1";

void expect(std::istream& in, const char* keyword) {
  std::string token;
  if (!(in >> token) || token != keyword)
    throw std::invalid_argument(
        std::string("deserialize_controller: expected ") + keyword);
}

/// The node slice of the bundle: grid, bank and the voltage window. Every
/// other NodeConfig field is left at the library default by read_node.
void write_node(std::ostream& out, const nvp::NodeConfig& node) {
  out << "grid " << node.grid.n_days << ' ' << node.grid.n_periods << ' '
      << node.grid.n_slots << ' ' << node.grid.dt_s << '\n';

  out << "caps " << node.capacities_f.size();
  for (double c : node.capacities_f) out << ' ' << c;
  out << '\n';

  out << "node " << node.v_low << ' ' << node.v_high << ' '
      << node.initial_cap << ' ' << node.initial_usable_j << '\n';
}

void read_node(std::istream& in, nvp::NodeConfig* node) {
  expect(in, "grid");
  if (!(in >> node->grid.n_days >> node->grid.n_periods >>
        node->grid.n_slots >> node->grid.dt_s))
    throw std::invalid_argument("deserialize_controller: bad grid");

  expect(in, "caps");
  std::size_t n_caps = 0;
  if (!(in >> n_caps) || n_caps == 0)
    throw std::invalid_argument("deserialize_controller: bad cap count");
  node->capacities_f.assign(n_caps, 0.0);
  for (double& c : node->capacities_f)
    if (!(in >> c))
      throw std::invalid_argument("deserialize_controller: bad capacity");

  expect(in, "node");
  if (!(in >> node->v_low >> node->v_high >> node->initial_cap >>
        node->initial_usable_j))
    throw std::invalid_argument("deserialize_controller: bad node");
}

}  // namespace

std::string serialize_controller(const TrainedController& controller) {
  const sched::ProposedModel& model = controller.model;
  if (!model.dbn) throw std::invalid_argument("serialize_controller: no DBN");
  std::ostringstream out;
  out.precision(17);
  out << kMagic << '\n';

  write_node(out, controller.node);

  out << "model " << model.n_slots << ' ' << model.n_tasks << ' '
      << model.alpha_cap << '\n';

  out << "online " << controller.online.e_th_j << ' '
      << controller.online.delta << ' ' << controller.online.margin_slots
      << ' ' << (controller.online.greedy_bank ? 1 : 0) << ' '
      << controller.online.fill_fraction << '\n';

  out << "norm " << model.input_norm.dims() << '\n';
  for (double v : model.input_norm.mins()) out << v << ' ';
  out << '\n';
  for (double v : model.input_norm.maxs()) out << v << ' ';
  out << '\n';

  out << model.dbn->network().serialize();
  return out.str();
}

TrainedController deserialize_controller(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  if (!(in >> token) || token != kMagic)
    throw std::invalid_argument("deserialize_controller: bad magic");

  TrainedController out;
  read_node(in, &out.node);

  expect(in, "model");
  if (!(in >> out.model.n_slots >> out.model.n_tasks >> out.model.alpha_cap))
    throw std::invalid_argument("deserialize_controller: bad model header");

  expect(in, "online");
  int greedy = 0;
  if (!(in >> out.online.e_th_j >> out.online.delta >>
        out.online.margin_slots >> greedy >> out.online.fill_fraction))
    throw std::invalid_argument("deserialize_controller: bad thresholds");
  out.online.greedy_bank = greedy != 0;

  expect(in, "norm");
  std::size_t dims = 0;
  if (!(in >> dims) || dims == 0)
    throw std::invalid_argument("deserialize_controller: bad norm dims");
  ann::Vector mins(dims), maxs(dims);
  for (double& v : mins)
    if (!(in >> v))
      throw std::invalid_argument("deserialize_controller: bad norm mins");
  for (double& v : maxs)
    if (!(in >> v))
      throw std::invalid_argument("deserialize_controller: bad norm maxs");
  out.model.input_norm.set_ranges(std::move(mins), std::move(maxs));

  // The remainder is the MLP blob.
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  out.model.dbn = std::make_shared<ann::Dbn>(
      ann::Dbn::from_network(ann::Mlp::deserialize(rest)));

  out.model.capacities_f = out.node.capacities_f;
  // A structurally well-formed file can still carry unusable parameters
  // (zero-slot grid, negative capacity, NaN voltage bounds...). Reject it
  // here, with every finding listed, rather than deep inside a simulation.
  out.node.validate();
  return out;
}

nvp::NodeConfig deployed_node(const nvp::NodeConfig& node) {
  std::ostringstream out;
  out.precision(17);
  write_node(out, node);
  std::istringstream in(out.str());
  nvp::NodeConfig deployed;
  read_node(in, &deployed);
  deployed.validate();
  return deployed;
}

bool save_controller(const TrainedController& controller,
                     const std::string& path) {
  return write_text_file(path, serialize_controller(controller));
}

TrainedController load_controller(const std::string& path) {
  if (!std::filesystem::exists(path))
    throw std::invalid_argument("load_controller: cannot open " + path);
  return deserialize_controller(util::read_file(path));
}

}  // namespace solsched::core
