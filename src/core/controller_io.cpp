#include "core/controller_io.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/report.hpp"
#include "util/durable.hpp"

namespace solsched::core {

namespace {
constexpr const char* kMagic = "solsched-controller-v1";
}

std::string serialize_controller(const TrainedController& controller) {
  const sched::ProposedModel& model = controller.model;
  if (!model.dbn) throw std::invalid_argument("serialize_controller: no DBN");
  std::ostringstream out;
  out.precision(17);
  out << kMagic << '\n';

  out << "grid " << controller.node.grid.n_days << ' '
      << controller.node.grid.n_periods << ' '
      << controller.node.grid.n_slots << ' ' << controller.node.grid.dt_s
      << '\n';

  out << "caps " << controller.node.capacities_f.size();
  for (double c : controller.node.capacities_f) out << ' ' << c;
  out << '\n';

  out << "node " << controller.node.v_low << ' ' << controller.node.v_high
      << ' ' << controller.node.initial_cap << ' '
      << controller.node.initial_usable_j << '\n';

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

  auto expect = [&](const char* keyword) {
    if (!(in >> token) || token != keyword)
      throw std::invalid_argument(
          std::string("deserialize_controller: expected ") + keyword);
  };

  expect("grid");
  if (!(in >> out.node.grid.n_days >> out.node.grid.n_periods >>
        out.node.grid.n_slots >> out.node.grid.dt_s))
    throw std::invalid_argument("deserialize_controller: bad grid");

  expect("caps");
  std::size_t n_caps = 0;
  if (!(in >> n_caps) || n_caps == 0)
    throw std::invalid_argument("deserialize_controller: bad cap count");
  out.node.capacities_f.assign(n_caps, 0.0);
  for (double& c : out.node.capacities_f)
    if (!(in >> c))
      throw std::invalid_argument("deserialize_controller: bad capacity");

  expect("node");
  if (!(in >> out.node.v_low >> out.node.v_high >> out.node.initial_cap >>
        out.node.initial_usable_j))
    throw std::invalid_argument("deserialize_controller: bad node");

  expect("model");
  if (!(in >> out.model.n_slots >> out.model.n_tasks >> out.model.alpha_cap))
    throw std::invalid_argument("deserialize_controller: bad model header");

  expect("online");
  int greedy = 0;
  if (!(in >> out.online.e_th_j >> out.online.delta >>
        out.online.margin_slots >> greedy >> out.online.fill_fraction))
    throw std::invalid_argument("deserialize_controller: bad thresholds");
  out.online.greedy_bank = greedy != 0;

  expect("norm");
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
