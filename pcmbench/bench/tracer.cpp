#include "tracer.hpp"

#include <algorithm>
#include <fstream>

namespace pcmbench {

int Tracer::open(const char* name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back(), call_});
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan lifetimes nest).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"pcmbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.duration()) / 1000.0
        << ",\"args\":{\"call\":" << s.call << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<LayerTime> layer_times(std::span<const Span> spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.duration();

  std::vector<LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name(spans[i].name);
    const std::string layer(name.substr(0, name.find('.')));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const LayerTime& l) { return l.layer == layer; });
    if (it == layers.end()) it = layers.insert(layers.end(), LayerTime{layer});
    ++it->spans;
    it->self_ns += spans[i].duration() - child_ns[i];
  }
  return layers;
}

}  // namespace pcmbench
