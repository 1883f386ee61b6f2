#include <cstdio>

#include "bench.hpp"

namespace perfbench {

Spans::Spans() : epoch_(Clock::now()) {}

std::int64_t
Spans::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Spans::open(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
Spans::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

double
Spans::seconds(int index) const
{
    const Span &span = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return false;
    }
    // chrome://tracing "complete" events; the parent index rides in args
    // so the span tree survives tools that only nest by time.
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d}}%s\n",
                     s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    bool ok = std::fclose(f) == 0;
    if (!ok)
        std::fprintf(stderr, "perfbench: short write to %s\n", path.c_str());
    return ok;
}

}  // namespace perfbench
