#include "trace/trace_sink.hh"

namespace copernicus {

TraceSink::~TraceSink() = default;

namespace {

TraceSink *globalSink = nullptr;

/** Discards everything; only its address matters (see noTraceSink). */
class NoTraceSink final : public TraceSink
{
  public:
    void
    durationEvent(std::string_view, std::string_view, Cycles,
                  Cycles) override
    {
    }

    void counterEvent(std::string_view, Cycles, double) override {}
};

} // namespace

TraceSink *
activeTraceSink()
{
    return globalSink;
}

void
setActiveTraceSink(TraceSink *sink)
{
    globalSink = sink;
}

TraceSink &
noTraceSink()
{
    static NoTraceSink sink;
    return sink;
}

TraceSink *
resolveTraceSink(TraceSink *sink)
{
    if (sink == nullptr)
        sink = globalSink;
    return sink == &noTraceSink() ? nullptr : sink;
}

std::string
partitionEventName(std::size_t index)
{
    // Appending (rather than "p" + std::to_string(...)) sidesteps a
    // GCC 12 -O3 false -Wrestrict positive that -Werror would reject.
    std::string name = "p";
    name += std::to_string(index);
    return name;
}

} // namespace copernicus
