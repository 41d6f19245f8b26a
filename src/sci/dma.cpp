#include "sci/dma.hpp"

#include <string>

#include "obs/span.hpp"

namespace scimpi::sci {

DmaEngine::DmaEngine(sim::Engine& engine, SciAdapter& adapter) : adapter_(adapter) {
    engine.spawn_daemon(std::string("dma-node") + std::to_string(adapter.node()),
                        [this](sim::Process& self) { engine_loop(self); });
}

DmaEngine::Handle DmaEngine::post_write(sim::Process& self, const SciMapping& map,
                                        std::size_t off, const void* src,
                                        std::size_t len) {
    // Descriptor setup is CPU work; the streaming itself is not.
    self.delay(adapter_.fabric().params().dma_startup / 4);
    Descriptor d;
    d.is_write = true;
    d.map = map;
    d.off = off;
    d.src = src;
    d.len = len;
    d.handle = std::make_shared<Transfer>();
    Handle h = d.handle;
    queue_.send(std::move(d));
    return h;
}

DmaEngine::Handle DmaEngine::post_read(sim::Process& self, const SciMapping& map,
                                       std::size_t off, void* dst, std::size_t len) {
    self.delay(adapter_.fabric().params().dma_startup / 4);
    Descriptor d;
    d.is_write = false;
    d.map = map;
    d.off = off;
    d.dst = dst;
    d.len = len;
    d.handle = std::make_shared<Transfer>();
    Handle h = d.handle;
    queue_.send(std::move(d));
    return h;
}

void DmaEngine::engine_loop(sim::Process& self) {
    for (;;) {
        Descriptor d = queue_.recv(self);
        const obs::Span span(self, {.name = d.is_write ? "dma:write" : "dma:read",
                                    .trace = "sci",
                                    .bytes = d.len});
        if (d.is_write) {
            d.handle->result = adapter_.dma_write(self, d.map, d.off, d.src, d.len);
        } else {
            d.handle->result = adapter_.dma_read(self, d.map, d.off, d.dst, d.len);
        }
        d.handle->done->set();
    }
}

}  // namespace scimpi::sci
