#!/usr/bin/env bash
# Lint gate over src/ (wired into the `lint` CMake target and the verify
# flow). Uses clang-tidy with the repo .clang-tidy when available; on boxes
# without clang (like the reference container, which only ships g++) it
# falls back to a strict-warning g++ -fsyntax-only pass over every
# translation unit so the gate never silently no-ops.
#
# Env: BUILD_DIR (default: build) — where compile_commands.json lives.
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

sources=$(find src -name '*.cpp' | sort)
[ -n "$sources" ] || { echo "lint: no sources found under src/" >&2; exit 1; }

# One instrumentation stream: outside src/obs and src/sim, intervals are
# recorded through obs::Span and causal links through Engine::start_flow /
# Engine::land. A direct call into a view (Profiler::push/pop,
# EventGraph::node, Tracer::span/span_ids/flow_start/flow_end) would grow a
# second, unsynchronised stream next to the span.
stream_calls=$(grep -rnE '(\.|->)(push|pop|span)\(|(\.|->)node\([^)]|\b(flow_start|flow_end|span_ids)\(' \
                   src tools examples bench --include='*.cpp' --include='*.hpp' |
               grep -vE '^src/(obs|sim)/')
if [ -n "$stream_calls" ]; then
    echo "lint: direct instrumentation-view calls outside src/obs and src/sim" \
         "(record through obs::Span / Engine::land instead):" >&2
    echo "$stream_calls" >&2
    exit 1
fi

# One context-switch mechanism: fibers switch only through the register
# switch in src/sim/process.cpp. A ucontext or setjmp/longjmp switch would be
# a second one, with its own signal-mask syscall and none of the fiber's
# exception-state and sanitizer bookkeeping.
context_calls=$(grep -rnE 'ucontext|getcontext|makecontext|swapcontext|setjmp|longjmp' \
                    src tools bench examples)
if [ -n "$context_calls" ]; then
    echo "lint: a second context-switch mechanism (fibers switch only in" \
         "src/sim/process.cpp):" >&2
    echo "$context_calls" >&2
    exit 1
fi

# One timed-event queue: process wakeups and timed callbacks share the
# engine's (t, seq) heap in src/sim/engine.*. A heap anywhere else in src/
# would be a second scheduler whose same-time order the engine cannot see
# (and a schedule controller cannot choose among).
heap_uses=$(grep -rnE '\b(priority_queue|push_heap|pop_heap|make_heap)\b' src |
            grep -vE '^src/sim/engine\.(hpp|cpp):')
if [ -n "$heap_uses" ]; then
    echo "lint: a second event queue outside src/sim/engine.* (post through" \
         "Engine::at/after instead):" >&2
    echo "$heap_uses" >&2
    exit 1
fi

# Allocation-free event path: a timed callback is an inline sim::Callback in
# the engine's slot pool, a posted store's payload sits in the fabric's
# StoreBuffer and the retry policy borrows its attempt as a FunctionRef. A
# std::function in these files would put a heap allocation back on the path
# every posted store, message delivery and retried publish takes
# (tests/sci/alloc_guard_test.cpp counts them).
function_uses=$(grep -nE '\bstd::function\b' src/sim/engine.hpp src/sim/engine.cpp \
                    src/sci/adapter.hpp src/sci/adapter.cpp src/fault/retry.hpp)
if [ -n "$function_uses" ]; then
    echo "lint: std::function on the allocation-free event path (use" \
         "sim::Callback or FunctionRef instead):" >&2
    echo "$function_uses" >&2
    exit 1
fi

# No per-pair tables: a route is at most one arc per dimension, computed on
# demand from O(nodes + links) topology state. A vector of vectors of
# vectors is the shape of an O(n^3) [src][dst] -> links table (some 700 MiB
# for a 512-node ringlet).
pair_tables=$(grep -rnE 'vector<\s*std::vector<\s*std::vector' src)
if [ -n "$pair_tables" ]; then
    echo "lint: a nested per-pair table in src/ (compute routes on demand" \
         "instead):" >&2
    echo "$pair_tables" >&2
    exit 1
fi

# Shared awk prelude of the src/mpi/coll + src/mpi/req rules: `fn` is the
# name of the enclosing top-level function definition.
fn_track='
    FNR == 1 { fn = "" }
    /^[A-Za-z][^;]*\(/ && !/^(namespace|static_assert)/ {
        head = $0; sub(/\(.*/, "", head); n = split(head, w, /[ :*&]+/); fn = w[n]
    }'
coll_req_sources=$(find src/mpi/coll src/mpi/req -name '*.cpp' -o -name '*.hpp' | sort)

# One description per collective algorithm: in src/mpi/coll and src/mpi/req
# only the executors move data. A transport call (Rank::send/recv/isend/
# irecv, CollSegmentSet::run_streams) anywhere else would be an algorithm
# written against one transport again. Exempt: the round executors
# (sched.cpp issue_round/run_seg), the segment set's p2p fallback path
# (fallback_send/fallback_recv and the flag barrier's tokens) and the
# request engine's point-to-point requests (request.cpp issue).
transport_calls=$(awk "$fn_track"'
    /(\.|->)(send|recv|isend|irecv|run_streams)\(/ {
        key = FILENAME ":" fn
        if (key !~ /^src\/mpi\/coll\/sched\.cpp:(issue_round|run_seg)$/ &&
            key !~ /^src\/mpi\/coll\/segment_set\.cpp:(fallback_send|fallback_recv|barrier_flags)$/ &&
            key !~ /^src\/mpi\/req\/request\.cpp:issue$/)
            print FILENAME ":" FNR ": " $0
    }' $coll_req_sources)
if [ -n "$transport_calls" ]; then
    echo "lint: transport calls outside the collective executors" \
         "(describe the algorithm as a coll::Sched instead):" >&2
    echo "$transport_calls" >&2
    exit 1
fi

# Exact wakeups: in src/mpi/coll and src/mpi/req a waiter is woken by the
# event it polls for, never by a timer. The one timed engine callback
# (Engine::at/after) is the posted-store visibility delay in segment_set.cpp
# put_word; a re-poll timer anywhere else would turn a lost wake into a
# livelock instead of the engine's named deadlock panic.
timed_calls=$(awk "$fn_track"'
    /(\.|->)(after|at)\(/ {
        key = FILENAME ":" fn
        if (key !~ /^src\/mpi\/coll\/segment_set\.cpp:put_word$/)
            print FILENAME ":" FNR ": " $0
    }' $coll_req_sources)
if [ -n "$timed_calls" ]; then
    echo "lint: timed engine callbacks in the collective or request" \
         "engine (wake on the polled event instead):" >&2
    echo "$timed_calls" >&2
    exit 1
fi

# One direct_pack_ff path and one copy-cost model: the ff/generic decision
# and every pack charge live in src/mpi/datatype (ff_may_move, gather_direct,
# pack_stream/unpack_stream, copy_blocks) and the contiguous / ff-gather /
# staged SCI chunk write in src/mpi/chunk_writer.hpp. A packer built, a
# packer's cost charged, a copy charged in the MPI layer or a gather write
# issued anywhere else is another copy of that path, free to disagree with
# it. Exempt: packers and their costs in the datatype layer and plat (its
# comparator models price other MPIs' packers), the chunk writer's packer,
# gather writes in the layers below mpi (sci, smi), the chunk writer and
# the remote-put in RmaState::serve_get.
pack_sources=$(find src bench examples tools perfbench/src \( -name '*.cpp' -o -name '*.hpp' \) | sort)
pack_sites=$(awk "$fn_track"'
    {
        key = FILENAME ":" fn
        packer_ok = FILENAME ~ /^src\/(mpi\/datatype|plat)\// ||
                    FILENAME == "src/mpi/chunk_writer.hpp"
        cost_ok = FILENAME ~ /^src\/(mpi\/datatype|plat)\//
        gather_ok = FILENAME ~ /^src\/(sci|smi)\// ||
                    FILENAME == "src/mpi/chunk_writer.hpp" ||
                    key == "src/mpi/rma/emulation.cpp:serve_get"
    }
    (!packer_ok && /(^|[^A-Za-z0-9_:])(FFPacker|GenericPacker)([[:space:]]+[A-Za-z_][A-Za-z0-9_]*)?[[:space:]]*[({]/) ||
    (!cost_ok && /(FFPacker|GenericPacker)::cost\(/) ||
    (!cost_ok && FILENAME ~ /^src\/mpi\// && /copy_cost\(/) ||
    (!gather_ok && /(\.|->)(dma_)?write_gather\(/) {
        print FILENAME ":" FNR ": " $0
    }' $pack_sources)
if [ -n "$pack_sites" ]; then
    echo "lint: a packer, copy charge or gather write outside the pack-path" \
         "module and the chunk writer (call pack_stream/unpack_stream," \
         "copy_blocks or write_chunk):" >&2
    echo "$pack_sites" >&2
    exit 1
fi

# Layering: the layers below the MPI library (common, sim, mem, sci, smi,
# fault, obs, check) never include an mpi/ or plat/ header (plat models
# the packers of the MPI layer, so it sits above them too). This keeps
# shared kernels such as mem::copy_block in mem/, where sci and mpi both
# reach them.
layer_includes=$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"(mpi|plat)/' \
                     src/common src/sim src/mem src/sci src/smi src/fault src/obs src/check)
if [ -n "$layer_includes" ]; then
    echo "lint: a lower layer includes an mpi/ or plat/ header:" >&2
    echo "$layer_includes" >&2
    exit 1
fi

# One counter per fact: the metrics registry is the only counter store. A
# per-object `struct Stats` / `struct Counters`, or a stats() accessor in
# the sci, mpi or fault layers, would count the registry's events a second
# time. Read one object's count as MetricsRegistry::value(name, label).
stats_structs=$(grep -rnE '\bstruct[[:space:]]+(Stats|Counters)\b' src
                grep -rnE '\bstats\(\)' src/sci src/mpi src/fault)
if [ -n "$stats_structs" ]; then
    echo "lint: a per-object stats struct or stats() accessor beside the" \
         "metrics registry (count through a registry slot instead):" >&2
    echo "$stats_structs" >&2
    exit 1
fi

# Reachable modules: every header under src/ is included by some file of
# src/, bench/, examples/, tools/ or perfbench/src other than its own .cpp.
# A header that only its own .cpp and the tests include is a module no
# program reaches.
unreached=""
for h in $(find src -name '*.hpp' | sort); do
    users=$(grep -rlF "#include \"${h#src/}\"" src bench examples tools perfbench/src \
                --include='*.cpp' --include='*.hpp' | grep -vxF "${h%.hpp}.cpp")
    [ -n "$users" ] || unreached="$unreached $h"
done
if [ -n "$unreached" ]; then
    echo "lint: headers no program includes (delete the module, or use it):" >&2
    printf '  %s\n' $unreached >&2
    exit 1
fi

if command -v clang-tidy >/dev/null 2>&1 && [ -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "lint: clang-tidy ($(clang-tidy --version | head -n1))"
    # shellcheck disable=SC2086
    clang-tidy -p "$BUILD_DIR" --quiet $sources
    exit $?
fi

echo "lint: clang-tidy unavailable; strict g++ -fsyntax-only fallback"
CXX="${CXX:-g++}"
FLAGS="-std=c++20 -Isrc -fsyntax-only -Wall -Wextra -Wpedantic -Wshadow
       -Wnon-virtual-dtor -Wcast-align -Woverloaded-virtual -Wunused
       -Wconversion-null -Wdouble-promotion -Wformat=2 -Wimplicit-fallthrough
       -Wmissing-declarations -Wredundant-decls -Wswitch-enum -Werror"
# Strict zone: the engine and the checker/explorer are the layers where a
# silent narrowing or qualifier drop can corrupt a schedule decision or a
# vector clock, and mem/ and the datatype layer are where one would corrupt
# a copy length or a block offset, so they carry every extra diagnostic g++
# offers. New warnings here fail the gate outright.
STRICT_FLAGS="-Wconversion -Wsign-conversion -Wcast-qual -Wlogical-op
              -Wduplicated-cond -Wduplicated-branches"
fail=0
for f in $sources; do
    extra=""
    case "$f" in
        src/sim/*|src/check/*|src/mem/*|src/mpi/datatype/*) extra="$STRICT_FLAGS" ;;
    esac
    # shellcheck disable=SC2086
    if ! "$CXX" $FLAGS $extra "$f"; then
        fail=1
        echo "lint: FAIL $f" >&2
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "lint: failures detected" >&2
    exit 1
fi
echo "lint: clean ($(echo "$sources" | wc -l) files)"
