# ThreadSanitizer gate over the engine and checker suites. Every simulated
# process is a fiber on the engine's one OS thread, and each context switch
# is annotated for TSan (__tsan_create_fiber / __tsan_switch_to_fiber /
# __tsan_destroy_fiber). The gate runs those annotated switches under TSan,
# together with the explorer's repeated engine construction and teardown,
# which unwinds parked fiber stacks many times per run. TSan sees one OS
# thread either way, so the gate checks that the annotations are used
# correctly and that no host-level race appears, not that every switch is
# annotated. The sim/ and check/ suites run with the `tsan` preset's
# settings as part of verify, in TSAN_DIR: a tree inside the calling build
# tree, configured and built on demand, so the gate works from a fresh,
# moved or copied checkout.
#
# Expects: SOURCE_DIR, TSAN_DIR.
set(tsan_dir "${TSAN_DIR}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${tsan_dir}"
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCIMPI_SANITIZE_THREAD=ON
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan configure failed:\n${out}${err}")
endif()

# One compile job per logical core: a bounded count, since a bare
# --parallel leaves the job count to the generator (unbounded under Make).
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT jobs GREATER 0)
  set(jobs 1)
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${tsan_dir}" --parallel ${jobs}
          --target test_sim test_check
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan build failed:\n${out}${err}")
endif()

foreach(suite IN ITEMS test_sim test_check)
  execute_process(COMMAND "${tsan_dir}/tests/${suite}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${suite} failed under ThreadSanitizer (rc=${rc})")
  endif()
endforeach()
