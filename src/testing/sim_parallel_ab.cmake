# Cross-thread-count determinism A/B, invoked by the `sim_parallel_ab`
# ctest target:
#
#   cmake -DFUZZ_BIN=<build>/testing/ask_fuzz
#         -DFIG08A_BIN=<build>/bench/fig08a_goodput
#         -DOUT_DIR=<scratch> -P sim_parallel_ab.cmake
#
# The contract of sim::run_isolated (docs/CONCURRENCY.md) is bit-for-bit
# identical output at ANY thread count, including 1. This script
# enforces it on two of its production consumers:
#
#   1. a bounded fuzz campaign at ASK_SIM_THREADS 1, 2 and 4 — the
#      ask-fuzz/v1 reports must be byte-identical;
#   2. a fig08a --smoke bench at ASK_SIM_THREADS 1 and 4 — the
#      BENCH_fig08a_goodput.json reports must be byte-identical.

if(NOT DEFINED FUZZ_BIN OR NOT DEFINED FIG08A_BIN OR NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "usage: cmake -DFUZZ_BIN=... -DFIG08A_BIN=... -DOUT_DIR=... -P sim_parallel_ab.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# ---- fuzz campaign at three thread counts ---------------------------------

foreach(threads 1 2 4)
    message(STATUS "sim_parallel_ab: fuzz campaign at ${threads} thread(s)")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env "ASK_SIM_THREADS=${threads}"
            "${FUZZ_BIN}" --count 30
            --json "${OUT_DIR}/fuzz_t${threads}.json"
        WORKING_DIRECTORY "${OUT_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sim_parallel_ab: fuzz at ${threads} thread(s) exited ${rc}\n${out}\n${err}")
    endif()
endforeach()

file(READ "${OUT_DIR}/fuzz_t1.json" fuzz_t1)
foreach(threads 2 4)
    file(READ "${OUT_DIR}/fuzz_t${threads}.json" fuzz_tn)
    if(NOT fuzz_t1 STREQUAL fuzz_tn)
        message(FATAL_ERROR "sim_parallel_ab: fuzz report at ${threads} threads differs from the 1-thread report — the campaign fold is nondeterministic (see the runbook in docs/CONCURRENCY.md)")
    endif()
endforeach()

# ---- fig08a smoke bench at two thread counts ------------------------------

foreach(threads 1 4)
    message(STATUS "sim_parallel_ab: fig08a --smoke at ${threads} thread(s)")
    set(bench_dir "${OUT_DIR}/fig08a_t${threads}")
    file(MAKE_DIRECTORY "${bench_dir}")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env "ASK_SIM_THREADS=${threads}"
            "ASK_BENCH_OUT_DIR=${bench_dir}" "${FIG08A_BIN}" --smoke
        WORKING_DIRECTORY "${bench_dir}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sim_parallel_ab: fig08a at ${threads} thread(s) exited ${rc}\n${out}\n${err}")
    endif()
    # The human-readable stdout must match too, not just the report.
    # Only the trailing "wrote <path>" line may differ (the two runs
    # write into different scratch directories by construction).
    string(REGEX REPLACE "wrote [^\n]*\n" "wrote <report>\n" out "${out}")
    file(WRITE "${bench_dir}/stdout.txt" "${out}")
endforeach()

foreach(artifact "BENCH_fig08a_goodput.json" "stdout.txt")
    file(READ "${OUT_DIR}/fig08a_t1/${artifact}" bench_t1)
    file(READ "${OUT_DIR}/fig08a_t4/${artifact}" bench_t4)
    if(NOT bench_t1 STREQUAL bench_t4)
        message(FATAL_ERROR "sim_parallel_ab: fig08a ${artifact} differs between 1 and 4 threads")
    endif()
endforeach()

message(STATUS "sim_parallel_ab: byte-identical at every thread count")
