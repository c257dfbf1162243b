# examples/kvstore argument check: `put <key> <int>` whose value is not a
# whole decimal integer in [0, 2^64) must exit 2, the usage error, before
# the store is opened (so the check touches no pool file).
#
#   cmake -DKVSTORE=<path/to/example_kvstore> -P kvstore_args.cmake

foreach(bad "baz" "12x" "-1" "+1" " 5" "18446744073709551616")
  execute_process(COMMAND ${KVSTORE} put k "${bad}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "example_kvstore put k '${bad}' exited ${rc}, want 2")
  endif()
endforeach()
