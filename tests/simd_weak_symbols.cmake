# Weak-symbol guard for the per-ISA kernel file (DESIGN.md §9.1).
#
# common/simd.cc compiles the generic kernel body under AVX2 and AVX-512
# target regions. If that file ever defines a weak symbol — an inline
# function or template instantiation shared with other files — the linker
# may keep its AVX-512-encoded copy for every caller, and baseline CPUs
# then fault on it. No test on an AVX-512 host would notice, so this
# check runs nm over the simd.cc member of the library instead and fails
# on any weak definition (nm types W, V and u).
#
#   cmake -DNM=<nm> -DLIB=<path/to/libfastfair.a> -P simd_weak_symbols.cmake

execute_process(COMMAND ${NM} -A ${LIB}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -A ${LIB} failed: ${err}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(defined 0)
set(weak "")
foreach(line IN LISTS lines)
  if(line MATCHES ":simd\\.cc\\.o: *[0-9a-f]* +([A-Za-z]) ")
    if(CMAKE_MATCH_1 MATCHES "^[WVu]$")
      string(APPEND weak "  ${line}\n")
    elseif(NOT CMAKE_MATCH_1 STREQUAL "U")
      math(EXPR defined "${defined} + 1")
    endif()
  endif()
endforeach()

if(defined EQUAL 0)
  message(FATAL_ERROR "no symbols defined by a simd.cc member in ${LIB}")
endif()
if(NOT weak STREQUAL "")
  message(FATAL_ERROR "simd.cc defines weak symbols:\n${weak}")
endif()
message(STATUS "simd.cc: ${defined} symbols defined, none weak")
