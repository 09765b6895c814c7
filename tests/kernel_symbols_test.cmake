# Symbol hygiene of the kernel tables. Each table object
# (src/privelet/simd/table_*.cc) builds the shared kernel source at its own
# target flags, so it must define exactly one global or weak symbol: its
# own factory. Any other one, say an inline helper with external linkage,
# could be the copy the linker keeps for every caller, and an AVX-512 copy
# run on a host without AVX-512 dies on an illegal instruction.
#
#   cmake -DNM=<nm> -DOBJECTS=<object>|<object>|... -P kernel_symbols_test.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
list(LENGTH objects count)
if(NOT count EQUAL 3)
  message(FATAL_ERROR "expected the three kernel table objects, got: ${OBJECTS}")
endif()
foreach(object IN LISTS objects)
  get_filename_component(name "${object}" NAME)
  if(NOT name MATCHES "^table_(scalar|avx2|avx512)\\.")
    message(FATAL_ERROR "not a kernel table object: ${object}")
  endif()
  string(SUBSTRING "${CMAKE_MATCH_1}" 0 1 first)
  string(SUBSTRING "${CMAKE_MATCH_1}" 1 -1 rest)
  string(TOUPPER "${first}" first)
  set(factory "privelet::simd::${first}${rest}Kernels()")
  execute_process(COMMAND "${NM}" --defined-only --extern-only -C "${object}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}")
  endif()
  string(REGEX REPLACE "\n$" "" symbols "${symbols}")
  string(REPLACE "\n" ";" symbols "${symbols}")
  set(defined "")
  foreach(line IN LISTS symbols)
    # "<address> <type> <demangled name>"
    string(REGEX REPLACE "^[0-9a-fA-F]* *[A-Za-z] " "" symbol "${line}")
    list(APPEND defined "${symbol}")
  endforeach()
  if(NOT defined STREQUAL factory)
    message(SEND_ERROR "${name} must define exactly one external symbol, "
                       "${factory}; it defines: ${defined}")
  else()
    message(STATUS "${name}: ${factory} only")
  endif()
endforeach()
