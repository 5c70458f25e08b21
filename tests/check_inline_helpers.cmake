# Checks that no engine kernel object (dist_engine_*, mr_engine_*) defines
# (W, T, t) or references (U) an out-of-line copy of a helper the kernels
# must inline: compute_moments, the Reconstructor constructor (any register
# type) and resolve_stream; and that no mlbm object at all carries an
# out-of-line reconstruct_* (or a3_neq/a4_neq) copy: the host moment writes
# inline them too, so no archive order can pick which copy runs.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj;obj;...> -P check_inline_helpers.cmake
#
# Without an nm it prints "no nm: skipped" (the test's skip expression).
if(NOT NM)
  message("no nm: skipped")
  return()
endif()
set(helpers "mlbm::compute_moments<|mlbm::Reconstructor<.*>::Reconstructor\\(|mlbm::resolve_stream<")
set(everywhere "mlbm::reconstruct_|mlbm::a[34]_neq<")
set(checked 0)
set(bad "")
foreach(obj IN LISTS OBJECTS)
  set(pattern "${everywhere}")
  if(obj MATCHES "/(dist|mr)_engine_[a-z0-9]+\\.cpp\\.o$")
    math(EXPR checked "${checked} + 1")
    set(pattern "${helpers}|${everywhere}")
  endif()
  execute_process(COMMAND ${NM} -C ${obj} OUTPUT_VARIABLE syms
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} -C ${obj} failed (${rc})")
  endif()
  string(REPLACE "\n" ";" lines "${syms}")
  foreach(line IN LISTS lines)
    if(line MATCHES " [WTtU] " AND line MATCHES "${pattern}")
      string(APPEND bad "\n  ${obj}: ${line}")
    endif()
  endforeach()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no dist_engine_*/mr_engine_* objects in OBJECTS")
endif()
if(bad)
  message(FATAL_ERROR "out-of-line kernel helpers:${bad}")
endif()
list(LENGTH OBJECTS total)
message("${checked} engine objects: every helper inlined; ${total} objects: no out-of-line reconstruct_*")
