# One lowering per routine kind, for all three levels: in src/host and
# src/codegen every core:: module is instantiated exactly once, in the
# per-kind module table src/host/kinds.hpp, and every Level-2/3 port
# streamer exactly once, inside detail::read_port / detail::write_port
# (src/host/detail.hpp); and every routine's ABFT checker (a
# verify::<routine>_prepare / _check, check_sum or check_rowsums call)
# sits in its descriptor in kinds.hpp. Fails, naming each offending
# site, when a call appears anywhere else there or is missing.
#
#   cmake -DSRC=<repo>/src -P tools/lint_one_lowering.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT SRC)
  message(FATAL_ERROR "lint_one_lowering: pass -DSRC=<repo>/src")
endif()

# SYRK has no module of its own: it runs GEMM's.
set(modules rotg rotmg rot rotm swap scal copy axpy dot sdsdot nrm2 asum
    iamax gemv trsv ger syr syr2 gemm syr2k trsm)
set(streamers read_a_gemm read_b_gemm read_triangular)
foreach(r ${modules} ${streamers})
  set(count_${r} 0)
endforeach()

# The text of the function `sig` starts in `text`: up to its closing
# brace at the start of a line.
function(function_body text sig out)
  string(FIND "${text}" "${sig}" at)
  set(body "")
  if(at GREATER -1)
    string(SUBSTRING "${text}" ${at} -1 rest)
    string(FIND "${rest}" "\n}\n" end)
    string(SUBSTRING "${rest}" 0 ${end} body)
  endif()
  set(${out} "${body}" PARENT_SCOPE)
endfunction()

set(call_re "core::[a-z0-9_]+[ \t\r\n]*(<[^<>();]*>)?[ \t\r\n]*\\(")
# A routine checker; verify::check_output (the composition output audit)
# is not one.
set(check_re "verify::([a-z0-9_]+_(prepare|check)|check_sum|check_rowsums)[ \t\r\n]*(<[^<>();]*>)?[ \t\r\n]*\\(")
file(GLOB files ${SRC}/host/*.cpp ${SRC}/host/*.hpp ${SRC}/codegen/*.cpp
     ${SRC}/codegen/*.hpp)
set(bad "")
foreach(f ${files})
  file(READ ${f} text)
  get_filename_component(base ${f} NAME)
  set(ports "")
  if(base STREQUAL "detail.hpp")
    function_body("${text}" "stream::Task read_port(" reader)
    function_body("${text}" "stream::Task write_port(" writer)
    string(REGEX MATCHALL "${call_re}" ports "${reader}${writer}")
  endif()
  if(NOT base STREQUAL "kinds.hpp")
    string(REGEX MATCHALL "${check_re}" checks "${text}")
    foreach(call ${checks})
      string(REGEX REPLACE "[ \t\r\n]*(<[^<>();]*>)?[ \t\r\n]*\\($" "("
             call "${call}")
      string(APPEND bad "\n  ${f}: ${call} outside a kinds.hpp descriptor")
    endforeach()
  endif()
  string(REGEX MATCHALL "${call_re}" calls "${text}")
  foreach(call ${calls})
    string(REGEX REPLACE "^core::([a-z0-9_]+).*" "\\1" name "${call}")
    if(name IN_LIST modules)
      math(EXPR count_${name} "${count_${name}} + 1")
      if(NOT base STREQUAL "kinds.hpp")
        string(APPEND bad "\n  ${f}: core::${name}(")
      endif()
    elseif(name IN_LIST streamers)
      math(EXPR count_${name} "${count_${name}} + 1")
      # With the count of one checked below, a streamer named in the port
      # functions' text is that call.
      set(inside FALSE)
      foreach(p ${ports})
        string(REGEX REPLACE "^core::([a-z0-9_]+).*" "\\1" pname "${p}")
        if(pname STREQUAL name)
          set(inside TRUE)
        endif()
      endforeach()
      if(NOT inside)
        string(APPEND bad "\n  ${f}: core::${name}( outside "
                          "detail::read_port/write_port")
      endif()
    endif()
  endforeach()
endforeach()

foreach(r ${modules} ${streamers})
  if(NOT count_${r} EQUAL 1)
    string(APPEND bad "\n  core::${r}( appears ${count_${r}} times, want 1")
  endif()
endforeach()

if(bad)
  message(FATAL_ERROR "routine modules, streamers or checkers outside "
                      "host/kinds.hpp and detail::read_port/write_port:${bad}")
endif()
message(STATUS "lint_one_lowering: each module, port streamer and checker "
               "has one lowering")
