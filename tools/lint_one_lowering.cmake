# One lowering per routine kind: every Level-1/2 core:: module is
# instantiated exactly once in src/host and src/codegen, in the per-kind
# module table src/host/kinds.hpp. Fails (naming each offending site) when
# a module call appears anywhere else there, or is missing from the table.
#
#   cmake -DSRC=<repo>/src -P tools/lint_one_lowering.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT SRC)
  message(FATAL_ERROR "lint_one_lowering: pass -DSRC=<repo>/src")
endif()

set(routines rotg rotmg rot rotm swap scal copy axpy dot sdsdot nrm2 asum
    iamax gemv trsv ger syr syr2)
foreach(r ${routines})
  set(count_${r} 0)
endforeach()

file(GLOB files ${SRC}/host/*.cpp ${SRC}/host/*.hpp ${SRC}/codegen/*.cpp
     ${SRC}/codegen/*.hpp)
set(bad "")
foreach(f ${files})
  file(READ ${f} text)
  string(REGEX MATCHALL "core::[a-z0-9_]+[ \t\r\n]*(<[^<>();]*>)?[ \t\r\n]*\\("
         calls "${text}")
  foreach(call ${calls})
    string(REGEX REPLACE "^core::([a-z0-9_]+).*" "\\1" name "${call}")
    if(NOT name IN_LIST routines)
      continue()
    endif()
    math(EXPR count_${name} "${count_${name}} + 1")
    get_filename_component(base ${f} NAME)
    if(NOT base STREQUAL "kinds.hpp")
      string(APPEND bad "\n  ${f}: core::${name}(")
    endif()
  endforeach()
endforeach()

foreach(r ${routines})
  if(NOT count_${r} EQUAL 1)
    string(APPEND bad "\n  core::${r}( appears ${count_${r}} times, want 1")
  endif()
endforeach()

if(bad)
  message(FATAL_ERROR "Level-1/2 modules lowered outside host/kinds.hpp:${bad}")
endif()
message(STATUS "lint_one_lowering: each Level-1/2 module has one lowering")
