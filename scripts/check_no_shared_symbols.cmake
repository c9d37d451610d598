# Fails when archive member MEMBER of static library LIB defines a
# symbol the linker shares between object files: weak (W, V) or
# GNU-unique (u). The linker keeps one copy of such a symbol for the
# whole program, so a copy compiled with wider ISA flags can replace
# the baseline one behind the scalar kernel table.
#
#   cmake -DNM=nm -DLIB=libmosaic_exec.a -DMEMBER=simd_avx2.cc.o \
#         -P scripts/check_no_shared_symbols.cmake
foreach(var NM LIB MEMBER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_no_shared_symbols: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${NM} -A --defined-only ${LIB}
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB} (${nm_status})")
endif()

# One line per symbol: "<archive>:<member>:<value> <type> <name>".
string(REPLACE "\n" ";" lines "${listing}")
set(member_symbols 0)
set(shared "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[^:]*:([^:]*):[0-9a-fA-F]* ([A-Za-z]) (.*)$"
     AND CMAKE_MATCH_1 STREQUAL MEMBER)
    math(EXPR member_symbols "${member_symbols} + 1")
    set(type "${CMAKE_MATCH_2}")
    set(name "${CMAKE_MATCH_3}")
    if(type MATCHES "^[WVu]$")
      string(APPEND shared "\n  ${type} ${name}")
    endif()
  endif()
endforeach()

if(member_symbols EQUAL 0)
  message(FATAL_ERROR "no symbols of member ${MEMBER} found in ${LIB}")
endif()
if(NOT shared STREQUAL "")
  message(FATAL_ERROR
          "${MEMBER} defines symbols the linker shares between objects "
          "(give them internal linkage):${shared}")
endif()
message(STATUS "${MEMBER}: ${member_symbols} symbols, none shared")
