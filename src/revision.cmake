# Writes OUT, a header defining NOWCLUSTER_REVISION as the source
# tree's `git describe --always --dirty` ("unknown" outside a git
# checkout or without git). Run at build time by the now_revision
# target (src/CMakeLists.txt); OUT is rewritten only when the revision
# changed, so an unchanged tree recompiles nothing.
#
#   cmake -DSOURCE_DIR=<tree> -DOUT=<header> -P revision.cmake
set(rev "unknown")
find_package(Git QUIET)
if(GIT_FOUND)
  execute_process(COMMAND "${GIT_EXECUTABLE}" describe --always --dirty
                  WORKING_DIRECTORY "${SOURCE_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_QUIET
                  OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(rc EQUAL 0 AND NOT out STREQUAL "")
    set(rev "${out}")
  endif()
endif()
file(WRITE "${OUT}.tmp" "#define NOWCLUSTER_REVISION \"${rev}\"\n")
execute_process(COMMAND "${CMAKE_COMMAND}" -E copy_if_different
                "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
