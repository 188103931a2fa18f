# The library CMake files include ${CMAKE_SOURCE_DIR}/cmake/NfpEmbed.cmake,
# which resolves to this directory when perfbench/ is the top-level project.
# Forward to the repository's own rule (which in turn runs the embed.cmake
# shim next to this file).
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/NfpEmbed.cmake)
