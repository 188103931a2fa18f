# Script-mode forwarder (cmake -P) to the repository's embed rule; see
# NfpEmbed.cmake next to this file.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/embed.cmake)
