# Applied after gtest test discovery (see TEST_INCLUDE_FILES in
# CMakeLists.txt): gives cdn_tests' threaded cases the `concurrency` label
# so `ctest -L concurrency` (the TSan stage) runs them.
if(cdn_test_names)
  set(cdn_concurrency_tests ${cdn_test_names})
  list(FILTER cdn_concurrency_tests INCLUDE REGEX "\\.Concurrent")
  if(cdn_concurrency_tests)
    set_tests_properties(${cdn_concurrency_tests} PROPERTIES LABELS concurrency)
  endif()
endif()
