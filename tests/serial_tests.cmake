# Included by ctest after the gtest discovery file (tests/CMakeLists.txt).
set_tests_properties(HostParallel.WallClockSpeedupWithFourThreads
    PROPERTIES RUN_SERIAL TRUE)
