let () =
  Alcotest.run "discopop"
    [ ("mil", Test_mil.tests);
      ("walker", Test_walker.tests);
      ("trace", Test_trace.tests);
      ("sigmem", Test_sigmem.tests);
      ("profiler", Test_profiler.tests);
      ("cu", Test_cu.tests);
      ("discovery", Test_discovery.tests);
      ("schedule", Test_schedule.tests);
      ("apps", Test_apps.tests);
      ("obs", Test_obs.tests);
      ("explain", Test_explain.tests);
      ("transform", Test_transform.tests);
      ("passes", Test_passes.tests);
      ("hotpath", Test_hotpath.tests);
      ("registry", Test_registry.tests);
      ("pipeline", Test_pipeline.tests);
      ("runtime", Test_runtime.tests);
      ("serve", Test_serve.tests) ]
