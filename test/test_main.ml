(* The runner's module initialisation transitively references every
   suite; alcotest wraps each case, so tracked exceptions surface as
   per-case failures, not an unhandled crash of the runner. *)
[@@@th.allow "fault-barrier"]

let () =
  Alcotest.run "teraheap"
    [
      ("sim", Test_sim.suite);
      ("device", Test_device.suite);
      ("objmodel", Test_objmodel.suite);
      ("heap-structs", Test_heap_structs.suite);
      ("h2", Test_h2.suite);
      ("serde", Test_serde.suite);
      ("runtime", Test_runtime.suite);
      ("gc-properties", Test_gc_props.suite);
      ("gc-golden", Test_gc_golden.suite);
      ("policy", Test_policy.suite);
      ("verify", Test_verify.suite);
      ("exec", Test_exec.suite);
      ("spark", Test_spark.suite);
      ("giraph", Test_giraph.suite);
      ("metrics", Test_metrics.suite);
      ("faults", Test_faults.suite);
      ("resilience", Test_resilience.suite);
      ("streaming", Test_streaming.suite);
      ("trace", Test_trace.suite);
      ("analysis", Test_analysis.suite);
      ("dacapo-misc", Test_dacapo.suite);
      ("integration", Test_integration.suite);
    ]
