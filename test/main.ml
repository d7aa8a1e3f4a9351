let () =
  Alcotest.run "uxsm"
    [
      ("util", Test_util.suite);
      ("locks", Test_locks.suite);
      ("obs", Test_obs.suite);
      ("exec", Test_exec.suite);
      ("xml", Test_xml.suite);
      ("schema", Test_schema.suite);
      ("matcher", Test_matcher.suite);
      ("assignment", Test_assignment.suite);
      ("mapping", Test_mapping.suite);
      ("blocktree", Test_blocktree.suite);
      ("twig", Test_twig.suite);
      ("plan", Test_plan.suite);
      ("ptq", Test_ptq.suite);
      ("workload", Test_workload.suite);
      ("loadgen", Test_loadgen.suite);
      ("server", Test_server.suite);
      ("lint", Test_lint.suite);
      ("extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("edge", Test_edge.suite);
      ("integration", Test_integration.suite);
    ]
