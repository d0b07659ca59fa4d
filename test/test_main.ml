let () =
  Alcotest.run "protolat"
    [ Test_util.suite;
      Test_machine.suite;
      Test_layout.suite;
      Test_xkernel.suite;
      Test_netsim.suite;
      Test_topology.suite;
      Test_tcpip.suite;
      Test_rpc.suite;
      Test_extensions.suite;
      Test_obs.suite;
      Test_fault.suite;
      Test_engine.suite;
      Test_mflow.suite;
      Test_spans.suite;
      Test_chaos.suite;
      Test_fastpath.suite;
      Test_fastpath.replay_suite;
      Test_search.suite;
      Test_export.suite ]
