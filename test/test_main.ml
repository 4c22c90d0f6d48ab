let () =
  Alcotest.run "dbmeta"
    [
      ("support", Test_support.suite);
      ("relational", Test_relational.suite);
      ("calculus", Test_calculus.suite);
      ("datalog", Test_datalog.suite);
      ("dependencies", Test_dependencies.suite);
      ("transactions", Test_transactions.suite);
      ("incomplete", Test_incomplete.suite);
      ("sat", Test_sat.suite);
      ("metatheory", Test_metatheory.suite);
      ("extensions", Test_extensions.suite);
      ("extensions2", Test_extensions2.suite);
      ("access-nested", Test_access_nested.suite);
      ("access-edge", Test_access_edge.suite);
      ("storage", Test_storage.suite);
      ("planner", Test_planner.suite);
      ("integration", Test_integration.suite);
      ("analysis", Test_analysis.suite);
      ("executor", Test_executor.suite);
      ("distributed", Test_distributed.suite);
      ("replication", Test_replication.suite);
      ("obs", Test_obs.suite);
      ("disk-sites", Test_disk_sites.suite);
    ]
