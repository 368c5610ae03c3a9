let () =
  Alcotest.run "cedar"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("disk", Test_disk.suite);
      ("btree", Test_btree.suite);
      ("model", Test_model.suite);
      ("fsbase", Test_fsbase.suite);
      ("fsd-log", Test_fsd_log.suite);
      ("fsd", Test_fsd.suite);
      ("cfs", Test_cfs.suite);
      ("unixfs", Test_ufs.suite);
      ("fsd-store", Test_fsd_store.suite);
      ("fsd-vamlog", Test_fsd_vamlog.suite);
      ("fault-sweep", Test_fault_sweep.suite);
      ("faultsweep-server", Test_faultsweep.suite);
      ("scavenge", Test_scavenge.suite);
      ("properties", Test_props.suite);
      ("negative", Test_negative.suite);
      ("workload", Test_workload.suite);
      ("server", Test_server.suite);
      ("integration", Test_integration.suite);
      ("wrap", Test_wrap.suite);
      ("monitor", Test_monitor.suite);
      ("critpath", Test_critpath.suite);
      ("volumes", Test_volumes.suite);
      ("drift", Test_drift.suite);
    ]
